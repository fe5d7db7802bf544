import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from mapsim.config import SimConfig, speed_to_mps
from mapsim.fleet import make_fleet, ring_distance, step_positions


def test_ring_distance_oracles():
    assert ring_distance(0.0, 9900.0, 10000.0) == 100.0
    assert ring_distance(9900.0, 0.0, 10000.0) == 100.0
    assert ring_distance(2500.0, 7500.0, 10000.0) == 5000.0
    assert ring_distance(42.0, 42.0, 10000.0) == 0.0


@given(
    a=st.floats(0.0, 10000.0, allow_nan=False),
    b=st.floats(0.0, 10000.0, allow_nan=False),
)
def test_ring_distance_symmetric_and_bounded(a, b):
    d = ring_distance(a, b, 10000.0)
    assert d == ring_distance(b, a, 10000.0)
    assert 0.0 <= d <= 5000.0


def modulo_ring_distance(a, b, road_length):
    """The ring distance as first written, reduced modulo the ring."""
    gap = np.abs(a - b) % road_length
    return np.minimum(gap, road_length - gap)


def masked_ring_distance(a, b, road_length):
    """The ring distance as a subtract masked to the gaps past half the ring."""
    gap = np.asarray(np.abs(a - b), dtype=np.float64)
    np.subtract(road_length, gap, out=gap, where=gap > road_length / 2)
    return gap


@given(
    road_length=st.one_of(st.floats(1e-3, 1e9), st.sampled_from([1.0, 3.0, 10000.0])),
    data=st.data(),
)
def test_ring_distance_equals_the_modulo_formula_on_the_ring(road_length, data):
    # ring_distance drops the modulo for positions in [0, road_length]; the
    # ends and half the ring are the edge cases
    edges = [0.0, road_length / 2, road_length, np.nextafter(road_length / 2, 0.0)]
    point = st.one_of(st.floats(0.0, road_length), st.sampled_from(edges))
    a = np.array(data.draw(st.lists(point, min_size=1, max_size=20)))
    b = np.array(data.draw(st.lists(point, min_size=len(a), max_size=len(a))))
    want = modulo_ring_distance(a, b, road_length)
    got = ring_distance(a, b, road_length)
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in want.tolist()]
    masked = masked_ring_distance(a, b, road_length)
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in masked.tolist()]
    grid = ring_distance(a[:, None], b[None, :], road_length)
    assert np.array_equal(grid, modulo_ring_distance(a[:, None], b[None, :], road_length))
    scalar = ring_distance(float(a[0]), float(b[0]), road_length)
    assert scalar.hex() == want[0].hex()


@given(
    road_length=st.floats(1.0, 1e6),
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(0, 30), st.integers(0, 30), st.integers(0, 60)),
)
def test_ring_distance_of_index_pairs_equals_the_grid(road_length, seed, shape):
    # attach takes the distances of the client x MAP pairs it reads, not
    # the whole grid; an element must not depend on the shape it is taken in
    rng = np.random.default_rng(seed)
    clients, maps, pairs = shape
    a, b = rng.uniform(0.0, road_length, clients), rng.uniform(0.0, road_length, maps)
    if seed % 2:
        # eighths of the ring, so that gaps of exactly half the ring occur
        a, b = (np.floor(x / road_length * 8) * (road_length / 8) for x in (a, b))
    grid = ring_distance(a[:, None], b[None, :], road_length)
    assert grid.shape == (clients, maps)
    rows = rng.integers(0, clients, pairs if clients and maps else 0)
    cols = rng.integers(0, maps, len(rows))
    got = ring_distance(a[rows], b[cols], road_length)
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in grid[rows, cols].tolist()]
    sub = np.unique(rows)
    assert np.array_equal(ring_distance(a[sub][:, None], b[None, :], road_length), grid[sub])


def test_step_wraps_around():
    stepped = step_positions(np.array([9990.0, 10.0]), np.array([20.0, 20.0]), 10.0, 10000.0)
    assert stepped.tolist() == [190.0, 210.0]


@given(
    st.lists(st.tuples(st.floats(0.0, 1e6), st.floats(0.0, 1e3)), max_size=50),
    st.floats(1e-3, 1e3),
    st.floats(1.0, 1e6),
)
def test_step_matches_scalar_arithmetic(rows, dt, road_length):
    # the per-vehicle step the vectorised one replaced, as its oracle
    position = [p % road_length for p, _ in rows]
    speed = [s for _, s in rows]
    want = [(p + s * dt) % road_length for p, s in zip(position, speed)]
    got = step_positions(
        np.array(position, dtype=np.float64), np.array(speed, dtype=np.float64), dt, road_length
    )
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]


def test_make_fleet_properties():
    cfg = SimConfig()
    position, speed, load = make_fleet(cfg, np.random.default_rng(3))
    assert len(position) > 0
    assert len(speed) == len(load) == len(position)
    assert (position.dtype, speed.dtype, load.dtype) == (np.float64, np.float64, np.int64)
    lo, hi = speed_to_mps(cfg.speed_min), speed_to_mps(cfg.speed_max)
    assert ((0.0 <= position) & (position < cfg.road_length)).all()
    assert ((lo <= speed) & (speed <= hi)).all()
    assert ((1 <= load) & (load <= cfg.load_max)).all()


def test_make_fleet_converts_each_speed_as_the_scalar_does():
    cfg = SimConfig()
    rng = np.random.default_rng(3)
    count = int(rng.poisson(cfg.road_length * cfg.vehicle_density))
    rng.uniform(0.0, cfg.road_length, count)
    kmh = rng.uniform(cfg.speed_min, cfg.speed_max, count).tolist()
    _, speed, _ = make_fleet(cfg, np.random.default_rng(3))
    assert [s.hex() for s in speed.tolist()] == [speed_to_mps(k).hex() for k in kmh]


def test_make_fleet_deterministic():
    cfg = SimConfig()
    a = [column.tolist() for column in make_fleet(cfg, np.random.default_rng(11))]
    b = [column.tolist() for column in make_fleet(cfg, np.random.default_rng(11))]
    assert a == b
    c = [column.tolist() for column in make_fleet(cfg, np.random.default_rng(12))]
    assert a != c
