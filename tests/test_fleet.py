import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from mapsim.config import SimConfig, speed_to_mps
from mapsim.fleet import make_fleet, ring_distance, ring_window, step_positions


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


@given(
    road_length=st.one_of(st.floats(1e-3, 1e9), st.sampled_from([1.0, 3.0, 10000.0])),
    data=st.data(),
)
def test_ring_window_holds_every_site_in_reach_once_by_index(road_length, data):
    # growth reads each vehicle's MAPs in reach from these rows in place of
    # the full grid, so a row must miss no site under reach and keep index
    # (MAP ident) order for argmin's lowest-ident tie rule
    half = road_length / 2
    edges = [0.0, half, road_length, np.nextafter(road_length, 0.0), np.nextafter(half, 0.0)]
    point = st.one_of(st.floats(0.0, road_length), st.sampled_from(edges))
    points = np.array(data.draw(st.lists(point, max_size=12)), dtype=np.float64)
    # few distinct site positions, so that sites stack
    spots = data.draw(st.lists(point, min_size=1, max_size=4))
    sites = np.array(data.draw(st.lists(st.sampled_from(spots), max_size=15)), dtype=np.float64)
    reach = data.draw(st.one_of(
        st.floats(0.0, road_length), st.sampled_from([0.0, half, np.nextafter(half, 0.0), road_length, math.inf])
    ))
    k = len(sites)
    cols, dist = ring_window(points, sites, reach, road_length)
    assert cols.shape == dist.shape and cols.shape[0] == len(points) and cols.shape[1] >= 1
    grid = ring_distance(points[:, None], sites[None, :], road_length)
    for i in range(len(points)):
        pad = cols[i] == k
        real = cols[i][~pad]
        # pads last at inf, each site at most once and ascending
        assert not pad[: len(real)].any() and dist[i][pad].tolist() == [math.inf] * int(pad.sum())
        assert (np.diff(real) > 0).all() and ((0 <= real) & (real < k)).all()
        assert set((grid[i] < reach).nonzero()[0].tolist()) <= set(real.tolist())
        assert [x.hex() for x in dist[i][~pad].tolist()] == [x.hex() for x in grid[i][real].tolist()]
        if reach >= half:
            assert real.tolist() == list(range(k))
        else:
            # a window, not the ring: no site far past reach
            assert (grid[i][real] <= reach + road_length * 1e-8).all()


def test_ring_window_edge_cases():
    cols, dist = ring_window(np.array([0.0, 5.0]), np.zeros(0), 2.0, 10.0)
    assert cols.tolist() == [[0], [0]] and dist.tolist() == [[math.inf], [math.inf]]
    cols, dist = ring_window(np.zeros(0), np.array([0.0, 9.5]), 2.0, 10.0)
    assert cols.shape == dist.shape == (0, 1)
    # across the wrap, both ways, from exactly 0
    cols, dist = ring_window(np.array([0.0, 9.0]), np.array([9.5, 0.0, 5.0]), 2.0, 10.0)
    assert cols.tolist() == [[0, 1], [0, 1]] and dist.tolist() == [[0.5, 0.0], [0.5, 1.0]]
    # sites one step under reach across the wrap, where the tiled copy
    # rounds past the unwidened arc
    for road_length, p, site in ((772848.3723411694, 16523.634772226498, 766177.600136755),
                                 (209341.49908382737, 11210.80475006277, 181179.9865968999)):
        reach = np.nextafter(ring_distance(p, site, road_length), math.inf)
        cols, _ = ring_window(np.array([p]), np.array([site]), reach, road_length)
        assert cols.tolist() == [[0]]


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
