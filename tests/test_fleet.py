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
