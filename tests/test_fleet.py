import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from mapsim import SimConfig, Vehicle, make_fleet, ring_distance, speed_to_mps, step_positions


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
    fleet = [Vehicle(i, p % road_length, s, 1) for i, (p, s) in enumerate(rows)]
    want = [(v.position + v.speed * dt) % road_length for v in fleet]
    got = step_positions(
        np.array([v.position for v in fleet], dtype=np.float64),
        np.array([v.speed for v in fleet], dtype=np.float64),
        dt,
        road_length,
    )
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]


def test_make_fleet_properties():
    cfg = SimConfig()
    fleet = make_fleet(cfg, np.random.default_rng(3))
    assert len(fleet) > 0
    lo, hi = speed_to_mps(cfg.speed_min), speed_to_mps(cfg.speed_max)
    for i, v in enumerate(fleet):
        assert v.ident == i
        assert 0.0 <= v.position < cfg.road_length
        assert lo <= v.speed <= hi
        assert 1 <= v.load <= cfg.load_max


def test_make_fleet_deterministic():
    cfg = SimConfig()
    a = make_fleet(cfg, np.random.default_rng(11))
    b = make_fleet(cfg, np.random.default_rng(11))
    assert a == b
    c = make_fleet(cfg, np.random.default_rng(12))
    assert a != c
