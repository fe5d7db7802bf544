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
    v = Vehicle(0, 9990.0, 20.0, 1)
    stepped = step_positions([v], 10.0, 10000.0)[0]
    assert stepped.position == 190.0
    assert stepped.speed == 20.0


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
