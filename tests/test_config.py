import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapsim.config import MAX_IDENTITIES, MAX_ROUNDS, STRATEGIES, SimConfig, speed_to_mps
from mapsim.engine import initial_state, run_round, run_simulation


def test_defaults_are_valid():
    cfg = SimConfig()
    assert cfg.rounds() == 100
    assert cfg.strategy == "blockchain-multipath"
    assert cfg.strategy in STRATEGIES


def test_zero_total_time_means_zero_rounds():
    assert SimConfig(total_time=0.0).rounds() == 0


def test_partial_round_does_not_run():
    assert SimConfig(total_time=5.0).rounds() == 0
    assert SimConfig(total_time=15.0).rounds() == 1


@pytest.mark.parametrize(
    "changes",
    [
        {"dt": 0.0},
        {"dt": -1.0},
        {"total_time": -1.0},
        {"road_length": 0.0},
        {"speed_min": 90.0},
        {"map_fraction": 0.0},
        {"map_fraction": 1.5},
        {"trust_threshold": 101.0},
        {"trust_initial": -5.0},
        {"max_paths": 0},
        {"load_max": 0},
        {"noise_power": 0.0},
        {"sybil_handover_prob": 1.5},
        {"strategy": "psychic"},
        {"road_length": float("inf")},
        {"total_time": float("inf")},
        {"a0": float("nan")},
        {"max_paths": 1.5},
        {"sybil_clones": 1.5},
        {"load_max": True},
        {"rng_seed": 1.5},
        {"rng_seed": -1},
        {"b_cap": "2"},
        {"incumbent_retention": "false"},
        {"incumbent_retention": 1},
        {"dt": 1e-300},
        {"total_time": 1e308, "dt": 1e-10},
        {"total_time": 1e7 + 10.0},
        {
            "road_length": 1e84,
            "vehicle_density": 1e-83,
            "total_time": 20.0,
            "strategy": "distance-based",
            "rng_seed": 1,
        },
        # the SNR within 1 m, tx_power / noise_power, overflows to inf
        {"tx_power": 1e300, "noise_power": 1e-300, "total_time": 30.0},
        # the delay at half the road length, summed over a run, overflows
        {"a0": 1e300},
        {"b0": 1e300},
        {"d_c": 1e-300},
        {"sinr_threshold": 1e300},
    ],
)
def test_validation_rejects(changes):
    with pytest.raises(ValueError):
        SimConfig(**changes)


@pytest.mark.parametrize("load_max", [2**53 + 1, 2**60, 2**63 - 1, 2**63, 2**64])
def test_load_max_past_exact_float64_is_rejected(load_max):
    # loads pass through the float64 election roster
    with pytest.raises(ValueError, match=rf"load_max must be at most 2\*\*53, got {load_max}"):
        SimConfig(load_max=load_max)
    assert SimConfig(load_max=2**53).load_max == 2**53


# accepted configs at the ends of their fields' ranges; the largest fleet
# MAX_IDENTITIES accepts is left out as too slow and too large for the suite
EDGE_CONFIGS = [
    {"road_length": 1e-300, "vehicle_density": 1e300},
    {"speed_min": 1e300, "speed_max": 1e300},
    {"path_loss_exp": 1e-300},
    # the farthest-link delay rule's extremes at the default radio constants
    {"d_c": 1.2826677504057428e-283},
    {"a0": 1.7718752747999995e284},
    *({name: 9.979201547673597e284} for name in ("b0", "sinr_threshold")),
    *({name: 1e300} for name in ("delay_threshold", "bandwidth_min", "handover_penalty", "stability_reward")),
    {"b_cap": 1e-300},
    {"b_cap": 1e300},
    {"sinr_threshold": 1e-300},
    {"dt": 1e300, "total_time": 1e300},
]


@pytest.mark.parametrize("changes", EDGE_CONFIGS, ids=lambda c: ",".join(f"{k}={v:g}" for k, v in c.items()))
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_edge_configs_run_without_warnings(changes, strategy):
    cfg = SimConfig(**{"total_time": 30.0, **changes, "strategy": strategy})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_simulation(cfg)
    assert 1 <= len(report.round_metrics) == cfg.rounds() <= 3
    for m in report.round_metrics:
        assert m.vehicle_count == m.elected_maps + m.attached + m.disconnected + m.flagged_count
    assert report.ledger.verify()
    for key, value in report.summary.items():
        assert not isinstance(value, float) or math.isfinite(value), key


def test_identity_bound_is_inclusive():
    # road_length x vehicle_density x (1 + sybil_fraction x sybil_clones)
    assert MAX_IDENTITIES == 2**14
    SimConfig(road_length=2.0**14, vehicle_density=1.0, sybil_fraction=0.0)
    SimConfig(road_length=2.0**12, vehicle_density=1.0, sybil_fraction=0.25, sybil_clones=12)
    SimConfig(vehicle_density=1.0)  # 13,000 expected on the default road
    SimConfig(sybil_fraction=0.0, sybil_clones=MAX_IDENTITIES)
    for changes, why in (
        ({"road_length": 2.0**14, "vehicle_density": np.nextafter(1.0, 2.0), "sybil_fraction": 0.0}, "1.64e+04"),
        ({"road_length": 2.0**12, "vehicle_density": 1.0, "sybil_fraction": 0.25, "sybil_clones": 13}, "1.74e+04"),
    ):
        with pytest.raises(ValueError, match=rf"gives {re.escape(why)} identities, over 16384$"):
            SimConfig(**changes)
    with pytest.raises(ValueError, match=r"^sybil_clones must lie in 0\.\.16384$"):
        SimConfig(sybil_fraction=0.0, sybil_clones=MAX_IDENTITIES + 1)


def test_round_bound_is_inclusive():
    assert SimConfig(total_time=1e7).rounds() == MAX_ROUNDS


def test_int_stays_valid_in_float_fields():
    cfg = SimConfig(road_length=2000, total_time=100, b_cap=2)
    assert cfg.rounds() == 10


def test_float_fields_hold_python_floats():
    cfg = SimConfig(road_length=2000, handover_penalty=8, b_cap=np.float64(2.0))
    assert all(type(getattr(cfg, f)) is float for f, kind in cfg.__annotations__.items() if kind == "float")
    assert cfg.to_dict() == SimConfig(road_length=2000.0, handover_penalty=8.0).to_dict()


@pytest.mark.parametrize("penalty", [10**20, 2**62], ids=["10**20", "2**62"])
def test_int_penalty_runs_as_its_float(penalty):
    # an int penalty reaching the trust update as int64 overflowed (10**20)
    # or wrapped to a reward on two handovers (2**62); stored as a float it
    # runs exactly as the float-valued config does
    small = dict(road_length=2000.0, total_time=100.0, max_paths=4, incumbent_retention=False, rng_seed=3)
    got = run_simulation(SimConfig(**small, handover_penalty=penalty))
    want = run_simulation(SimConfig(**small, handover_penalty=float(penalty)))
    assert got.summary == want.summary
    assert [(b.digest, b.payload_obj()) for b in got.ledger.blocks] == [
        (b.digest, b.payload_obj()) for b in want.ledger.blocks
    ]
    # a handover costs an honest vehicle its whole score, so some are flagged
    assert want.summary["false_positive_rate"] > 0


@pytest.mark.parametrize("value", [10**400, -(10**400), 2**1024], ids=["10**400", "-10**400", "2**1024"])
def test_int_too_large_for_a_float_is_rejected(value):
    with pytest.raises(ValueError, match="road_length must be a finite number"):
        SimConfig(road_length=value)


@pytest.mark.parametrize("data", [[1, 2], "x", None])
def test_from_dict_rejects_non_object(data):
    with pytest.raises(ValueError, match="config must be a JSON object"):
        SimConfig.from_dict(data)


def test_dict_round_trip():
    cfg = SimConfig(rng_seed=9, strategy="distance-based", b_cap=1.5)
    again = SimConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown config keys"):
        SimConfig.from_dict({"warp_factor": 9})


def test_from_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"rng_seed": 5, "total_time": 100.0}))
    cfg = SimConfig.from_json(path)
    assert cfg.rng_seed == 5
    assert cfg.rounds() == 10


def test_speed_conversion_exact():
    assert speed_to_mps(72.0) == 20.0
    assert speed_to_mps(36.0) == 10.0
    # 60 km/h over a 10 s step covers one sixth of a kilometre
    assert speed_to_mps(60.0) * 10.0 == pytest.approx(600000.0 / 3600.0, rel=1e-12)


def test_replace_revalidates():
    cfg = SimConfig()
    with pytest.raises(ValueError):
        cfg.replace(dt=0.0)


@st.composite
def small_configs(draw):
    """Valid configs on a tiny road that run at most five rounds."""
    dt = draw(st.floats(0.5, 20.0))
    speed_min = draw(st.floats(0.0, 150.0))
    return SimConfig(
        road_length=draw(st.floats(10.0, 2000.0)),
        vehicle_density=draw(st.floats(0.0, 0.02)),
        speed_min=speed_min,
        speed_max=draw(st.floats(speed_min, 200.0)),
        dt=dt,
        total_time=dt * draw(st.integers(0, 5)),
        path_loss_exp=draw(st.floats(1.0, 6.0)),
        bandwidth_min=draw(st.floats(0.0, 4.0)),
        b_cap=draw(st.floats(0.1, 4.0)),
        delay_threshold=draw(st.floats(1.0, 40.0)),
        a0=draw(st.floats(0.0, 1.0)),
        b0=draw(st.floats(0.0, 20.0)),
        max_paths=draw(st.integers(1, 4)),
        trust_threshold=draw(st.floats(0.0, 100.0)),
        trust_initial=draw(st.floats(0.0, 100.0)),
        handover_penalty=draw(st.floats(0.0, 60.0)),
        map_fraction=draw(st.floats(0.01, 1.0)),
        sybil_fraction=draw(st.floats(0.0, 1.0)),
        sybil_clones=draw(st.integers(0, 3)),
        incumbent_retention=draw(st.booleans()),
        rng_seed=draw(st.integers(0, 2**32)),
        strategy=draw(st.sampled_from(STRATEGIES)),
    )


@settings(max_examples=60, deadline=None)
@given(cfg=small_configs())
def test_valid_small_configs_run_and_conserve(cfg):
    rng = np.random.default_rng(cfg.rng_seed)
    state = initial_state(cfg, rng)
    assert cfg.rounds() <= 5
    bounded = cfg.strategy in ("blockchain-multipath", "sequence-based")
    for r in range(cfg.rounds()):
        state, m, _ = run_round(state, r, cfg, rng)
        assert m.vehicle_count == m.elected_maps + m.attached + m.disconnected + m.flagged_count
        for pa in state.last_assignments.values():
            assert len(pa.paths) <= (cfg.max_paths if bounded else 1)
            if bounded:
                for s in pa.stats:
                    assert s.total_delay < cfg.delay_threshold
                    assert s.bandwidth >= cfg.bandwidth_min


@st.composite
def invalid_changes(draw, cfg):
    """One change that puts cfg outside what SimConfig accepts."""
    bad_float = st.sampled_from([math.inf, -math.inf, math.nan])
    return draw(
        st.one_of(
            st.fixed_dictionaries({"road_length": st.floats(max_value=0.0) | bad_float}),
            st.fixed_dictionaries({"dt": st.floats(max_value=0.0) | bad_float}),
            st.fixed_dictionaries(
                {"dt": st.floats(1e-300, 1e-7), "total_time": st.floats(1.0, 1e6)}
            ),
            st.fixed_dictionaries({"total_time": st.floats(max_value=-1e-300) | bad_float}),
            st.fixed_dictionaries({"speed_min": st.floats(cfg.speed_max, 1e6, exclude_min=True)}),
            st.fixed_dictionaries({"path_loss_exp": st.floats(2000.0, 1e6)}),
            st.fixed_dictionaries({"noise_power": st.floats(max_value=0.0)}),
            st.fixed_dictionaries({"max_paths": st.integers(max_value=0) | st.floats()}),
            st.fixed_dictionaries({"map_fraction": st.floats(1.0, exclude_min=True)}),
            st.fixed_dictionaries({"trust_threshold": st.floats(100.0, exclude_min=True)}),
            st.fixed_dictionaries({"sybil_clones": st.integers(max_value=-1) | st.booleans()}),
            st.fixed_dictionaries({"rng_seed": st.integers(max_value=-1)}),
            st.fixed_dictionaries({"load_max": st.integers(min_value=2**53 + 1)}),
            st.fixed_dictionaries({"incumbent_retention": st.integers() | st.text() | st.none()}),
            st.fixed_dictionaries({"strategy": st.text().filter(lambda s: s not in STRATEGIES)}),
        )
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_invalid_configs_are_rejected(data):
    cfg = data.draw(small_configs())
    changes = data.draw(invalid_changes(cfg))
    with pytest.raises(ValueError):
        cfg.replace(**changes)
