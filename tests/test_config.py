import json

import pytest

from mapsim import STRATEGIES, SimConfig, speed_to_mps


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
    ],
)
def test_validation_rejects(changes):
    with pytest.raises(ValueError):
        SimConfig(**changes)


def test_int_stays_valid_in_float_fields():
    cfg = SimConfig(road_length=2000, total_time=100, b_cap=2)
    assert cfg.rounds() == 10


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
