"""End-to-end checks for the command line interface."""
import csv
import json
import re

import pytest

from mapsim.cli import main

FAST = {"road_length": 2000.0, "total_time": 100.0, "rng_seed": 3}


def write_config(tmp_path, **extra):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**FAST, **extra}))
    return path


def test_simulate_writes_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert (out / "rounds.csv").is_file()
    assert (out / "summary.json").is_file()
    assert (out / "ledger.json").is_file()
    stdout = capsys.readouterr().out
    for key in ("avg_handover", "avg_delay_s", "sybil_detection_rate"):
        assert key in stdout


def test_simulate_seed_and_strategy_override(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    rc = main(
        [
            "simulate",
            "--config",
            str(cfg),
            "--seed",
            "11",
            "--strategy",
            "distance-based",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 11
    assert summary["strategy"] == "distance-based"
    assert summary["flagged_count"] == 0


def test_simulate_rejects_bad_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"road_length": -1.0}))
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_simulate_rejects_unbounded_round_count(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dt": 1e-300}))
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "rounds" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_simulate_rejects_missing_config(tmp_path, capsys):
    rc = main(
        ["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "out")]
    )
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_verify_ledger_accepts_fresh_run(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    rc = main(["verify-ledger", str(out / "ledger.json")])
    assert rc == 0
    assert "ledger OK" in capsys.readouterr().out


def test_verify_ledger_flags_tampering(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    path = out / "ledger.json"
    doc = json.loads(path.read_text())
    doc[1]["payload"]["round"] = 999
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["verify-ledger", str(path)])
    assert rc == 1
    # the edited payload no longer matches block 1's stored digest
    assert capsys.readouterr().out == "ledger INVALID: block 1 fails digest\n"


def test_verify_ledger_missing_file(tmp_path, capsys):
    rc = main(["verify-ledger", str(tmp_path / "absent.json")])
    assert rc == 1
    assert "unreadable" in capsys.readouterr().err


def test_compare_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "cmp"
    rc = main(
        [
            "compare",
            "--config",
            str(cfg),
            "--seeds",
            "1,2",
            "--strategies",
            "blockchain-multipath,distance-based",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert (out / "comparison.csv").is_file()
    assert (out / "comparison.svg").is_file()
    for strategy in ("blockchain-multipath", "distance-based"):
        for seed in (1, 2):
            assert (out / f"{strategy}_seed{seed}" / "summary.json").is_file()

    with open(out / "comparison.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    by_strategy = {r["strategy"]: r for r in rows}
    assert set(by_strategy) == {"blockchain-multipath", "distance-based"}
    # the comparison shows how many served vehicle-rounds went without a path
    for strategy, row in by_strategy.items():
        summaries = [
            json.loads((out / f"{strategy}_seed{seed}" / "summary.json").read_text())
            for seed in (1, 2)
        ]
        for metric in ("disconnection_rate", "zero_handover_vehicles"):
            mean = sum(s[metric] for s in summaries) / 2
            assert float(row[f"{metric}_mean"]) == pytest.approx(mean, rel=1e-12)
    assert float(by_strategy["distance-based"]["disconnection_rate_mean"]) == 0.0
    assert float(by_strategy["blockchain-multipath"]["disconnection_rate_mean"]) > 0.0
    stdout = capsys.readouterr().out.splitlines()
    assert stdout[0].startswith("blockchain-multipath: avg_handover=")
    assert all("disconnection_rate=" in line for line in stdout[:2])

    svg = (out / "comparison.svg").read_text()
    assert svg.startswith("<svg")
    bars = re.findall(
        r'data-metric="([^"]+)" data-strategy="([^"]+)" data-value="([^"]+)"', svg
    )
    assert {metric for metric, _, _ in bars} == {
        "avg_handover", "max_handover", "min_handover", "avg_delay_s",
        "disconnection_rate", "zero_handover_vehicles",
    }
    for metric, strategy, value in bars:
        assert float(value) == float(by_strategy[strategy][f"{metric}_mean"])


def test_compare_rejects_unknown_strategy(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "cmp"
    # an unknown name, and a list that names no strategy at all
    for strategies in ("teleport", "blockchain-multipath,teleport", ",", " , "):
        argv = ["compare", "--config", str(cfg), "--seeds", "1", "--out", str(out)]
        rc = main(argv + ["--strategies", strategies])
        assert rc == 2, strategies
        err = capsys.readouterr().err
        assert f"--strategies {strategies!r}" in err
        assert err.count("\n") == 1
        assert not out.exists()


def test_compare_rejects_bad_seed_list(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "cmp"
    # a malformed entry, and a list that names no seed at all
    for seeds in ("1,x", "", ",", " , "):
        rc = main(["compare", "--config", str(cfg), "--seeds", seeds, "--out", str(out)])
        assert rc == 2, seeds
        err = capsys.readouterr().err
        assert "--seeds" in err
        assert err.count("\n") == 1
        assert not out.exists()


def test_simulate_rejects_negative_seed(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg), "--seed", "-1", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "rng_seed must be non-negative" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [[], ["not-a-command"]])
def test_bad_invocations_exit_nonzero(argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
