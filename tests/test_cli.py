"""End-to-end checks for the command line interface."""
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mapsim.cli import main
from mapsim.config import SimConfig
from mapsim.engine import run_simulation

FAST = {"road_length": 2000.0, "total_time": 100.0, "rng_seed": 3}
# SimConfig's message for a link model whose delays overflow a run's sums
FAR_DELAY = "the link delay at half the road length"


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
    # every summary field once, in the order the summary is built
    summary = run_simulation(SimConfig.from_json(cfg)).summary
    lines = stdout.splitlines()
    assert lines[:-2] == [f"{key}: {value}" for key, value in summary.items()]
    assert lines[-2].startswith("elapsed_s: ")
    assert lines[-1] == f"artifacts: {out}"


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


@pytest.mark.parametrize(
    "data, why",
    [
        ({"road_length": -1.0}, "road_length must be positive"),
        ({"incumbent_retention": "false"}, "incumbent_retention must be true or false, got 'false'"),
        ({"load_max": 2**60}, f"load_max must be at most 2**53, got {2**60}"),
        (
            {"tx_power": 1e300, "noise_power": 1e-300, "total_time": 30.0},
            "the SNR within 1 m (tx_power / noise_power) overflows to infinity",
        ),
        ({"path_loss_exp": 50.0, "strategy": "independent-random"}, FAR_DELAY),
        (
            {"road_length": 1e6, "vehicle_density": 2e-5, "d_c": 1e-300, "a0": 1.0, "strategy": "distance-based"},
            FAR_DELAY,
        ),
        ({"a0": 1e300, "strategy": "independent-random"}, FAR_DELAY),
        ({"road_length": int("9" * 400)}, "road_length must be a finite number"),
        ({"speed_min": 1e308, "speed_max": 1e308}, "speed_max over one dt, plus road_length, overflows to infinity"),
        ({"handover_penalty": 1e308}, "the most one round charges, overflows to infinity"),
    ],
    ids=[
        "negative-length", "string-flag", "inexact-load", "near-snr-overflow",
        "steep-path-loss", "tiny-d_c", "huge-a0", "int-past-float-range",
        "step-overflow", "trust-charge-overflow",
    ],
)
def test_simulate_rejects_bad_config(tmp_path, capsys, data, why):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and why in err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("command", ["simulate", "compare"])
@pytest.mark.parametrize(
    "data, why",
    [
        ({"road_length": 1e20}, "gives 2.6e+18 identities, over 16384"),
        ({"sybil_clones": 10**12}, "sybil_clones must lie in 0..16384"),
        ({"sybil_clones": 10**400}, "sybil_clones must lie in 0..16384"),
        ({"vehicle_density": 1e20}, "gives 1.3e+24 identities, over 16384"),
        ({"road_length": 1e10, "vehicle_density": 1e300}, "gives inf identities, over 16384"),
    ],
    ids=["long-road", "many-clones", "clones-past-float-range", "dense-fleet", "inf-identities"],
)
def test_oversized_runs_rejected_before_running(tmp_path, capsys, monkeypatch, command, data, why):
    # each of these used to fail inside numpy, leaving its --out directory
    def no_run(*_args):
        raise AssertionError("ran a simulation")

    monkeypatch.setattr("mapsim.cli.run_simulation", no_run)
    monkeypatch.setattr("mapsim.cli.run_comparison", no_run)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "out"
    rc = main([command, "--config", str(cfg), "--out", str(out)] + (["--seeds", "1"] if command == "compare" else []))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and why in err
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


def test_verify_ledger_names_a_malformed_row(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
    path = out / "ledger.json"
    rows = json.loads(path.read_text())
    del rows[2]["round"]
    path.write_text(json.dumps(rows))
    capsys.readouterr()
    rc = main(["verify-ledger", str(path)])
    assert rc == 1
    assert capsys.readouterr().err == "ledger unreadable: row 2 has no 'round'\n"


def test_verify_ledger_rejects_a_short_hash(tmp_path, capsys):
    # bytes.fromhex reads "00" as a one-byte hash; the reader must name the
    # field, not leave verify to report a chain break
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
    path = out / "ledger.json"
    rows = json.loads(path.read_text())
    rows[1]["prev_hash"] = "00"
    path.write_text(json.dumps(rows))
    capsys.readouterr()
    rc = main(["verify-ledger", str(path)])
    assert rc == 1
    assert capsys.readouterr().err == "ledger unreadable: row 1 'prev_hash' is not 64 lowercase hex digits\n"


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
        if "teleport" in strategies:
            assert "strategy must be one of" in err


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


def test_compare_rejects_duplicate_entries(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "cmp"
    base = ["compare", "--config", str(cfg), "--out", str(out)]
    for flag, value in (("--seeds", "1,1"), ("--seeds", "1, 2,1"),
                        ("--strategies", "distance-based,distance-based")):
        rest = ["--seeds", "1"] if flag == "--strategies" else []
        rc = main(base + rest + [flag, value])
        assert rc == 2, value
        err = capsys.readouterr().err
        assert f"{flag} {value!r}" in err and "twice" in err
        assert err.count("\n") == 1
        assert not out.exists()


def test_compare_leaves_undefined_metrics_empty(tmp_path, capsys):
    # an empty fleet has no delay and no one to disconnect in any run
    cfg = write_config(tmp_path, vehicle_density=0.0, total_time=50.0)
    out = tmp_path / "cmp"
    argv = ["compare", "--config", str(cfg), "--seeds", "1,2", "--out", str(out)]
    assert main(argv + ["--strategies", "blockchain-multipath"]) == 0
    stdout = capsys.readouterr().out
    assert "avg_delay_s=n/a" in stdout and "disconnection_rate=n/a" in stdout
    assert "avg_handover=0±0" in stdout

    with open(out / "comparison.csv", newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    for metric in ("avg_delay_s", "disconnection_rate"):
        assert row[f"{metric}_mean"] == row[f"{metric}_std"] == ""
    assert float(row["avg_handover_mean"]) == 0.0

    svg = (out / "comparison.svg").read_text()
    drawn = set(re.findall(r'data-metric="([^"]+)"', svg))
    assert drawn == {"avg_handover", "max_handover", "min_handover", "zero_handover_vehicles"}


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


@pytest.mark.parametrize("command", ["simulate", "compare"])
@pytest.mark.parametrize("under", [False, True])
def test_unusable_out_rejected_before_running(tmp_path, capsys, monkeypatch, command, under):
    def no_run(*_args):
        raise AssertionError("ran a simulation")

    monkeypatch.setattr("mapsim.cli.run_simulation", no_run)
    monkeypatch.setattr("mapsim.cli.run_comparison", no_run)
    blocker = tmp_path / "file"
    blocker.write_text("")
    # an existing file, or a path below one
    out = blocker / "out" if under else blocker
    argv = [command, "--config", str(write_config(tmp_path)), "--out", str(out)]
    assert main(argv + (["--seeds", "1"] if command == "compare" else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"bad --out {str(out)!r}: ")
    assert err.count("\n") == 1
    assert blocker.read_text() == ""


@pytest.mark.parametrize("command, blocker", [
    # run_comparison's per-run directory is an existing file
    ("compare", "blockchain-multipath_seed1"),
    # write_run's ledger file is a directory, found after the other two are written
    ("simulate", "ledger.json"),
])
def test_artifact_write_failure_is_one_line_and_exit_2(tmp_path, capsys, command, blocker):
    out = tmp_path / "out"
    out.mkdir()
    if command == "compare":
        (out / blocker).write_text("")
    else:
        (out / blocker).mkdir()
    argv = [command, "--config", str(write_config(tmp_path, total_time=20.0)), "--out", str(out)]
    assert main(argv + (["--seeds", "1", "--strategies", "blockchain-multipath"] if command == "compare" else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"bad --out {str(out)!r}: ")
    assert blocker in err
    assert err.count("\n") == 1
    if command == "simulate":
        # no partial run: the other two artifacts are removed with the temporaries
        assert [p.name for p in out.iterdir()] == ["ledger.json"]


@pytest.mark.parametrize("level", ["bogus", "", "10"])
def test_bad_log_level_rejected(tmp_path, capsys, monkeypatch, level):
    monkeypatch.setenv("MAPSIM_LOG_LEVEL", level)
    assert main(["simulate", "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"bad MAPSIM_LOG_LEVEL {level!r}: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_log_level_names_accepted_in_any_case(tmp_path):
    # a fresh interpreter, since pytest's own log handlers make
    # logging.basicConfig a no-op in this one
    cfg = write_config(tmp_path, total_time=20.0)
    argv = [sys.executable, "-m", "mapsim.cli", "simulate", "--config", str(cfg)]
    src = str(Path(__file__).resolve().parents[1] / "src")
    for level, debug in (("debug", True), ("Info", False)):
        env = {**os.environ, "PYTHONPATH": src, "MAPSIM_LOG_LEVEL": level}
        done = subprocess.run(argv + ["--out", str(tmp_path / level)], env=env,
                              capture_output=True, text=True, check=False)
        assert done.returncode == 0, done.stderr
        assert ("DEBUG:mapsim:round 0: elected" in done.stderr) == debug
