import json

import pytest

from mapsim.config import SimConfig
from mapsim.engine import run_simulation
from mapsim.report import read_rounds_csv, write_rounds_csv, write_run, write_summary_json

CFG = SimConfig(road_length=2000.0, total_time=200.0, rng_seed=9)


def test_csv_round_trip_exact(tmp_path):
    report = run_simulation(CFG)
    path = tmp_path / "rounds.csv"
    write_rounds_csv(path, report.round_metrics)
    back = read_rounds_csv(path)
    assert len(back) == len(report.round_metrics)
    for row, m in zip(back, report.round_metrics):
        assert row == {
            "round": m.round_index,
            "vehicle_count": m.vehicle_count,
            "elected_maps": m.elected_maps,
            "flagged_count": m.flagged_count,
            "avg_handover": m.avg_handover,
            "max_handover": m.max_handover,
            "min_handover": m.min_handover,
            "avg_delay_s": m.avg_delay_s,
            "disconnected": m.disconnected,
        }


def test_csv_only_delay_cell_may_be_empty(tmp_path):
    header = "round,vehicle_count,elected_maps,flagged_count,avg_handover,"
    header += "max_handover,min_handover,avg_delay_s,disconnected\n"
    path = tmp_path / "rounds.csv"
    path.write_text(header + "0,5,1,0,0.0,0,0,,4\n")
    assert read_rounds_csv(path)[0]["avg_delay_s"] is None
    path.write_text(header + "0,5,1,0,0.0,0,0,0.5,\n")
    with pytest.raises(ValueError):
        read_rounds_csv(path)


def test_summary_matches_csv_fold(tmp_path):
    report = run_simulation(CFG)
    path = tmp_path / "rounds.csv"
    write_rounds_csv(path, report.round_metrics)
    rows = read_rounds_csv(path)

    num = 0.0
    conn = 0
    served = 0
    disc = 0
    for row in rows:
        clients = row["vehicle_count"] - row["elected_maps"] - row["flagged_count"]
        served += clients
        disc += row["disconnected"]
        if row["avg_delay_s"] is not None:
            n = clients - row["disconnected"]
            num += row["avg_delay_s"] * n
            conn += n
    assert conn > 0
    assert report.summary["avg_delay_s"] == num / conn
    assert report.summary["disconnection_rate"] == disc / served


def test_summary_json_stable_bytes(tmp_path):
    report = run_simulation(CFG)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    write_summary_json(a, report.summary)
    write_summary_json(b, report.summary)
    assert a.read_bytes() == b.read_bytes()
    data = json.loads(a.read_text())
    assert "elapsed_s" not in data
    assert list(data) == sorted(data)


def test_write_run_emits_artifacts(tmp_path):
    report = run_simulation(CFG)
    out = tmp_path / "run"
    write_run(out, report)
    assert (out / "rounds.csv").is_file()
    assert (out / "summary.json").is_file()
    assert (out / "ledger.json").is_file()
    summary = json.loads((out / "summary.json").read_text())
    assert summary == json.loads(json.dumps(report.summary))
