import csv
import json
import re
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mapsim.config import SimConfig
from mapsim.engine import RoundMetrics, run_simulation
from mapsim.ledger import Ledger
from mapsim.report import ROUND_COLUMNS, write_rounds_csv, write_run, write_summary_json

CFG = SimConfig(road_length=2000.0, total_time=200.0, rng_seed=9)


def _optional_float(cell):
    return float(cell) if cell else None


# each column's parser, int unless named; only avg_delay_s may be empty,
# every other parser raises on an empty cell
PARSERS = {"avg_handover": float, "avg_delay_s": _optional_float}


def read_rounds_csv(path):
    """Parse a rounds file back into typed dicts."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [
            {column: PARSERS.get(column, int)(row[column]) for column, _ in ROUND_COLUMNS}
            for row in csv.DictReader(fh)
        ]


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


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _cell_rounds_csv(path, rounds):
    """The rounds.csv writer as it was: one formatted string per cell."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([column for column, _ in ROUND_COLUMNS])
        for m in rounds:
            writer.writerow([_cell(getattr(m, name)) for _, name in ROUND_COLUMNS])


COUNTS = st.integers(0, 2**70)
ROUND_METRICS = st.builds(
    RoundMetrics,
    round_index=COUNTS,
    vehicle_count=COUNTS,
    elected_maps=COUNTS,
    flagged_count=COUNTS,
    avg_handover=st.floats(),
    max_handover=COUNTS,
    min_handover=COUNTS,
    avg_delay_s=st.none() | st.floats(),
    disconnected=COUNTS,
    attached=COUNTS,
)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(ROUND_METRICS, max_size=6))
@example([])
@example(
    [
        RoundMetrics(0, 10**30, 1, 0, -0.0, 2**64, 0, None, 3, 7),
        RoundMetrics(1, 5, 2, 1, 1e-07, 3, 1, -0.0, 0, 2),
        RoundMetrics(2, 5, 2, 1, 0.1 + 0.2, 3, 1, 1e-07, 0, 2),
    ]
)
def test_csv_bytes_equal_the_per_cell_writer(tmp_path, rounds):
    ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
    write_rounds_csv(ours, rounds)
    _cell_rounds_csv(theirs, rounds)
    assert ours.read_bytes() == theirs.read_bytes()


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


def test_summary_json_bytes_equal_json_dump(tmp_path):
    extra = {"avg_delay_s": None, "nan": float("nan"), "inf": -float("inf"), "neg_zero": -0.0, "flag": True}
    summary = {**run_simulation(CFG).summary, **extra}
    path = tmp_path / "summary.json"
    write_summary_json(path, summary)
    assert path.read_text(encoding="utf-8") == json.dumps(summary, sort_keys=True, indent=2) + "\n"


def test_write_run_emits_artifacts(tmp_path):
    report = run_simulation(CFG)
    out = tmp_path / "run"
    write_run(out, report)
    assert (out / "rounds.csv").is_file()
    assert (out / "summary.json").is_file()
    assert (out / "ledger.json").is_file()
    summary = json.loads((out / "summary.json").read_text())
    assert summary == json.loads(json.dumps(report.summary))
    # no temporary outlives the write
    assert {p.name for p in out.iterdir()} == {"rounds.csv", "summary.json", "ledger.json"}


@pytest.mark.parametrize("blocker", ["rounds.csv", "summary.json", "ledger.json", None])
def test_a_failed_write_leaves_no_artifact(tmp_path, blocker):
    # the blocker directory fails its artifact's rename, after all three are
    # written; with none, the last block's payload fails to decode once
    # ledger.json's temporary holds the rows before it
    report = run_simulation(CFG.replace(total_time=20.0))
    out = tmp_path / "run"
    out.mkdir()
    if blocker:
        (out / blocker).mkdir()
        with pytest.raises(OSError):
            write_run(out, report)
        assert [p.name for p in out.iterdir()] == [blocker]
        assert not any((out / blocker).iterdir())
        return
    blocks = report.ledger.blocks
    assert len(blocks) > 1
    report.ledger = Ledger(blocks[:-1] + [replace(blocks[-1], payload=b"[1")])
    with pytest.raises(json.JSONDecodeError) as loads_error:
        json.loads("[1")
    with pytest.raises(json.JSONDecodeError, match=re.escape(str(loads_error.value))):
        write_run(out, report)
    assert not any(out.iterdir())
