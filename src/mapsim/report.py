"""File outputs for a run: per round CSV, summary JSON, ledger JSON.

csv.writer writes float cells with repr, so a parse round-trips to the
identical value, and None as an empty cell. Summary JSON is sorted and stable
so identical runs produce identical bytes: those of json.dump(summary,
sort_keys=True, indent=2) plus a newline, rendered by ledger.indented as
ledger.json is. Wall clock time deliberately stays out of the files.
"""

from __future__ import annotations

import csv
from operator import attrgetter
from pathlib import Path
from typing import Any

from .engine import RoundMetrics, SimulationReport
from .ledger import indented

def _optional_float(cell: str) -> float | None:
    return float(cell) if cell else None


# (column, RoundMetrics field, parser) in file order; only avg_delay_s may be
# empty, every other parser raises on an empty cell
ROUND_COLUMNS = (
    ("round", "round_index", int),
    ("vehicle_count", "vehicle_count", int),
    ("elected_maps", "elected_maps", int),
    ("flagged_count", "flagged_count", int),
    ("avg_handover", "avg_handover", float),
    ("max_handover", "max_handover", int),
    ("min_handover", "min_handover", int),
    ("avg_delay_s", "avg_delay_s", _optional_float),
    ("disconnected", "disconnected", int),
)


def write_rounds_csv(path: Any, rounds: list[RoundMetrics]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([column for column, _, _ in ROUND_COLUMNS])
        writer.writerows(map(attrgetter(*[name for _, name, _ in ROUND_COLUMNS]), rounds))


def read_rounds_csv(path: Any) -> list[dict[str, Any]]:
    """Parse a rounds file back into typed dicts."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [
            {column: parse(row[column]) for column, _, parse in ROUND_COLUMNS}
            for row in csv.DictReader(fh)
        ]


def write_summary_json(path: Any, summary: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(indented(summary, "") + "\n")


def write_run(out_dir: Any, report: SimulationReport) -> Path:
    """Write rounds.csv, summary.json and ledger.json under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_rounds_csv(out / "rounds.csv", report.round_metrics)
    write_summary_json(out / "summary.json", report.summary)
    report.ledger.to_json(out / "ledger.json")
    return out
