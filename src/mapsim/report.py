"""File outputs for a run: per round CSV, summary JSON, ledger JSON.

csv.writer writes float cells with repr, so a parse round-trips to the
identical value, and None as an empty cell. Summary JSON is sorted and stable
so identical runs produce identical bytes: json.dumps(summary,
sort_keys=True, indent=2) plus a newline. Wall clock time deliberately stays
out of the files.
"""

from __future__ import annotations

import csv
import json
import os
from operator import attrgetter
from pathlib import Path
from typing import Any

from .engine import RoundMetrics, SimulationReport


# (column, RoundMetrics field) in file order
ROUND_COLUMNS = (
    ("round", "round_index"),
    ("vehicle_count", "vehicle_count"),
    ("elected_maps", "elected_maps"),
    ("flagged_count", "flagged_count"),
    ("avg_handover", "avg_handover"),
    ("max_handover", "max_handover"),
    ("min_handover", "min_handover"),
    ("avg_delay_s", "avg_delay_s"),
    ("disconnected", "disconnected"),
)


def write_rounds_csv(path: Any, rounds: list[RoundMetrics]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([column for column, _ in ROUND_COLUMNS])
        writer.writerows(map(attrgetter(*[name for _, name in ROUND_COLUMNS]), rounds))


def write_summary_json(path: Any, summary: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")


def write_run(out_dir: Any, report: SimulationReport) -> Path:
    """Write rounds.csv, summary.json and ledger.json under out_dir, all three or none.

    Each is written under a temporary name in out_dir, and all three are
    renamed into place once written. A failure removes the temporaries and
    the artifacts already renamed, then propagates.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = ("rounds.csv", "summary.json", "ledger.json")
    # where each artifact lies: its temporary name, then its own once renamed
    made = [out / f".{name}.tmp" for name in names]
    try:
        write_rounds_csv(made[0], report.round_metrics)
        write_summary_json(made[1], report.summary)
        report.ledger.to_json(made[2])
        for i, name in enumerate(names):
            os.replace(made[i], out / name)
            made[i] = out / name
    except BaseException:
        for path in made:
            path.unlink(missing_ok=True)
        raise
    return out
