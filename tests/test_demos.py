"""Each demo runs to the end and prints its key line.

The demos are copied to a temporary directory first, so their `out/`
files land there and not in the checkout.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

KEY_LINES = {
    "01_single_run.py": "ledger blocks        : 100",
    "02_strategy_comparison.py": (
        "strategy                avg handover  max handover   avg delay s  disconnected"
    ),
    "03_sybil_detection.py": "excluded identities in the last block: True",
    "04_ledger_audit.py": (
        "after forging block 7: verify_chain() -> False, chain_break() -> (7, 'digest')"
    ),
}


def test_demos_run(tmp_path):
    demos = tmp_path / "demos"
    shutil.copytree(ROOT / "demos", demos, ignore=shutil.ignore_patterns("out"))
    assert sorted(p.name for p in demos.glob("*.py")) == sorted(KEY_LINES)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for name, line in KEY_LINES.items():
        done = subprocess.run(
            [sys.executable, str(demos / name)],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, (name, done.stderr)
        assert line in done.stdout.splitlines(), (name, done.stdout)
    assert (demos / "out").is_dir()
