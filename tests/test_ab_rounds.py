"""tools/ab_rounds.py, run on this checkout against itself."""

import subprocess
import sys
from pathlib import Path

import pytest

from mapsim import STRATEGIES

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab_rounds.py"


def test_ab_rounds_pairs_a_checkout_with_itself():
    run = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--rounds", "2"], capture_output=True, text=True, check=True
    )
    lines = run.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == [*STRATEGIES, "all"]
    for line in lines[:-2]:
        assert ": 2 paired rounds, parent " in line
    assert f": {2 * len(STRATEGIES)} paired rounds, " in lines[-2]
    # the same code on the same (strategy, seed) elects alike
    assert lines[-1] == "rounds whose ledger payloads differ: 0"


def test_ab_rounds_rejects_an_unknown_strategy():
    run = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--strategy", "nope"], capture_output=True, text=True
    )
    assert run.returncode == 2
    assert "unknown strategy ['nope']" in run.stderr


@pytest.mark.parametrize("seeds", ["x", "1,,2", "-1"])
def test_ab_rounds_rejects_a_bad_seed(seeds):
    run = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), f"--seeds={seeds}"], capture_output=True, text=True
    )
    assert run.returncode == 2
    assert f"bad --seeds {seeds!r}" in run.stderr
