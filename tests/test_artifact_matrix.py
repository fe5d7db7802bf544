"""The committed byte-identity manifest, on one seed of every (config, strategy)
and on every seed of the small rings.

tools/artifact_matrix.json holds the sha256 of rounds.csv, summary.json and
ledger.json for every run of tools/artifact_matrix.py's matrix. A mismatch
here means a run's results changed; `python tools/artifact_matrix.py --check`
names every changed run and file over the whole matrix.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL_PATH = Path(__file__).resolve().parents[1] / "tools" / "artifact_matrix.py"
spec = importlib.util.spec_from_file_location("artifact_matrix", TOOL_PATH)
artifact_matrix = importlib.util.module_from_spec(spec)
spec.loader.exec_module(artifact_matrix)


def test_manifest_lists_every_run_of_the_matrix():
    assert set(artifact_matrix.load()) == {key for key, _ in artifact_matrix.runs()}


def test_first_seed_of_every_config_and_strategy_is_byte_identical():
    first = {}
    for key, config in artifact_matrix.runs():
        # keys read 'config / strategy / seed'
        first.setdefault(key.rsplit(" / ", 1)[0], (key, config))
    assert len(first) == 62
    assert artifact_matrix.changed(list(first.values()), artifact_matrix.load()) == []


# the small ring and its scarce-bandwidth twin, one case per strategy and seed
RINGS = {artifact_matrix.config_name(o) for o in (artifact_matrix.SMALL, artifact_matrix.SCARCE)}
SMALL_RUNS = [run for run in artifact_matrix.runs() if run[0].split(" / ")[0] in RINGS]
assert len(SMALL_RUNS) == 16


@pytest.mark.parametrize("run", SMALL_RUNS, ids=lambda run: run[0])
def test_every_run_of_the_small_rings_is_byte_identical(run):
    assert artifact_matrix.changed([run], artifact_matrix.load()) == []
