"""The committed byte-identity manifest, on one seed of every (config, strategy).

tools/artifact_matrix.json holds the sha256 of rounds.csv, summary.json and
ledger.json for every run of tools/artifact_matrix.py's matrix. A mismatch
here means a run's results changed; `python tools/artifact_matrix.py --check`
names every changed run and file over the whole matrix.
"""

import importlib.util
from pathlib import Path

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
    assert len(first) == 54
    assert artifact_matrix.changed(list(first.values()), artifact_matrix.load()) == []
