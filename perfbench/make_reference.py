"""Print the artifact digests of the reference runs as JSON.

    PYTHONPATH=src python3 perfbench/make_reference.py > perfbench/reference.json

`reference.json` pins the bytes of rounds.csv, summary.json and ledger.json
for each workload's reference runs. Regenerate it only in a change that
means to alter simulation results, and name that change; a speed-up must
leave the digests as they are.
"""

import json
import sys
import tempfile
from pathlib import Path

import worker


def main() -> int:
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for cfg in worker.reference_configs():
            key = json.dumps(worker.reference_key(cfg), sort_keys=True)
            digests[key] = worker.write_digests(worker.engine.run_simulation(cfg), Path(tmp))
    json.dump(digests, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
