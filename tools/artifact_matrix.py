"""Byte-identity matrix: the sha256 of every run's three artifacts.

Runs each (config, strategy, seed) of MATRIX, writes its rounds.csv,
summary.json and ledger.json with mapsim.write_run and hashes them. The
manifest, artifact_matrix.json beside this file, maps each run to its
three digests, so a change that must keep every artifact byte-identical
can show it did with one command:

    python tools/artifact_matrix.py --check   name each changed run and file; exit 1 on any
    python tools/artifact_matrix.py --write   regenerate the manifest

A change that alters results on purpose regenerates the manifest with
--write and lists the changed runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# a checkout runs this without an install
sys.path.insert(0, str(ROOT / "src"))

from mapsim import STRATEGIES, SimConfig, run_simulation, write_run  # noqa: E402

MANIFEST = Path(__file__).with_suffix(".json")
FILES = ("rounds.csv", "summary.json", "ledger.json")
ADMISSION = ("blockchain-multipath", "sequence-based")
SEEDS = (1, 2, 3, 4, 5)
# criterion 11's 400- and 800-vehicle configs
RING_400 = {"vehicle_density": 0.04, "total_time": 120.0, "map_fraction": 0.2, "sybil_fraction": 0.0}
RING_800 = {"vehicle_density": 0.08, "total_time": 80.0, "map_fraction": 0.2, "sybil_fraction": 0.0}

# (SimConfig overrides, strategies, seeds); the scarce-bandwidth configs make
# pathing.resolve speculate again, the ring configs are the largest fleets
# and the 2,000-round config gives the longest ledgers; path_loss_exp=2.7
# takes the link-scoring power off the default exponent of 4; the scarce
# 800-vehicle ring's cold start grows over pathing.GRID_CELLS cells, so
# blockchain growth speculates again over its windows of MAPs in reach
MATRIX = (
    *(
        (overrides, STRATEGIES, SEEDS)
        for overrides in (
            {},
            {"incumbent_retention": False},
            {"b_cap": 0.16, "delay_threshold": 30.0},
            {"max_paths": 1},
            {"max_paths": 4},
            {"max_paths": 4, "b_cap": 0.3},
            {"max_paths": 3, "b_cap": 0.2},
            {"b_cap": 0.05, "delay_threshold": 40.0},
            {"max_paths": 4, "b_cap": 0.16},
            {"path_loss_exp": 2.7},
        )
    ),
    (RING_800, ADMISSION, (1, 2, 5)),
    (RING_800, STRATEGIES, (3, 4, 7)),
    (RING_400, STRATEGIES, (3, 4, 7)),
    ({"vehicle_density": 0.002, "total_time": 20000.0}, STRATEGIES, (1, 2, 3)),
    ({**RING_800, "b_cap": 0.16, "delay_threshold": 30.0}, ADMISSION, (1, 2, 3)),
)


def config_name(overrides: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in overrides.items()) or "default"


def runs() -> list[tuple[str, SimConfig]]:
    """(key, config) of every run in MATRIX, keyed 'config strategy seed'."""
    out = []
    for overrides, strategies, seeds in MATRIX:
        for strategy in strategies:
            for seed in seeds:
                key = f"{config_name(overrides)} / {strategy} / {seed}"
                out.append((key, SimConfig(**overrides, strategy=strategy, rng_seed=seed)))
    return out


def digests(config: SimConfig, out_dir: Path) -> dict[str, str]:
    out = write_run(out_dir, run_simulation(config))
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in FILES}


def changed(selected: list[tuple[str, SimConfig]], manifest: dict) -> list[str]:
    """One line per selected run and file whose digest differs from the manifest."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for key, config in selected:
            if key not in manifest:
                lines.append(f"{key}: not in the manifest")
                continue
            got = digests(config, Path(tmp))
            lines += [f"{key}: {name} changed" for name in FILES if got[name] != manifest[key][name]]
    return lines


def load() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare every run with the manifest")
    mode.add_argument("--write", action="store_true", help="regenerate the manifest")
    args = parser.parse_args(argv)
    selected = runs()
    if args.write:
        with tempfile.TemporaryDirectory() as tmp:
            manifest = {key: digests(config, Path(tmp)) for key, config in selected}
        MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {len(manifest)} runs to {MANIFEST.name}")
        return 0
    manifest = load()
    lines = changed(selected, manifest)
    lines += [f"{key}: no longer in the matrix" for key in sorted(manifest.keys() - dict(selected).keys())]
    print("\n".join(lines) if lines else f"all {len(selected)} runs byte-identical")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
