"""Paired-round A/B of two checkouts, in one interpreter.

Imports each checkout's src/mapsim under its own package name, runs the
same (strategy, seed) on both round by round and alternates which side
runs each round first, with perfbench/calibration.calibrate() run right
before every timed round, as the benchmark's worker does. Adjacent rounds
of the two sides see the same machine, so the share of paired rounds the
change wins resolves differences of a few percent that a handful of
fresh-interpreter benchmark runs on a shared machine do not.

    python tools/ab_rounds.py PARENT CHANGE [--strategy S ...] [--seeds 1,2] [--rounds R]

PARENT and CHANGE are checkout roots (a `git archive` of the parent
commit, say, and this tree). It prints, per strategy and over all of them,
the median microseconds per round on each side, their relative change and
the share of paired rounds the change was faster in, and the number of
rounds whose ledger payloads differ between the sides (0 for a change that
keeps every artifact byte-identical).
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def load_module(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_mapsim(checkout: Path, name: str):
    """checkout's src/mapsim imported as the package `name`."""
    init = checkout / "src" / "mapsim" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no src/mapsim in {checkout}")
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    # the package's relative imports look its name up here
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def paired_rounds(sides, strategy: str, seed: int, rounds: int | None, calibrate):
    """Per-round seconds of each side, in round order, and the rounds whose payloads differ."""
    runs = []
    for mapsim in sides:
        cfg = mapsim.SimConfig(strategy=strategy, rng_seed=seed)
        rng = np.random.default_rng(seed)
        runs.append([mapsim.run_round, cfg, rng, mapsim.initial_state(cfg, rng)])
    count = runs[0][1].rounds() if rounds is None else min(rounds, runs[0][1].rounds())
    times = ([], [])
    differ = 0
    for r in range(count):
        payloads = [None, None]
        # parent first on even rounds, change first on odd ones
        for side in ((0, 1) if r % 2 == 0 else (1, 0)):
            run_round, cfg, rng, state = runs[side]
            calibrate()
            t0 = time.perf_counter()
            state, _, event = run_round(state, r, cfg, rng)
            times[side].append(time.perf_counter() - t0)
            runs[side][3] = state
            payloads[side] = event.payload()
        differ += payloads[0] != payloads[1]
    return times, differ


def summary(label: str, parent: list[float], change: list[float]) -> str:
    a, b = statistics.median(parent), statistics.median(change)
    wins = sum(c < p for p, c in zip(parent, change))
    return (
        f"{label}: {len(parent)} paired rounds, parent {a * 1e6:.1f} us, change {b * 1e6:.1f} us "
        f"({(b - a) / a:+.1%}), change faster in {wins / len(parent):.0%}"
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--strategy", action="append", help="repeatable; default: every strategy")
    ap.add_argument("--seeds", default="1", help="comma-separated rng seeds (default 1)")
    ap.add_argument("--rounds", type=int, help="rounds per run (default: the whole run)")
    args = ap.parse_args(argv)
    entries = args.seeds.split(",")
    if not all(s.isdecimal() for s in entries):
        ap.error(f"bad --seeds {args.seeds!r}: each entry must be a non-negative integer")
    seeds = [int(s) for s in entries]
    if args.rounds is not None and args.rounds < 1:
        ap.error("--rounds must be at least 1")

    calibrate = load_module(ROOT / "perfbench" / "calibration.py", "ab_calibration").calibrate
    sides = (load_mapsim(args.parent.resolve(), "mapsim_parent"), load_mapsim(args.change.resolve(), "mapsim_change"))
    strategies = args.strategy or list(sides[0].STRATEGIES)
    unknown = set(strategies) - set(sides[0].STRATEGIES)
    if unknown:
        ap.error(f"unknown strategy {sorted(unknown)}; choose from {list(sides[0].STRATEGIES)}")

    every = ([], [])
    differ = 0
    for strategy in strategies:
        both = ([], [])
        for seed in seeds:
            times, d = paired_rounds(sides, strategy, seed, args.rounds, calibrate)
            differ += d
            for side in (0, 1):
                both[side].extend(times[side])
                every[side].extend(times[side])
        print(summary(strategy, *both))
    print(summary("all", *every))
    print(f"rounds whose ledger payloads differ: {differ}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
