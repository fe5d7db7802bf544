"""Command line front end."""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from .config import STRATEGIES, SimConfig
from .engine import run_simulation
from .experiment import run_comparison
from .ledger import Ledger, chain_break
from .report import write_run

log = logging.getLogger("mapsim")

SUMMARY_KEYS = (
    "strategy",
    "seed",
    "rounds",
    "identity_count",
    "avg_handover",
    "max_handover",
    "min_handover",
    "avg_delay_s",
    "disconnection_rate",
    "sybil_detection_rate",
    "false_positive_rate",
    "flagged_count",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapsim",
        description="Simulate trust weighted multi-path access point selection on a ring road.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one simulation and write its artifacts")
    sim.add_argument("--config", type=Path, help="JSON file of config overrides")
    sim.add_argument("--seed", type=int, help="override the RNG seed")
    sim.add_argument("--strategy", choices=STRATEGIES, help="override the strategy")
    sim.add_argument("--out", type=Path, default=Path("out"), help="output directory")

    cmp_ = sub.add_parser("compare", help="run a strategy comparison over several seeds")
    cmp_.add_argument("--config", type=Path, help="JSON file of config overrides")
    cmp_.add_argument("--seeds", default="1,2,3", help="comma separated seed list")
    cmp_.add_argument("--strategies", default=",".join(STRATEGIES),
                      help="comma separated strategy list")
    cmp_.add_argument("--out", type=Path, required=True, help="output directory")

    ver = sub.add_parser("verify-ledger", help="check a ledger file's hash chain")
    ver.add_argument("ledger", type=Path, help="path to ledger.json")
    return parser


def _load_config(path: Path | None) -> SimConfig:
    if path is None:
        return SimConfig()
    return SimConfig.from_json(path)


def _make_out(out: Path) -> bool:
    """Create the output directory, or say on stderr why --out cannot be one."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"bad --out {str(out)!r}: {exc}", file=sys.stderr)
        return False
    return True


def _cmd_simulate(args: argparse.Namespace) -> int:
    overrides = {}
    if args.seed is not None:
        overrides["rng_seed"] = args.seed
    if args.strategy is not None:
        overrides["strategy"] = args.strategy
    try:
        cfg = _load_config(args.config).replace(**overrides)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if not _make_out(args.out):
        return 2
    report = run_simulation(cfg)
    out = write_run(args.out, report)
    for key in SUMMARY_KEYS:
        print(f"{key}: {report.summary[key]}")
    print(f"elapsed_s: {report.elapsed_s:.3f}")
    print(f"artifacts: {out}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    try:
        cfg = _load_config(args.config)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
        if not seeds:
            raise ValueError("no seeds given")
        if len(set(seeds)) < len(seeds):
            raise ValueError("a seed is listed twice")
        for seed in seeds:
            cfg.replace(rng_seed=seed)
    except ValueError as exc:
        print(f"bad --seeds {args.seeds!r}: {exc}", file=sys.stderr)
        return 2
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    if not strategies or not set(strategies) <= set(STRATEGIES):
        known = ", ".join(STRATEGIES)
        print(f"bad --strategies {args.strategies!r}: choose from {known}", file=sys.stderr)
        return 2
    if len(set(strategies)) < len(strategies):
        print(f"bad --strategies {args.strategies!r}: a strategy is listed twice", file=sys.stderr)
        return 2
    if not _make_out(args.out):
        return 2
    result = run_comparison(cfg, seeds, strategies, args.out)
    for row in result["rows"]:
        cells = ", ".join(
            f"{metric}=n/a" if row[f"{metric}_mean"] is None
            else f"{metric}={row[f'{metric}_mean']:.6g}±{row[f'{metric}_std']:.3g}"
            for metric in ("avg_handover", "avg_delay_s", "disconnection_rate")
        )
        print(f"{row['strategy']}: {cells}")
    print(f"artifacts: {args.out}")
    return 0


def _cmd_verify_ledger(args: argparse.Namespace) -> int:
    try:
        ledger = Ledger.from_json(args.ledger)
    except Exception as exc:
        print(f"ledger unreadable: {exc}", file=sys.stderr)
        return 1
    broken = chain_break(ledger.blocks)
    if broken is None:
        print(f"ledger OK ({len(ledger)} blocks)")
        return 0
    print("ledger INVALID: block {} fails {}".format(*broken))
    return 1


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("MAPSIM_LOG_LEVEL", "WARNING")
    if not isinstance(logging.getLevelName(level.upper()), int):
        known = "CRITICAL, ERROR, WARNING, INFO, DEBUG"
        print(f"bad MAPSIM_LOG_LEVEL {level!r}: choose from {known}", file=sys.stderr)
        return 2
    logging.basicConfig(level=level.upper())
    args = build_parser().parse_args(argv)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "verify-ledger":
        return _cmd_verify_ledger(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
