"""Command line front end."""

from __future__ import annotations

import argparse
import logging
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

from .config import STRATEGIES, SimConfig
from .engine import run_simulation
from .experiment import run_comparison
from .ledger import Ledger, chain_break
from .report import write_run


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
    sim.set_defaults(run=_cmd_simulate)

    cmp_ = sub.add_parser("compare", help="run a strategy comparison over several seeds")
    cmp_.add_argument("--config", type=Path, help="JSON file of config overrides")
    cmp_.add_argument("--seeds", default="1,2,3", help="comma separated seed list")
    cmp_.add_argument("--strategies", default=",".join(STRATEGIES),
                      help="comma separated strategy list")
    cmp_.add_argument("--out", type=Path, required=True, help="output directory")
    cmp_.set_defaults(run=_cmd_compare)

    ver = sub.add_parser("verify-ledger", help="check a ledger file's hash chain")
    ver.add_argument("ledger", type=Path, help="path to ledger.json")
    ver.set_defaults(run=_cmd_verify_ledger)
    return parser


class BadInput(Exception):
    """Input that main turns away with its message as one stderr line and exit code 2."""


def _config(args: argparse.Namespace, **overrides: Any) -> SimConfig:
    """The --config file with the overrides that are not None, as SimConfig checks it."""
    try:
        cfg = SimConfig() if args.config is None else SimConfig.from_json(args.config)
        return cfg.replace(**{k: v for k, v in overrides.items() if v is not None})
    except (OSError, ValueError) as exc:
        raise BadInput(f"config error: {exc}") from exc


def _entries(flag: str, text: str, field: str, parse: Callable[[str], Any]) -> list:
    """The entries of a comma separated list, each parsed and checked as SimConfig's `field`."""
    try:
        values = [parse(s) for s in map(str.strip, text.split(",")) if s]
        if not values:
            raise ValueError("the list is empty")
        if len(set(values)) < len(values):
            raise ValueError("an entry is listed twice")
        for value in values:
            SimConfig(**{field: value})
    except ValueError as exc:
        raise BadInput(f"bad {flag} {text!r}: {exc}") from exc
    return values


@contextmanager
def _writing(out: Path) -> Iterator[None]:
    """Say why --out cannot hold what the block writes there."""
    try:
        yield
    except OSError as exc:
        raise BadInput(f"bad --out {str(out)!r}: {exc}") from exc


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _config(args, rng_seed=args.seed, strategy=args.strategy)
    with _writing(args.out):
        args.out.mkdir(parents=True, exist_ok=True)
    report = run_simulation(cfg)
    with _writing(args.out):
        out = write_run(args.out, report)
    for key, value in report.summary.items():
        print(f"{key}: {value}")
    print(f"elapsed_s: {report.elapsed_s:.3f}")
    print(f"artifacts: {out}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    cfg = _config(args)
    seeds = _entries("--seeds", args.seeds, "rng_seed", int)
    strategies = _entries("--strategies", args.strategies, "strategy", str)
    with _writing(args.out):
        args.out.mkdir(parents=True, exist_ok=True)
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
    try:
        if not isinstance(logging.getLevelName(level.upper()), int):
            known = "CRITICAL, ERROR, WARNING, INFO, DEBUG"
            raise BadInput(f"bad MAPSIM_LOG_LEVEL {level!r}: choose from {known}")
        logging.basicConfig(level=level.upper())
        args = build_parser().parse_args(argv)
        return args.run(args)
    except BadInput as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
