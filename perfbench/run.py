"""mapsim benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Workloads (see BENCHMARK.json for why each
one is there):

    default-blockchain  default SimConfig, blockchain-multipath, 100 rounds
    default-baselines   default SimConfig under the three baseline strategies
    ring-800            criterion 11's 800-vehicle point, round by round
    artifact-audit      write_run, reload, verify and forge the artifacts

An operation ("op") is one round on the three simulation workloads (inside
full run_simulation calls on the default-* ones) and one audit of both
reports on artifact-audit. With --trace 0 the result holds the end-to-end
metrics: set-up time, median op latency, vehicle-rounds per second and
peak memory; the upper percentiles are printed too. Times are scaled to a
reference machine speed by a calibration loop timed next to every sample
(see calibration.py); the raw figures are printed as well. With --trace 1
a separate traced run gives each module's self time, call counts, the
mechanism counts and the tracing overhead.

The workload runs in its own interpreter with PYTHONPATH=src and one
thread per numeric library; set-up is timed in fresh interpreters, the
worker's own and extra probes, and reported as their median. Every op's
output is checked; a failed check is counted, not fatal. The last line of
standard output is the JSON result; the lines before it show the same
figures by name and unit, with the run's metadata. Full results and the
span buffers of a traced run go to perfbench/out/.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0
SETUP_SAMPLES = {"artifact-audit": 3}
DEFAULT_SETUP_SAMPLES = 5


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # numpy must not start worker threads, and every set-up compiles the
    # same sources whether or not a bytecode cache exists
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.update(PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    return env


def call_worker(args: list[str], deadline: float) -> dict:
    """Run the worker to completion and return its last output line as JSON."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    proc = subprocess.run(
        cmd,
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        timeout=max(1.0, deadline - time.monotonic()),
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {' '.join(args)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def units(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be non-negative and --seconds positive")
    if not (ROOT / "src" / "mapsim").is_dir():
        print(f"no mapsim sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_1m": os.getloadavg()[0],
    }
    try:
        result = call_worker(
            [args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            deadline,
        )
        setup = [result]
        seeds = ",".join(str(s) for s in result["seeds"])
        for _ in range(SETUP_SAMPLES.get(args.workload, DEFAULT_SETUP_SAMPLES) - 1):
            setup.append(call_worker([args.workload, "--probe", "--seeds", seeds], deadline))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setup)
        metrics["raw.setup_s"] = statistics.median(s["setup_raw_s"] for s in setup)
    unit_of = units(args.trace)
    missing = sorted(set(unit_of) - set(metrics))
    if missing:
        print(f"benchmark failed: metrics missing: {missing}", file=sys.stderr)
        return 1
    meta.update(
        numpy=result["numpy"],
        derived_seeds=result["seeds"],
        setup_samples_s=[s["setup_s"] for s in setup],
        op_samples=result["samples"],
        failures=result["failures"],
    )
    out = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit_of[name]} for name in unit_of},
    }
    (HERE / "out").mkdir(exist_ok=True)
    record = HERE / "out" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, "extra": metrics, **out}, indent=2) + "\n")

    for key, value in meta.items():
        print(f"# {key}: {value}")
    print(f"failed_frac {result['failed'] / result['attempted']:.6g} ({result['failed']}/{result['attempted']} ops)")
    for name, unit in unit_of.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    for name in sorted(set(metrics) - set(unit_of)):
        print(f"# {name} {metrics[name]:.6g}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
