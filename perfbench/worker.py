"""One benchmark workload, run in a fresh interpreter.

`run.py` starts this file with `PYTHONPATH=src`; it is not meant to be run
by hand. It drives mapsim only through its public API and prints one JSON
object as its last line.

    worker.py WORKLOAD --seed N --seconds S --trace 0|1   measure a workload
    worker.py WORKLOAD --probe --seeds A,B                time set-up only

Set-up time is taken from the top of this file, so it covers importing
mapsim (and numpy) in a fresh process plus the workload's own set-up. It is
scaled by calibrations taken before the import and after the set-up.
"""

import argparse
import resource
import sys
import time
import traceback
import zlib
from contextlib import contextmanager

from calibration import calibrate, calibrate_median, scaled

_CAL_BEFORE_S = calibrate_median()
_T0 = time.perf_counter()

import numpy as np  # noqa: E402

import mapsim.engine as engine  # noqa: E402
import mapsim.ledger as ledger_mod  # noqa: E402
import mapsim.report as report_mod  # noqa: E402
from mapsim import SimConfig  # noqa: E402

_T_IMPORT = time.perf_counter() - _T0

# already loaded by mapsim
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Recorder  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
ARTIFACTS = ("rounds.csv", "summary.json", "ledger.json")
BASELINES = ("independent-random", "distance-based", "sequence-based")
ADMISSION = ("blockchain-multipath", "sequence-based")

# criterion 11's configs of the acceptance suite; the largest is ring-800
SCALING = ((100, 40), (200, 25), (400, 12), (800, 8))


def scaling_config(n: int, rounds: int) -> SimConfig:
    return SimConfig(
        vehicle_density=n / 10000.0,
        total_time=rounds * 10.0,
        map_fraction=0.2,
        sybil_fraction=0.0,
        rng_seed=7,
    )


RING = scaling_config(800, 8)
# a small fleet over 2,000 rounds gives a long ledger cheaply
LONG = SimConfig(vehicle_density=0.002, total_time=20000.0)


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def derive_seeds(workload: str, seed: int, config: SimConfig, count: int) -> list[int]:
    """`count` run seeds drawn from the workload seed, fleet size pinned.

    The fleet size is a Poisson draw, and run time grows with it, so only
    seeds whose honest fleet equals the Poisson mean are kept. Every seed
    then does the same amount of work and the figures of runs with
    different workload seeds can be compared.
    """
    target = round(config.road_length * config.vehicle_density)
    stream = np.random.SeedSequence(seed, spawn_key=(zlib.crc32(workload.encode()),))
    found: list[int] = []
    for candidate in stream.generate_state(4096, np.uint32):
        s = int(candidate)
        state = engine.initial_state(config.replace(rng_seed=s), np.random.default_rng(s))
        if len(state.fleet) - len(state.clone_ids) == target:
            found.append(s)
            if len(found) == count:
                return found
    raise RuntimeError(f"no seed with a fleet of {target} for {workload}")


# output checks; each raises CheckFailed and returns (fingerprint, vehicle rounds)


def check_round_metrics(m) -> None:
    served = m.vehicle_count - m.elected_maps - m.flagged_count
    require(
        m.attached + m.disconnected == served,
        f"round {m.round_index}: attached {m.attached} + disconnected {m.disconnected} != served {served}",
    )


def check_assignments(state, cfg: SimConfig) -> None:
    for v, pa in state.last_assignments.items():
        require(len(pa.paths) <= cfg.max_paths, f"vehicle {v} holds {len(pa.paths)} paths")
        require(pa.paths == tuple(s.map_ident for s in pa.stats), f"vehicle {v}: paths and stats disagree")
        if cfg.strategy in ADMISSION:
            for s in pa.stats:
                require(s.total_delay < cfg.delay_threshold, f"vehicle {v}: delay {s.total_delay} over bound")
                require(s.bandwidth >= cfg.bandwidth_min, f"vehicle {v}: bandwidth {s.bandwidth} under floor")


def write_digests(report, out_dir: Path) -> dict[str, str]:
    report_mod.write_run(out_dir, report)
    return {name: sha256((out_dir / name).read_bytes()) for name in ARTIFACTS}


def check_report(report, out_dir: Path):
    cfg = report.config
    require(report.ledger.verify(), "ledger does not verify")
    require(len(report.ledger) == len(report.round_metrics), "one block per round")
    for m in report.round_metrics:
        check_round_metrics(m)
    check_assignments(report.state, cfg)
    digests = write_digests(report, out_dir)
    return digests, report.summary["identity_count"] * report.summary["rounds"]


class Bench:
    """Times operations, checks their outputs and counts failures.

    An operation's output must match the first output recorded under the
    same key: the same (config, seed) repeated, traced or not, has to give
    byte-identical results.
    """

    def __init__(self, workload: str, sampling: bool) -> None:
        self.workdir = OUT / "work" / workload
        # calibrated samples are taken in timed runs only; in a traced run
        # the calibration would distort the rep totals it compares
        self.sampling = sampling
        # (seconds, mean calibration seconds around it, vehicle rounds)
        self.samples: list[tuple[float, float, int]] = []
        self.timed_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.fingerprints: dict = {}
        self.recorder: Recorder | None = None

    def fail(self, key, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"{key}: {message}")

    @contextmanager
    def sampling_rounds(self):
        """Take one sample per run_round call made inside the block."""
        raw = engine.run_round

        def timed(*args):
            before = calibrate()
            t0 = time.perf_counter()
            result = raw(*args)
            dt = time.perf_counter() - t0
            self.samples.append((dt, (before + calibrate()) / 2, result[1].vehicle_count))
            return result

        engine.run_round = timed
        try:
            yield
        finally:
            engine.run_round = raw

    def op(self, key, check, fn, timed: bool = True, per_round: bool = False):
        """Run fn(), timing it when `timed`; then check its output.

        fn looks mapsim's functions up when it runs, so that a traced
        operation calls the wrapped names. With `per_round`, each round
        inside fn is a sample rather than fn as a whole. A failed check is
        counted; the sample stays, with no vehicle rounds to its credit.
        """
        self.attempted += 1
        sample_op = timed and self.sampling and not per_round
        before = calibrate() if sample_op else 0.0
        t0 = time.perf_counter()
        try:
            if timed and self.recorder is not None:
                with self.recorder.installed():
                    out = self.recorder.op(fn)
            elif timed and self.sampling and per_round:
                with self.sampling_rounds():
                    out = fn()
            else:
                out = fn()
        except Exception:
            self.fail(key, traceback.format_exc(limit=3))
            raise RepAborted
        dt = time.perf_counter() - t0
        cal = (before + calibrate()) / 2 if sample_op else 0.0
        try:
            fingerprint, vehicle_rounds = check(out)
            want = self.fingerprints.setdefault(key, fingerprint)
            require(fingerprint == want, "output differs from an earlier run of the same input")
        except CheckFailed as exc:
            self.fail(key, str(exc))
            vehicle_rounds = 0
        if timed:
            self.timed_s += dt
        if sample_op:
            self.samples.append((dt, cal, vehicle_rounds))
        return out


class RepAborted(Exception):
    pass


# workloads


class Workload:
    name = ""
    seed_config = SimConfig()
    seed_count = 1

    def __init__(self, seeds: list[int]) -> None:
        self.seeds = seeds

    @classmethod
    def derive(cls, seed: int) -> list[int]:
        return derive_seeds(cls.name, seed, cls.seed_config, cls.seed_count)

    def setup(self) -> None:
        """The work timed as set-up after the import."""
        cfg = self.seed_config.replace(rng_seed=self.seeds[0])
        engine.initial_state(cfg, np.random.default_rng(cfg.rng_seed))

    def references(self) -> list[SimConfig]:
        return []

    def rep(self, bench: Bench) -> None:
        raise NotImplementedError


class SimulationRuns(Workload):
    """Full 100-round runs through run_simulation, one op per (strategy, seed)."""

    strategies: tuple[str, ...] = ()
    seed_count = 2

    def rep(self, bench: Bench) -> None:
        for seed in self.seeds:
            for strategy in self.strategies:
                cfg = SimConfig(strategy=strategy, rng_seed=seed)
                out_dir = bench.workdir / f"{strategy}-{seed}"
                bench.op(
                    cfg, lambda r: check_report(r, out_dir), lambda: engine.run_simulation(cfg), per_round=True
                )

    def references(self) -> list[SimConfig]:
        return [SimConfig(strategy=s, rng_seed=1) for s in self.strategies]


class DefaultBlockchain(SimulationRuns):
    name = "default-blockchain"
    strategies = ("blockchain-multipath",)
    # run time differs by up to a tenth between seeds of one fleet size
    seed_count = 4


class DefaultBaselines(SimulationRuns):
    name = "default-baselines"
    strategies = BASELINES


class Ring800(Workload):
    """Criterion 11's 800-vehicle point driven round by round.

    Round 0 is the cold start and is run, checked and not timed.
    """

    name = "ring-800"
    seed_config = RING

    def rep(self, bench: Bench) -> None:
        for seed in self.seeds:
            cfg = RING.replace(rng_seed=seed)
            rng = np.random.default_rng(seed)
            state = engine.initial_state(cfg, rng)
            chain = ledger_mod.Ledger()

            def check(result, cfg=cfg, chain=chain):
                state, metrics, event = result
                check_round_metrics(metrics)
                check_assignments(state, cfg)
                chain.append(metrics.round_index, event.payload())
                require(chain.verify(), "ledger does not verify")
                record = [dataclasses.asdict(metrics), event.payload()]
                return sha256(json.dumps(record, sort_keys=True).encode()), metrics.vehicle_count

            for r in range(cfg.rounds()):
                state, _, _ = bench.op(
                    (seed, r), check, lambda: engine.run_round(state, r, cfg, rng), timed=r > 0
                )

    def references(self) -> list[SimConfig]:
        return [RING.replace(total_time=20.0)]


def audit(reports, work: Path, tampers):
    """write_run, load the ledger back, verify it, verify a one-byte forgery."""
    results = []
    for n, (report, (offset, mask)) in enumerate(zip(reports, tampers)):
        out = report_mod.write_run(work / f"audit-{n}", report)
        loaded = ledger_mod.Ledger.from_json(out / "ledger.json")
        intact = loaded.verify()
        last = loaded.blocks[-1]
        payload = bytearray(last.payload)
        payload[offset % len(payload)] ^= mask
        forged = ledger_mod.Ledger(loaded.blocks[:-1] + [dataclasses.replace(last, payload=bytes(payload))])
        results.append((out, loaded, intact, forged.verify()))
    return results


class ArtifactAudit(Workload):
    """Artifacts of a default run and of a 2,000-block run, written and audited.

    The reports are generated in set-up; the forgery hits the last block, so
    every verification walks the whole chain.
    """

    name = "artifact-audit"

    def setup(self) -> None:
        self.reports = [
            engine.run_simulation(SimConfig(rng_seed=self.seeds[0])),
            engine.run_simulation(LONG.replace(rng_seed=self.seeds[1])),
        ]

    @classmethod
    def derive(cls, seed: int) -> list[int]:
        return derive_seeds(cls.name, seed, SimConfig(), 1) + derive_seeds(cls.name + "/long", seed, LONG, 1)

    def rep(self, bench: Bench) -> None:
        tamper_rng = np.random.default_rng(self.seeds)
        tampers = [(int(tamper_rng.integers(1 << 20)), int(tamper_rng.integers(1, 256))) for _ in self.reports]

        def check(results):
            rounds = 0
            digests = []
            for report, (out, loaded, intact, forged_ok) in zip(self.reports, results):
                require(intact, "written ledger does not verify")
                require(not forged_ok, "forged ledger verifies")
                require(loaded.blocks == report.ledger.blocks, "ledger changed in the JSON round trip")
                digests.append({name: sha256((out / name).read_bytes()) for name in ARTIFACTS})
                rounds += report.summary["identity_count"] * report.summary["rounds"]
            return digests, rounds

        bench.op("audit", check, lambda: audit(self.reports, bench.workdir, tampers))

    def references(self) -> list[SimConfig]:
        return [LONG.replace(rng_seed=1)]


WORKLOADS = {w.name: w for w in (DefaultBlockchain, DefaultBaselines, Ring800, ArtifactAudit)}


def check_references(workload: Workload, bench: Bench) -> None:
    """Runs whose artifacts must match the committed digests byte for byte."""
    committed = json.loads((HERE / "reference.json").read_text())
    for cfg in workload.references():
        key = json.dumps(reference_key(cfg), sort_keys=True)
        out_dir = bench.workdir / "reference"

        def check(report):
            digests, _ = check_report(report, out_dir)
            require(key in committed, f"no committed reference for {key}")
            require(digests == committed[key], f"artifacts differ from the committed reference for {key}")
            return digests, 0

        try:
            bench.op(("reference", key), check, lambda: engine.run_simulation(cfg), timed=False)
        except RepAborted:
            pass


def reference_key(cfg: SimConfig) -> dict:
    """The fields of cfg that differ from the defaults."""
    base = SimConfig().to_dict()
    return {k: v for k, v in cfg.to_dict().items() if base[k] != v}


def reference_configs() -> list[SimConfig]:
    return [cfg for cls in WORKLOADS.values() for cfg in cls([0]).references()]


def probes_per_round() -> dict[str, int]:
    """make_link_stats calls in round 1 of criterion 11's configs, by size."""
    out = {}
    for n, rounds in SCALING:
        cfg = scaling_config(n, rounds)
        rng = np.random.default_rng(cfg.rng_seed)
        state = engine.initial_state(cfg, rng)
        state, _, _ = engine.run_round(state, 0, cfg, rng)
        recorder = Recorder()
        with recorder.installed():
            engine.run_round(state, 1, cfg, rng)
        out[f"radio.make_link_stats.calls_per_round.n{n}"] = recorder.calls[recorder.code["radio.make_link_stats"]]
    return out


def timed_rep(workload: Workload, bench: Bench) -> float:
    """Run one rep; return the time spent inside its timed operations."""
    before = bench.timed_s
    try:
        workload.rep(bench)
    except RepAborted:
        pass
    return bench.timed_s - before


def percentiles_ms(seconds: list[float]) -> dict[str, float]:
    q = statistics.quantiles(seconds, n=20, method="inclusive")
    return {"p50": q[9] * 1e3, "p75": q[14] * 1e3, "p90": q[17] * 1e3}


def measure(workload: Workload, bench: Bench, seconds: float) -> dict:
    start = time.perf_counter()
    while True:
        timed_rep(workload, bench)
        if time.perf_counter() - start >= seconds:
            break
    if len(bench.samples) < 2:
        raise SystemExit(f"{workload.name}: too few operations completed: {bench.failures}")
    raw = [dt for dt, _, _ in bench.samples]
    norm = [scaled(dt, cal) for dt, cal, _ in bench.samples]
    vehicle_rounds = sum(vr for _, _, vr in bench.samples)
    metrics = {f"op_ms.{k}": v for k, v in percentiles_ms(norm).items()}
    metrics.update({f"raw.op_ms.{k}": v for k, v in percentiles_ms(raw).items()})
    metrics.update(
        {
            "vehicle_rounds_per_s": vehicle_rounds / sum(norm),
            "raw.vehicle_rounds_per_s": vehicle_rounds / sum(raw),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "calibration_ms.p50": statistics.median(cal for _, cal, _ in bench.samples) * 1e3,
        }
    )
    return metrics


def scaled_rep(workload: Workload, bench: Bench) -> tuple[float, float]:
    """One rep's timed seconds, raw and scaled to the reference speed."""
    before = calibrate_median()
    raw = timed_rep(workload, bench)
    return raw, scaled(raw, (before + calibrate_median()) / 2)


def measure_traced(workload: Workload, bench: Bench, seconds: float, spans_path: Path) -> dict:
    """Alternate untraced and traced reps; per-layer figures per traced rep.

    Self times are raw seconds and add up to raw.trace.traced_s; the
    trace.* totals and the overhead are scaled like the timed metrics. The
    span file holds the spans of the last traced rep.
    """
    metrics = probes_per_round()
    recorder = Recorder()
    untraced, traced, rep_counts = [], [], []
    start = time.perf_counter()
    while True:
        untraced.append(scaled_rep(workload, bench))
        recorder.clear_spans()
        before = dict(recorder.counts), list(recorder.calls)
        bench.recorder = recorder
        traced.append(scaled_rep(workload, bench))
        bench.recorder = None
        rep_counts.append(
            (
                {k: v - before[0].get(k, 0) for k, v in recorder.counts.items()},
                [a - b for a, b in zip(recorder.calls, before[1])],
            )
        )
        if time.perf_counter() - start >= seconds:
            break
    for counts in rep_counts[1:]:
        if counts != rep_counts[0]:
            bench.fail("trace", "mechanism counts differ between traced reps of the same input")
    metrics.update(recorder.layer_metrics(len(traced)))
    t_un = statistics.fmean(s for _, s in untraced)
    t_tr = statistics.fmean(s for _, s in traced)
    metrics["trace.untraced_s"] = t_un
    metrics["trace.traced_s"] = t_tr
    metrics["trace.overhead_s"] = t_tr - t_un
    metrics["trace.overhead_frac"] = (t_tr - t_un) / t_un
    metrics["raw.trace.untraced_s"] = statistics.fmean(r for r, _ in untraced)
    metrics["raw.trace.traced_s"] = statistics.fmean(r for r, _ in traced)
    metrics["trace.spans"] = recorder.save_spans(spans_path)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--seeds", default="")
    args = ap.parse_args(argv)
    cls = WORKLOADS[args.workload]

    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else cls.derive(args.seed)
    t_setup = time.perf_counter()
    workload = cls(seeds)
    workload.setup()
    setup_raw_s = _T_IMPORT + (time.perf_counter() - t_setup)
    setup_s = scaled(setup_raw_s, (_CAL_BEFORE_S + calibrate_median()) / 2)
    if args.probe:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    OUT.mkdir(exist_ok=True)
    bench = Bench(args.workload, sampling=not args.trace)
    check_references(workload, bench)
    if args.trace:
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
        metrics = measure_traced(workload, bench, args.seconds, spans)
    else:
        metrics = measure(workload, bench, args.seconds)
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "setup_raw_s": setup_raw_s,
                "seeds": seeds,
                "samples": len(bench.samples),
                "attempted": bench.attempted,
                "failed": bench.failed,
                "failures": bench.failures,
                "numpy": np.__version__,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
