"""Span recorder for the traced benchmark run.

The recorder wraps the names mapsim's modules look up at call time, so the
simulator itself carries no tracing code. `mapsim.engine` imports its
collaborators by name, so the round's calls are wrapped on that module;
the ledger and report functions are wrapped where their callers find them.

Each span keeps its name, start, end and parent span in memory; the buffers
are written out once, when the benchmark ends. Self time is a span's
duration minus the time covered by its child spans. A stack of child-time
accumulators gives that directly, which matters because `make_link_stats`
runs inside the pathing functions through the engine's `provider` closure.

The per-vehicle leaf calls in LEAVES run up to a million times a traced
run. They are timed and counted, and their time is taken out of the
enclosing span's self time, but they keep no span record of their own:
on ring-800 that cuts the tracing overhead from about 48% to about 10% and
keeps the buffers small.

Mechanism counts are measured from outside, from the arguments and results
of the wrapped calls, so they repeat exactly for a given (config, seed).
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager

# (span name, module, attribute); the module is where the caller looks the
# name up, which for the round's collaborators is mapsim.engine
SPANS = (
    ("engine.run_simulation", "mapsim.engine", "run_simulation"),
    ("engine.initial_state", "mapsim.engine", "initial_state"),
    ("engine.run_round", "mapsim.engine", "run_round"),
    ("fleet.make_fleet", "mapsim.engine", "make_fleet"),
    ("trust.inject_sybils", "mapsim.engine", "inject_sybils"),
    ("fleet.step_positions", "mapsim.engine", "step_positions"),
    ("trust.update_trust", "mapsim.engine", "update_trust"),
    ("selection.selection_probabilities", "mapsim.engine", "selection_probabilities"),
    ("selection.select_maps", "mapsim.engine", "select_maps"),
    ("selection.table_digest", "mapsim.engine", "table_digest"),
    ("pathing.retain_paths", "mapsim.engine", "retain_paths"),
    ("pathing.grow_paths", "mapsim.engine", "grow_paths"),
    ("pathing.baseline_paths", "mapsim.engine", "baseline_paths"),
    ("pathing.count_handovers", "mapsim.engine", "count_handovers"),
    ("radio.make_link_stats", "mapsim.engine", "make_link_stats"),
    ("ledger.append", "mapsim.ledger", "Ledger.append"),
    ("ledger.verify_chain", "mapsim.ledger", "verify_chain"),
    ("ledger.to_json", "mapsim.ledger", "Ledger.to_json"),
    ("ledger.from_json", "mapsim.ledger", "Ledger.from_json"),
    ("report.write_run", "mapsim.report", "write_run"),
    ("report.write_rounds_csv", "mapsim.report", "write_rounds_csv"),
    ("report.write_summary_json", "mapsim.report", "write_summary_json"),
)

LEAVES = ("radio.make_link_stats", "trust.update_trust", "pathing.count_handovers")

# root span around each timed operation of the benchmark
ROOT = "bench.op"
SPAN_NAMES = (ROOT,) + tuple(name for name, _, _ in SPANS)

COUNTS = (
    "pathing.paths_retained",
    "pathing.paths_grown",
    "pathing.paths_admitted",
    "selection.select_maps.draws",
    "selection.map_churn",
    "trust.newly_flagged",
    "report.bytes_written",
)


def _flagged(state) -> set[int]:
    return {i for i, rec in state.trust.items() if rec.flagged}


class Recorder:
    """In-memory spans, per-name self time and call counts, mechanism counts."""

    def __init__(self) -> None:
        self.code = {name: n for n, name in enumerate(SPAN_NAMES)}
        self.self_s = [0.0] * len(SPAN_NAMES)
        self.calls = [0] * len(SPAN_NAMES)
        self.counts: Counter[str] = Counter()
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open = [-1]
        self._child = [0.0]

    def clear_spans(self) -> None:
        """Drop the span buffers; totals and counts are kept."""
        for buf in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del buf[:]

    def wrap(self, name: str, fn, before=None, after=None):
        """Return fn recording a span; before/after run outside its interval.

        before(args) returns a token handed to after(token, args, result).
        """
        code = self.code[name]
        clock = time.perf_counter
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        open_, child = self._open, self._child
        self_s, calls = self.self_s, self.calls

        if name in LEAVES:
            # the engine calls these positionally; an exception ends the
            # operation, so it needs no accounting
            def leaf(*args):
                t0 = clock()
                result = fn(*args)
                dt = clock() - t0
                child[-1] += dt
                self_s[code] += dt
                calls[code] += 1
                return result

            return leaf

        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            idx = len(names)
            names.append(code)
            parents.append(open_[-1])
            starts.append(0.0)
            ends.append(0.0)
            open_.append(idx)
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                open_.pop()
                inner = child.pop()
                child[-1] += t1 - t0
                self_s[code] += t1 - t0 - inner
                calls[code] += 1
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(token, args, result)
            return result

        return traced

    def op(self, fn):
        """Run one benchmark operation under the root span."""
        return self.wrap(ROOT, fn)()

    # mechanism counts, taken from the arguments and results of the calls

    def _after_retain(self, _token, _args, held) -> None:
        self.counts["pathing.paths_retained"] += len(held)

    def _after_grow(self, _token, args, assignment) -> None:
        # grow_paths(vehicle, held, ...) returns held plus what it added
        self.counts["pathing.paths_grown"] += len(assignment.paths) - len(args[1])
        self.counts["pathing.paths_admitted"] += len(assignment.paths)

    def _after_baseline(self, _token, _args, assignment) -> None:
        self.counts["pathing.paths_admitted"] += len(assignment.paths)

    def _after_select(self, _token, _args, winners) -> None:
        # select_maps consumes one uniform variate per winner
        self.counts["selection.select_maps.draws"] += len(winners)

    @staticmethod
    def _before_round(args):
        state = args[0]
        return set(state.current_maps), _flagged(state)

    def _after_round(self, token, _args, result) -> None:
        prev_maps, prev_flagged = token
        state, _metrics, event = result
        self.counts["selection.map_churn"] += len(set(event.elected) - prev_maps)
        self.counts["trust.newly_flagged"] += len(_flagged(state) - prev_flagged)

    def _after_write_run(self, _token, _args, out) -> None:
        self.counts["report.bytes_written"] += sum(
            (out / name).stat().st_size for name in ("rounds.csv", "summary.json", "ledger.json")
        )

    def _hooks(self, name: str) -> tuple:
        return {
            "pathing.retain_paths": (None, self._after_retain),
            "pathing.grow_paths": (None, self._after_grow),
            "pathing.baseline_paths": (None, self._after_baseline),
            "selection.select_maps": (None, self._after_select),
            "engine.run_round": (self._before_round, self._after_round),
            "report.write_run": (None, self._after_write_run),
        }.get(name, (None, None))

    @contextmanager
    def installed(self):
        """Patch every wrapped name for the duration of the block."""
        import importlib

        saved = []
        try:
            for name, module_name, attr in SPANS:
                module = importlib.import_module(module_name)
                owner = module
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(module, cls_name)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, raw))
                before, after = self._hooks(name)
                if isinstance(raw, classmethod):
                    patched = classmethod(self.wrap(name, raw.__func__, before, after))
                else:
                    patched = self.wrap(name, raw, before, after)
                setattr(owner, attr, patched)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def layer_metrics(self, reps: int) -> dict[str, float]:
        """Self time, calls and mechanism counts, per traced rep."""
        out: dict[str, float] = {}
        for name, code in self.code.items():
            out[f"{name}.self_s"] = self.self_s[code] / reps
            out[f"{name}.calls"] = self.calls[code] / reps
        for name in COUNTS:
            out[name] = self.counts[name] / reps
        probes = self.calls[self.code["radio.make_link_stats"]]
        admitted = self.counts["pathing.paths_admitted"]
        out["pathing.admitted_per_probe"] = admitted / probes if probes else 0.0
        return out

    def save_spans(self, path) -> int:
        """Write the span buffers as a compressed numpy archive."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(SPAN_NAMES),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
        return len(self.span_name)
