"""The benchmark patches names in mapsim's modules and reads the round state.

perfbench/tracer.py lists in SPANS every (module, attribute) it wraps for
the duration of a traced run. Deleting or inlining one of them would break
that run without failing anything else, so resolve each one here exactly
as the recorder does. The same holds for the state the tracer and the
worker read: the `trust` and `fleet` record views. The tracer module is
only read, never patched in.
"""

import importlib
import importlib.util
import types
from pathlib import Path

import numpy as np
import pytest

import mapsim.engine as engine
import mapsim.pathing as pathing
from mapsim.config import SimConfig
from mapsim.engine import initial_state, run_round
from mapsim.fleet import ring_distance

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_tracer()
SPANS = TRACER.SPANS
# spans on the scalar passes, which are the reference definition of attach
# and which the engine imports but does not call
SCALAR_PASSES = ("pathing.retain_paths", "pathing.grow_paths", "pathing.baseline_paths")


def names_looked_up(module):
    """Global names read by the module's functions, nested ones included,
    and by the methods and property getters of the classes it defines."""

    def own(obj):
        return getattr(obj, "__module__", None) == module.__name__

    members = list(vars(module).values())
    for cls in [obj for obj in members if isinstance(obj, type) and own(obj)]:
        members.extend(vars(cls).values())
    found = set()
    stack = []
    for obj in members:
        if isinstance(obj, property):
            obj = obj.fget
        if isinstance(obj, types.FunctionType) and own(obj):
            stack.append(obj.__code__)
    while stack:
        code = stack.pop()
        found.update(code.co_names)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return found


@pytest.mark.parametrize("span, module_name, attr", SPANS, ids=[s[0] for s in SPANS])
def test_span_target_resolves_to_a_callable(span, module_name, attr):
    module = importlib.import_module(module_name)
    owner = module
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(module, cls_name)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        raw = raw.__func__
    assert callable(raw), span
    if span in SCALAR_PASSES:
        # still the reference passes, and no engine code reaches them, so the
        # tracer's span on each stays at zero calls
        assert raw is getattr(pathing, attr), span
        assert attr not in names_looked_up(module), span
    elif module_name == "mapsim.engine" and raw.__module__ != module_name:
        # a collaborator patched where the engine imported it only takes
        # effect if the engine looks the name up at call time
        assert attr in names_looked_up(module), span


def test_scalar_passes_are_spans_of_the_tracer():
    assert set(SCALAR_PASSES) <= {name for name, _, _ in SPANS}


@pytest.mark.parametrize("strategy", ["blockchain-multipath", "sequence-based"])
def test_traced_rounds_call_no_scalar_pass(strategy):
    # at b_cap 0.16 attach passes leave the all-clear fast path and resolve
    # re-speculates; the scalar passes still never run
    cfg = SimConfig(road_length=2000.0, total_time=100.0, b_cap=0.16, delay_threshold=30.0,
                    rng_seed=5, strategy=strategy)
    recorder = TRACER.Recorder()
    with recorder.installed():
        engine.run_simulation(cfg)
    assert recorder.calls[recorder.code["engine.run_round"]] == cfg.rounds()
    assert [recorder.calls[recorder.code[name]] for name in SCALAR_PASSES] == [0, 0, 0]


def test_state_surface_the_benchmark_reads():
    # the tracer's newly-flagged count reads state.trust; the worker's seed
    # search counts len(state.fleet)
    cfg = SimConfig(road_length=2000.0, total_time=200.0, rng_seed=5)
    rng = np.random.default_rng(cfg.rng_seed)
    state = initial_state(cfg, rng)
    for r in range(cfg.rounds()):
        maps, flagged = TRACER.Recorder._before_round((state,))
        assert maps == set(state.current_maps)
        assert flagged == TRACER._flagged(state)
        state, _, _ = run_round(state, r, cfg, rng)
        assert TRACER._flagged(state) == set(np.flatnonzero(state.flagged).tolist())
        assert len(state.fleet) == len(state.position)
    assert state.flagged.any()


def test_assignment_surface_the_benchmark_reads():
    # worker.check_assignments reads paths, stats, map_ident, total_delay
    # and bandwidth from state.last_assignments, a view over the link
    # arrays; at b_cap 0.16 bandwidth turns probes away
    cfg = SimConfig(road_length=2000.0, total_time=100.0, b_cap=0.16, delay_threshold=30.0, rng_seed=5)
    rng = np.random.default_rng(cfg.rng_seed)
    state = initial_state(cfg, rng)
    turned_away = 0
    for r in range(cfg.rounds()):
        state, _, _ = run_round(state, r, cfg, rng)
        assignments = state.last_assignments
        assert set(assignments) == set(state.served.tolist())
        for v, pa in assignments.items():
            assert pa.vehicle == v and len(pa.paths) <= cfg.max_paths
            assert pa.paths == tuple(s.map_ident for s in pa.stats)
            for s in pa.stats:
                assert s.total_delay < cfg.delay_threshold
                assert s.bandwidth >= cfg.bandwidth_min
            if len(pa.paths) < cfg.max_paths:
                # a free slot next to a MAP under the delay bound
                d = ring_distance(state.position[v], state.position[state.current_maps], cfg.road_length)
                open_maps = set(np.array(state.current_maps)[d < cfg.limits.limit(0)].tolist())
                turned_away += len(open_maps - set(pa.paths))
    assert turned_away
