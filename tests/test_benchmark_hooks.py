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

from mapsim.config import SimConfig
from mapsim.engine import initial_state, run_round

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_tracer()
SPANS = TRACER.SPANS


def names_looked_up(module):
    """Global names read by the module's functions, nested ones included."""
    found = set()
    stack = [
        obj.__code__ for obj in vars(module).values()
        if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__
    ]
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
    if module_name == "mapsim.engine" and raw.__module__ != module_name:
        # a collaborator patched where the engine imported it only takes
        # effect if the engine looks the name up at call time
        assert attr in names_looked_up(module), span


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
