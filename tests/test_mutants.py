"""tools/mutants.py's mutant list, checked against the source without running pytest.

A mutant whose old text no longer occurs exactly once, because the code
moved or changed, would make the tool stop before it judges any mutant.
"""

import importlib.util
import inspect
from pathlib import Path

import mapsim.pathing as pathing

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("mutants_tool", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOOL = load_tool()


def test_each_old_text_occurs_exactly_once_in_its_file():
    for m in TOOL.MUTANTS:
        assert TOOL.occurrences(m) == 1, m
        assert m.new != m.old and m.why, m


def test_the_list_holds_the_rules_that_must_be_killed():
    must = {(m.file, m.new) for m in TOOL.MUTANTS if not m.survives}
    assert len(TOOL.MUTANTS) >= 12
    assert {
        ("src/mapsim/engine.py", "population = ~state.is_clone"),
        ("src/mapsim/engine.py", "k = max(1, round(config.map_fraction * n))"),
        ("src/mapsim/engine.py", "if width <= 3:"),
    } <= must
    attach = inspect.getsource(pathing.attach)
    in_attach = [m for m in TOOL.MUTANTS if m.file == "src/mapsim/pathing.py" and m.old in attach and not m.survives]
    assert len(in_attach) >= 3
