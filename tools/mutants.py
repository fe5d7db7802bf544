"""Mutation check: each listed edit, applied to a copy of the checkout, must fail a test.

    python tools/mutants.py

Each mutant is one (file, old text, new text, why) edit. The tool copies
this checkout to a temporary directory once, runs the copy's tests
unmutated, then, one mutant at a time, applies the edit to the copy,
runs `pytest -x -q` with the mutated module's own test file first and
restores the file. The edits never touch the checkout. The pinned-byte
tests (`*artifact_bytes_pinned`) and tests/test_artifact_matrix.py are
deselected: they fail on any change of results, so they would kill every
mutant that changes behaviour without naming the direct test that holds
its rule. So is tests/test_mutants.py, which checks this list against the
unmutated sources.

A mutant is killed when the run fails, and the first failing test is
printed; it survives when every test passes. A known survivor carries the
reason it survives, such as an edit that cannot change any result. The
tool exits 1 when a mutant not known to survive does, and 2 when a
mutant's old text does not occur exactly once in its file or the
unmutated tests fail.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
DESELECT = (
    "tests/test_engine.py::test_artifact_bytes_pinned",
    "tests/test_engine.py::test_scarce_bandwidth_artifact_bytes_pinned",
    "tests/test_artifact_matrix.py",
    # checks this list against the sources, which a mutant has just edited
    "tests/test_mutants.py",
)
# the whole suite takes under a minute; a mutant can make resolve loop forever
TIMEOUT_S = 600


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    why: str
    survives: str = ""  # why a known survivor survives; empty for one that must be killed


ENGINE, PATHING = "src/mapsim/engine.py", "src/mapsim/pathing.py"
MUTANTS = (
    Mutant(ENGINE, "population = ~(state.is_clone | is_map)", "population = ~state.is_clone",
           "the handover metric leaves out the round's MAPs"),
    Mutant(ENGINE, "k = max(1, round(config.map_fraction * (n - int(flagged.sum()))))",
           "k = max(1, round(config.map_fraction * n))",
           "the election size counts unflagged identities only"),
    Mutant(ENGINE, "if width <= 2:", "if width <= 3:",
           "bincount's delay sum is correctly rounded for two links at most; three need fsum"),
    Mutant(ENGINE, "handovers = np.bincount(who[held:], minlength=n)", "handovers = np.bincount(who[:held], minlength=n)",
           "a blockchain vehicle's handovers are its grown links, not its held ones"),
    Mutant(ENGINE, "obs_low[who[sinr < config.sinr_threshold]] = True", "obs_low[who[sinr <= config.sinr_threshold]] = True",
           "a link under the SNR threshold is weak evidence",
           survives="an SNR lands exactly on the threshold at one float distance at most, "
           "which no seeded position hits, so no run tells < from <="),
    Mutant(PATHING, "live = (role[who] == 1) & (role[to] == 2)", "live = role[to] == 2",
           "attach: retention re-books the links of served vehicles only"),
    Mutant(PATHING, "held_col = (window[held_row] < held_col[:, None]).sum(axis=1)",
           "held_col = (window[held_row] <= held_col[:, None]).sum(axis=1)",
           "attach: a held MAP's column in its window is the count of lower idents before it"),
    Mutant(PATHING, "dmat[held_row, held_col] = np.inf", "dmat[held_row, held_col] = dmat[held_row, held_col]",
           "attach: growth never offers a vehicle a MAP it already holds"),
    Mutant(PATHING, "(np.arange(width) < free[at:, None])", "(np.arange(width) <= free[at:, None])",
           "attach: a vehicle grows at most its free slots"),
    Mutant(PATHING, "to = maps[(single + round_index) % max(1, len(maps))]",
           "to = maps[(single + round_index + 1) % max(1, len(maps))]",
           "attach: sequence-based vehicle i takes roster entry (i + round) mod roster size"),
    Mutant(PATHING, "bound = np.append(bound, 0.0)[window[at:]]", "bound = np.append(bound, np.inf)[window[at:]]",
           "attach: a window's pad admits nothing",
           survives="a pad's distance is inf, which no bound admits, so the pad's own bound is never read"),
    Mutant(PATHING, "if start <= last:", "if start < last:",
           "resolve: a restart that does not move past its start raises"),
    Mutant(PATHING, "out[order] = span - ranked.searchsorted(ranked)",
           "out[order] = span - ranked.searchsorted(ranked, 'right')",
           "occurrence counts the earlier elements with the same key"),
    Mutant(PATHING, "min(bound, threshold(wide, min(bound, self.reach)))", "threshold(wide, self.reach)",
           "a share count's limit is the running minimum with the delay bound's"),
    Mutant("src/mapsim/fleet.py", "margin = road_length * 1e-9", "margin = 0.0",
           "ring_window widens each arc past rounding error, so no MAP in reach is missed"),
    Mutant("src/mapsim/trust.py", "flagged | (new <= config.trust_threshold)", "flagged | (new < config.trust_threshold)",
           "a score at the trust threshold flags"),
    Mutant("src/mapsim/trust.py", "where=connected & (handovers == 0) & ~low_sinr)", "where=connected & (handovers == 0))",
           "a round with a weak link earns no stability reward"),
    Mutant("src/mapsim/selection.py", 'acc.searchsorted(rng.random() * total, "right")',
           'acc.searchsorted(rng.random() * total, "left")',
           "a draw landing on a running sum picks the next row, as the scalar scan does"),
    Mutant("src/mapsim/selection.py", "and len(text.idents) == len(ids) and (text.idents == ids).all():",
           "and len(text.idents) == len(ids):",
           "table_digest reuses the last digest only for the same idents"),
    Mutant("src/mapsim/ledger.py", "if self.blocks and round_index <= self.blocks[-1].round_index:",
           "if self.blocks and round_index < self.blocks[-1].round_index:",
           "a ledger's rounds strictly increase"),
    Mutant("src/mapsim/ledger.py", "fh.seek(0)\n", "pass\n",
           "from_json's fallback reads the file from its start"),
    Mutant("src/mapsim/radio.py", "return config.b0 * max(1.0, config.sinr_threshold / sinr)",
           "return config.b0 * min(1.0, config.sinr_threshold / sinr)",
           "the quality term grows as the SNR falls under the threshold"),
    Mutant("src/mapsim/config.py", '_require(cfg.rng_seed >= 0, "rng_seed must be non-negative")',
           '_require(cfg.rng_seed >= -1, "rng_seed must be non-negative")',
           "a negative seed is rejected as SimConfig is built"),
)


def occurrences(mutant: Mutant) -> int:
    return (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old)


def failing_test(copy: Path, first: str | None) -> str | None:
    """The first test failing in copy, None when all pass; `first`, a test file, runs first."""
    # listed one by one, as pytest runs a directory's files in name order
    files = sorted(p.relative_to(copy).as_posix() for p in (copy / "tests").glob("test_*.py"))
    files.sort(key=lambda f: f != first)
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *files]
    for prefix in DESELECT:
        cmd += ["--deselect", prefix]
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    try:
        run = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"timed out after {TIMEOUT_S} s"
    if run.returncode == 0:
        return None
    found = re.search(r"^(?:FAILED|ERROR) (\S+)", run.stdout, re.MULTILINE)
    return found.group(1) if found else f"pytest exit {run.returncode}: {run.stdout[-300:]}"


def main() -> int:
    misplaced = [m for m in MUTANTS if occurrences(m) != 1]
    for m in misplaced:
        print(f"{m.file}: the old text of '{m.why}' occurs {occurrences(m)} times, not once: {m.old!r}")
    if misplaced:
        return 2
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(
            ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info")
        )
        broken = failing_test(copy, None)
        if broken:
            print(f"the unmutated tests fail ({broken}); no mutant can be judged")
            return 2
        unexpected = 0
        for m in MUTANTS:
            path = copy / m.file
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace(m.old, m.new), encoding="utf-8")
            start = time.perf_counter()
            try:
                killer = failing_test(copy, f"tests/test_{Path(m.file).stem}.py")
            finally:
                path.write_text(text, encoding="utf-8")
            took = f"{time.perf_counter() - start:5.1f} s"
            if killer:
                note = "; a known survivor now killed, so it must be killed from now on" if m.survives else ""
                print(f"killed   {took}  {m.file}: {m.why}, by {killer}{note}", flush=True)
            elif m.survives:
                print(f"survived {took}  {m.file}: {m.why} (known: {m.survives})", flush=True)
            else:
                unexpected += 1
                print(f"SURVIVED {took}  {m.file}: {m.why}; {m.old!r} -> {m.new!r}", flush=True)
    print(f"{len(MUTANTS)} mutants, {unexpected} that must be killed survived")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
