"""Trust weighted election of access points."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .ledger import canonical_payload


@dataclass(frozen=True, eq=False)
class CandidateTable:
    """Election input after filtering, ident-sorted, as parallel arrays."""

    idents: np.ndarray
    loads: np.ndarray
    trust: np.ndarray
    weights: np.ndarray
    probabilities: np.ndarray


def selection_probabilities(entries, trust_threshold: float = 0.0) -> CandidateTable:
    """Weight each candidate by load times trust and normalise.

    entries are (ident, load, trust) rows: an n x 3 array or any sequence
    of triples. Candidates at or below trust_threshold never make the
    table. The total is the sequential sum, as select_maps' scan adds it up.
    """
    rows = np.asarray(entries, dtype=np.float64).reshape(-1, 3)
    rows = rows[rows[:, 2] > trust_threshold]
    rows = rows[np.argsort(rows[:, 0], kind="stable")]
    idents, loads, trust = rows[:, 0].astype(np.int64), rows[:, 1].astype(np.int64), rows[:, 2]
    weights = rows[:, 1] * trust
    total = np.cumsum(weights)[-1] if len(weights) else 0.0
    probabilities = weights / total if total > 0 else np.zeros_like(weights)
    return CandidateTable(idents, loads, trust, weights, probabilities)


def select_maps(table: CandidateTable, k: int, rng) -> list[int]:
    """Draw up to k distinct winners, renormalising after each draw.

    rng needs only a random() method returning a uniform variate in
    [0, 1); one is consumed per winner. Weights must be nonnegative. Each
    draw scans the sequential running sums of the remaining weights, the
    same floats whatever the platform or Python version; a winner's weight
    is zeroed, which leaves every running sum of the others unchanged.
    """
    weights = table.weights.copy()
    remaining = np.ones(len(weights), dtype=bool)
    winners: list[int] = []
    for _ in range(min(k, len(weights))):
        acc = np.cumsum(weights)
        total = acc[-1]
        if total <= 0:
            break
        u = rng.random() * total
        pick = int(np.searchsorted(acc, u, side="right"))
        if pick == len(acc):
            # u reached the total through rounding; the last remaining wins
            pick = int(np.flatnonzero(remaining)[-1])
        winners.append(int(table.idents[pick]))
        weights[pick] = 0.0
        remaining[pick] = False
    return winners


def table_digest(table: CandidateTable) -> str:
    """Digest of the election input, for the audit trail."""
    rows = list(zip(table.idents.tolist(), table.loads.tolist(), table.trust.tolist()))
    return hashlib.sha256(canonical_payload(rows)).hexdigest()
