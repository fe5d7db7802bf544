"""Trust weighted election of access points."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable

from .ledger import canonical_payload


@dataclass(frozen=True)
class CandidateEntry:
    ident: int
    load: int
    trust: float


@dataclass(frozen=True)
class CandidateTable:
    """Election input after filtering, with weights and normalised odds."""

    entries: tuple[CandidateEntry, ...]
    weights: tuple[float, ...]
    probabilities: tuple[float, ...]


def selection_probabilities(
    entries: Iterable[CandidateEntry],
    trust_threshold: float = 0.0,
) -> CandidateTable:
    """Weight each candidate by load times trust and normalise.

    Candidates at or below trust_threshold never make the table.
    """
    kept = tuple(sorted((e for e in entries if e.trust > trust_threshold), key=lambda e: e.ident))
    weights = tuple(e.load * e.trust for e in kept)
    total = sum(weights)
    if total > 0:
        probabilities = tuple(w / total for w in weights)
    else:
        probabilities = tuple(0.0 for _ in weights)
    return CandidateTable(kept, weights, probabilities)


def select_maps(table: CandidateTable, k: int, rng) -> list[int]:
    """Draw up to k distinct winners, renormalising after each draw.

    rng needs only a random() method returning a uniform variate in
    [0, 1); one is consumed per winner. The cumulative scan keeps the draw
    reproducible across platforms.
    """
    pool = list(range(len(table.entries)))
    winners: list[int] = []
    for _ in range(min(k, len(pool))):
        total = sum(table.weights[i] for i in pool)
        if total <= 0:
            break
        u = rng.random() * total
        acc = 0.0
        pick = pool[-1]
        for i in pool:
            acc += table.weights[i]
            if u < acc:
                pick = i
                break
        winners.append(table.entries[pick].ident)
        pool.remove(pick)
    return winners


def table_digest(table: CandidateTable) -> str:
    """Digest of the election input, for the audit trail."""
    rows = [[e.ident, e.load, e.trust] for e in table.entries]
    return hashlib.sha256(canonical_payload(rows)).hexdigest()
