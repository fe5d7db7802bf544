"""Trust weighted election of access points."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class CandidateTable:
    """Election input, ascending by ident, as parallel arrays."""

    idents: np.ndarray
    loads: np.ndarray
    trust: np.ndarray
    weights: np.ndarray


def selection_probabilities(load, score, eligible) -> CandidateTable:
    """Weight each eligible identity with positive trust by load times trust.

    load (integers), score (floats) and eligible (bool) are indexed by
    identity, so the table's idents ascend without a sort.
    """
    idents = (eligible & (score > 0)).nonzero()[0]
    loads, trust = load[idents], score[idents]
    return CandidateTable(idents, loads, trust, loads * trust)


def select_maps(table: CandidateTable, k: int, rng, taken=()) -> list[int]:
    """Draw up to k distinct winners, none in taken, renormalising after each draw.

    rng needs only a random() method returning a uniform variate in
    [0, 1); one is consumed per winner. Weights must be nonnegative. Each
    draw scans the sequential running sums of the remaining weights, the
    same floats whatever the platform or Python version. Zeroing a taken
    row's or a winner's weight leaves every other running sum unchanged, so
    the draws equal those from the table without the taken rows; idents in
    taken but not in the table are ignored.
    """
    if k <= 0:
        # most rounds under retention draw no one; skip the np.isin mask
        return []
    # every baseline round draws with nothing taken
    remaining = ~np.isin(table.idents, taken) if len(taken) else np.ones(len(table.idents), dtype=bool)
    weights = np.where(remaining, table.weights, 0.0)
    idents = table.idents.tolist()
    # cumsum's running sums, into one buffer, without np.cumsum's dispatch
    acc, accumulate = np.empty_like(weights), np.add.accumulate
    winners: list[int] = []
    for _ in range(min(k, int(remaining.sum()))):
        accumulate(weights, out=acc)
        total = acc.item(-1)
        if total <= 0:
            break
        pick = int(acc.searchsorted(rng.random() * total, "right"))
        if pick == len(acc):
            # u reached the total through rounding; the last remaining wins
            pick = int(remaining.nonzero()[0][-1])
        winners.append(idents[pick])
        weights[pick] = 0.0
        remaining[pick] = False
    return winners


class RowText:
    """table_digest's row text for idents 0..n-1, with the load and trust bits it encodes."""

    def __init__(self, n: int) -> None:
        self.rows = np.full(n, "", dtype=object)
        self.load = np.zeros(n, dtype=np.int64)
        self.trust_bits = np.full(n, -1, dtype=np.int64)  # a NaN, never a table's trust


def table_digest(table: CandidateTable, text: RowText) -> str:
    """sha256 of the ident-sorted table as compact JSON [ident, load, trust] rows.

    The bytes of json.dumps(rows, separators=(",", ":")) for finite trust.
    text must cover every ident, as a state's RowText covers its identities.
    Only rows whose load or trust bits differ from text's are encoded anew.
    """
    ids, loads, trust = table.idents, table.loads, table.trust
    bits = trust.view(np.int64)
    stale = ((text.load[ids] != loads) | (text.trust_bits[ids] != bits)).nonzero()[0]
    if len(stale):
        at, new = ids[stale], zip(ids[stale].tolist(), loads[stale].tolist(), trust[stale].tolist())
        text.rows[at] = [f"[{i},{n},{t!r}]" for i, n, t in new]
        text.load[at], text.trust_bits[at] = loads[stale], bits[stale]
    return hashlib.sha256(("[" + ",".join(text.rows[ids].tolist()) + "]").encode()).hexdigest()
