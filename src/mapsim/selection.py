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
    if len(taken):
        out = np.isin(table.idents, taken)
        weights, draws = np.where(out, 0.0, table.weights), len(out) - int(out.sum())
    else:
        # every baseline round draws with nothing taken
        weights, draws = table.weights.astype(np.float64), len(table.weights)
    # cumsum's running sums, into one buffer, without np.cumsum's dispatch
    acc, accumulate = np.empty_like(weights), np.add.accumulate
    picks: list[int] = []
    for _ in range(min(k, draws)):
        accumulate(weights, out=acc)
        total = acc.item(-1)
        if total <= 0:
            break
        pick = int(acc.searchsorted(rng.random() * total, "right"))
        if pick == len(acc):
            # u reached the total through rounding; the last row neither
            # taken nor drawn wins, whatever its weight
            remaining = ~np.isin(table.idents, taken)
            remaining[picks] = False
            pick = int(remaining.nonzero()[0][-1])
        picks.append(pick)
        weights[pick] = 0.0
    return table.idents[picks].tolist()


class RowText:
    """table_digest's memo for a state's idents 0..n-1: each ident's row text
    with the load and trust bits it encodes, and the idents and digest of the
    last table hashed. A new RowText has hashed no table, so its first
    table_digest call hashes, even for an empty table."""

    def __init__(self, n: int) -> None:
        self.rows = np.full(n, "", dtype=object)
        self.load = np.zeros(n, dtype=np.int64)
        self.trust_bits = np.full(n, -1, dtype=np.int64)  # a NaN, never a table's trust
        self.idents: np.ndarray | None = None
        self.digest = ""


def table_digest(table: CandidateTable, text: RowText) -> str:
    """sha256 of the ident-sorted table as compact JSON [ident, load, trust] rows.

    The bytes of json.dumps(rows, separators=(",", ":")) for finite trust.
    text must cover every ident, as a state's RowText covers its identities.
    Only rows whose load or trust bits differ from text's are encoded anew,
    and a table with no such row and the last hashed table's idents, as a
    baseline round's usually is, returns the last digest unhashed.
    """
    ids, loads, trust = table.idents, table.loads, table.trust
    bits = trust.view(np.int64)
    stale = ((text.load[ids] != loads) | (text.trust_bits[ids] != bits)).nonzero()[0]
    if len(stale):
        at, new = ids[stale], zip(ids[stale].tolist(), loads[stale].tolist(), trust[stale].tolist())
        text.rows[at] = [f"[{i},{n},{t!r}]" for i, n, t in new]
        text.load[at], text.trust_bits[at] = loads[stale], bits[stale]
    elif text.idents is not None and len(text.idents) == len(ids) and (text.idents == ids).all():
        # every row's text is as last hashed
        return text.digest
    text.idents = ids.copy()
    text.digest = hashlib.sha256(("[" + ",".join(text.rows[ids].tolist()) + "]").encode()).hexdigest()
    return text.digest
