"""Behaviour driven trust scores and sybil clone injection."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .config import SimConfig
from .fleet import Vehicle


@dataclass(frozen=True)
class TrustObservation:
    """What the network saw a vehicle do during one round."""

    handovers: int = 0
    low_sinr: bool = False
    connected: bool = False


@dataclass(frozen=True)
class TrustRecord:
    ident: int
    score: float
    flagged: bool = False


def update_trust(record: TrustRecord, obs: TrustObservation, config: SimConfig) -> TrustRecord:
    """Apply one round of evidence.

    Handovers and poor signal cost points, a quiet connected round earns a
    small reward. Scores clamp to [0, 100]. A flag is permanent and freezes
    the score, so flagged identities cannot launder their history.
    """
    if record.flagged:
        return record
    delta = 0.0
    if obs.handovers > 0:
        delta -= config.handover_penalty * obs.handovers
    if obs.low_sinr:
        delta -= config.low_sinr_penalty
    if obs.connected and obs.handovers == 0 and not obs.low_sinr:
        delta += config.stability_reward
    score = min(100.0, max(0.0, record.score + delta))
    flagged = score <= config.trust_threshold
    return TrustRecord(record.ident, score, flagged)


def inject_sybils(
    fleet: list[Vehicle],
    config: SimConfig,
    rng: np.random.Generator,
) -> tuple[list[Vehicle], list[int], list[int]]:
    """Append cloned identities for a randomly chosen set of attackers.

    Each clone copies the attacker's position and speed so the pair stays
    co-located, advertises the maximum load, and gets a fresh identity
    appended after the honest range. Returns (extended fleet, attacker ids,
    clone ids), where clone j mirrors attackers[j // sybil_clones].
    Attackers themselves keep their original records.
    """
    count = len(fleet)
    n_attackers = int(config.sybil_fraction * count)
    if n_attackers == 0 or config.sybil_clones == 0:
        return list(fleet), [], []
    order = rng.permutation(count)
    attackers = sorted(int(i) for i in order[:n_attackers])
    out = list(fleet)
    clones: list[int] = []
    next_id = count
    for a in attackers:
        src = fleet[a]
        for _ in range(config.sybil_clones):
            out.append(Vehicle(next_id, src.position, src.speed, config.load_max))
            clones.append(next_id)
            next_id += 1
    return out, attackers, clones


def detection_rates(
    records: Iterable[TrustRecord],
    truth: set[int],
) -> tuple[float | None, float | None]:
    """True and false positive rates of the flagging against ground truth.

    Returns None for a rate whose denominator is empty.
    """
    recs = list(records)
    sybil = [r for r in recs if r.ident in truth]
    honest = [r for r in recs if r.ident not in truth]
    tpr = sum(1 for r in sybil if r.flagged) / len(sybil) if sybil else None
    fpr = sum(1 for r in honest if r.flagged) / len(honest) if honest else None
    return tpr, fpr
