"""Behaviour driven trust scores and sybil clone injection."""

from __future__ import annotations

from dataclasses import dataclass

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


def update_trust(
    score: np.ndarray, flagged: np.ndarray, handovers: np.ndarray,
    low_sinr: np.ndarray, connected: np.ndarray, config: SimConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply one round of evidence to every identity; returns (score, flagged).

    Arrays are indexed by identity; an unobserved identity has no handovers,
    no low SNR and no connection. Handovers and poor signal cost points, a
    quiet connected round earns a small reward. Scores clamp to [0, 100]. A
    flag is permanent and freezes the score, so flagged identities cannot
    launder their history. The float operations run in the scalar rule's order.
    """
    delta = np.where(handovers > 0, 0.0 - config.handover_penalty * handovers, 0.0)
    delta = np.where(low_sinr, delta - config.low_sinr_penalty, delta)
    quiet = connected & (handovers == 0) & ~low_sinr
    delta = np.where(quiet, delta + config.stability_reward, delta)
    raw = score + delta
    raw = np.where(raw > 0.0, raw, 0.0)
    new = np.where(flagged, score, np.where(raw < 100.0, raw, 100.0))
    return new, flagged | (new <= config.trust_threshold)


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
    flagged: np.ndarray, is_sybil: np.ndarray
) -> tuple[float | None, float | None]:
    """True and false positive rates of the per-identity flags against ground truth.

    Returns None for a rate whose denominator is empty.
    """
    def rate(mask: np.ndarray) -> float | None:
        return int(flagged[mask].sum()) / int(mask.sum()) if mask.any() else None

    return rate(is_sybil), rate(~is_sybil)
