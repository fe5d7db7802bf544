"""Behaviour driven trust scores and sybil clone injection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SimConfig


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
    launder their history. The float operations are the scalar rule's; with
    no handovers the penalty term, 0.0 - p * 0, is its starting +0.0.
    """
    delta = 0.0 - config.handover_penalty * handovers
    np.subtract(delta, config.low_sinr_penalty, out=delta, where=low_sinr)
    np.add(delta, config.stability_reward, out=delta, where=connected & (handovers == 0) & ~low_sinr)
    new = np.where(flagged, score, np.minimum(np.maximum(score + delta, 0.0), 100.0))
    return new, flagged | (new <= config.trust_threshold)


def inject_sybils(
    position: np.ndarray, speed: np.ndarray, load: np.ndarray,
    config: SimConfig, rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int], list[int]]:
    """Append cloned identities for a randomly chosen set of attackers.

    Each clone copies the attacker's position and speed so the pair stays
    co-located, advertises the maximum load, and gets a fresh identity
    appended after the honest range. Returns (position, speed, load,
    attacker ids, clone ids), where clone j mirrors
    attackers[j // sybil_clones]. Attackers themselves keep their entries.
    """
    count = len(position)
    n_attackers = int(config.sybil_fraction * count)
    if n_attackers == 0 or config.sybil_clones == 0:
        return position, speed, load, [], []
    attackers = sorted(rng.permutation(count)[:n_attackers].tolist())
    source = np.repeat(attackers, config.sybil_clones)
    position = np.concatenate((position, position[source]))
    speed = np.concatenate((speed, speed[source]))
    load = np.concatenate((load, np.full(len(source), config.load_max, dtype=load.dtype)))
    return position, speed, load, attackers, list(range(count, count + len(source)))


def detection_rates(
    flagged: np.ndarray, is_sybil: np.ndarray
) -> tuple[float | None, float | None]:
    """True and false positive rates of the per-identity flags against ground truth.

    Returns None for a rate whose denominator is empty.
    """
    def rate(mask: np.ndarray) -> float | None:
        return int(flagged[mask].sum()) / int(mask.sum()) if mask.any() else None

    return rate(is_sybil), rate(~is_sybil)
