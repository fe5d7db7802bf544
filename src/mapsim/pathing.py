"""Per vehicle path admission under delay and bandwidth bounds.

Attachment runs in two passes over the whole fleet each round: first every
vehicle re-books the paths it already holds, then remaining slots are filled
nearest first, stopping at the first link over the delay bound. Incumbents
therefore never lose a slot to a newcomer, which is what keeps handover
counts low.

Link distances arrive with the candidates, from the engine's one distance
grid; `probe` is `radio.make_link_stats`, called with those distances.

The model has no co-channel interference, so path delay never falls as
distance grows; the nearest-first scan relies on that to stop early.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .config import SimConfig
from .radio import LinkStats


@dataclass(frozen=True)
class PathAssignment:
    vehicle: int
    paths: tuple[int, ...]
    stats: tuple[LinkStats, ...]


def admits(stats: LinkStats, config: SimConfig) -> bool:
    return stats.total_delay < config.delay_threshold and stats.bandwidth >= config.bandwidth_min


def count_handovers(prev: Iterable[int], new: Iterable[int]) -> int:
    """Paths held now that were not held before."""
    return len(set(new) - set(prev))


def retain_paths(
    vehicle: int,
    prev_paths: Sequence[int],
    candidates: Sequence[tuple[float, int]],
    probe: Callable[..., LinkStats],
    attach_counts: dict[int, int],
    config: SimConfig,
) -> list[LinkStats]:
    """Re-book still-qualifying previous paths, nearest first."""
    live = {m: d for d, m in candidates}
    held: list[LinkStats] = []
    order = sorted((live[m], m) for m in set(prev_paths) if m in live)
    for d, m in order:
        if len(held) >= config.max_paths:
            break
        stats = probe(m, d, config, attach_counts.get(m, 0) + 1)
        if admits(stats, config):
            attach_counts[m] = attach_counts.get(m, 0) + 1
            held.append(stats)
    return held


def grow_paths(
    vehicle: int,
    held: Sequence[LinkStats],
    candidates: Sequence[tuple[float, int]],
    probe: Callable[..., LinkStats],
    attach_counts: dict[int, int],
    config: SimConfig,
) -> PathAssignment:
    """Fill remaining slots nearest first, up to the first link over the delay bound.

    Delay never falls with distance and does not depend on how many vehicles
    share the MAP, so one probe at the live attachment count per candidate
    decides both the stop and the bandwidth check. Candidates are
    (distance, map) pairs in any order.
    """
    chosen = list(held)
    taken = {s.map_ident for s in chosen}
    for d, m in sorted(c for c in candidates if c[1] not in taken):
        if len(chosen) >= config.max_paths:
            break
        stats = probe(m, d, config, attach_counts.get(m, 0) + 1)
        if stats.total_delay >= config.delay_threshold:
            break
        if admits(stats, config):
            attach_counts[m] = attach_counts.get(m, 0) + 1
            chosen.append(stats)
    chosen.sort(key=lambda s: (s.distance, s.map_ident))
    return PathAssignment(vehicle, tuple(s.map_ident for s in chosen), tuple(chosen))


def baseline_paths(
    strategy: str,
    vehicle: int,
    ordinal: int,
    round_index: int,
    distances: Sequence[float],
    roster: Sequence[int],
    probe: Callable[..., LinkStats],
    attach_counts: dict[int, int],
    rng,
    config: SimConfig,
) -> PathAssignment:
    """Single path comparison policies over the ident-sorted MAP roster.

    distances[j] is the vehicle's distance to roster[j]. independent-random
    and distance-based (lowest ident on a tie) attach unconditionally to
    their pick; sequence-based rotates through the roster but still has to
    pass the admission rule, dropping the round when it fails.
    """
    if not roster:
        return PathAssignment(vehicle, (), ())
    if strategy == "independent-random":
        j = int(rng.integers(0, len(roster)))
    elif strategy == "distance-based":
        j = distances.index(min(distances))
    elif strategy == "sequence-based":
        j = (ordinal + round_index) % len(roster)
    else:
        raise ValueError(f"unknown baseline strategy: {strategy}")
    pick = roster[j]
    stats = probe(pick, distances[j], config, attach_counts.get(pick, 0) + 1)
    if strategy == "sequence-based" and not admits(stats, config):
        return PathAssignment(vehicle, (), ())
    attach_counts[pick] = attach_counts.get(pick, 0) + 1
    return PathAssignment(vehicle, (pick,), (stats,))
