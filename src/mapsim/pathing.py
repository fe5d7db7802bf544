"""Path admission under delay and bandwidth bounds.

`attach` gives a round's links, one straight path per policy. The single
path policies take one link per client, as `baseline_paths` defines them;
independent-random and distance-based never read the limit table.
blockchain-multipath runs two passes over the served vehicles in identity
order: first every vehicle re-books the paths it already holds, then
remaining slots are filled nearest first among the MAPs under the delay
bound. Incumbents therefore never lose a slot to a newcomer, which is
what keeps handover counts low.

The model has no co-channel interference, so a link's delay and SNR depend
on its length alone and its bandwidth on its length and share count, and
none of them improves as either grows. Every admission test is therefore a
comparison `d < limit` against a threshold distance that depends only on
the config and the share count (`AdmissionLimits`, shared through
`limits(config)` by every config that differs only in seed or strategy):
the delay bound's, then a running minimum as the bandwidth floor tightens
with the count, each found once by bisection with the scalar radio
functions.

Each pass runs as array operations on links as (identity, MAP identity,
distance) arrays, with share counts indexed by MAP identity, so
`resolve`'s rows are vehicle identities and its columns MAP identities.
A link's distance is the ring distance of its pair; between(who[:, None],
maps) is a client x MAP grid, which distance-based builds over every
client. Growth reads the vehicles with a free slot after retention only:
a grid up to GRID_CELLS cells, and above it each vehicle's window of the
MAPs in reach (fleet.ring_window), whose columns keep ident order and
whose pads are inf, so both give the same links.
A speculation takes the links the remaining vehicles would take if every
probe ran at its MAP's current count. Counts only grow, so it errs only by
admitting a probe the exact count turns away, and its first vehicle, which
holds each MAP at most once, is always right.
`resolve` checks each speculated link at its probe rank, the share count
it would be probed at, admits the vehicles before the first one holding a
link at or over its limit and speculates again from that one on. The
scalar passes (`retain_paths`, `grow_paths`, `baseline_paths`) are the
reference definition the tests hold the array passes to, and
`count_handovers` that of a handover; the engine calls none of them.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .config import STRATEGIES, SimConfig
from .fleet import ring_distance, ring_window
from .radio import LinkStats, compute_sinr, link_bandwidth, path_delay

# growth over more client x MAP cells than this reads each client's MAPs in
# reach (fleet.ring_window) in place of the grid; below it the grid is faster
GRID_CELLS = 2**16


@dataclass(frozen=True)
class PathAssignment:
    vehicle: int
    paths: tuple[int, ...]
    stats: tuple[LinkStats, ...]


def admits(stats: LinkStats, config: SimConfig) -> bool:
    return stats.total_delay < config.delay_threshold and stats.bandwidth >= config.bandwidth_min


def count_handovers(prev, new):
    """Paths held now that were not held before.

    prev and new hold MAP identities, -1 in an empty slot; on two rows of
    arrays the count is per row.
    """
    prev, new = np.asarray(prev), np.asarray(new)
    fresh = new >= 0
    for j in range(prev.shape[-1]):
        fresh &= new != prev[..., j, None]
    return np.count_nonzero(fresh, axis=-1)


def threshold(passes: Callable[[float], bool], reach: float) -> float:
    """Least distance in [0, reach] at which `passes` fails; inf if none does.

    `passes` must hold below some distance and fail from it on. Then, for
    every d in [0, reach], `d < threshold(passes, reach)` equals passes(d).
    Non-negative float64s order as their bit patterns do, so this bisects
    over the bit patterns of [0, reach], calling the scalar predicate itself.
    """
    if passes(reach):
        return math.inf
    if not passes(0.0):
        return 0.0
    lo, hi = 0, _bits(reach)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if passes(_float(mid)):
            lo = mid
        else:
            hi = mid
    return _float(hi)


def _bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


class AdmissionLimits:
    """Threshold distances of one config's admission rule.

    No ring distance exceeds half the road length, so the limits are exact
    on [0, road_length / 2]. table[c] bounds a probe at share count c, a
    float64 array grown as counts are first asked for; table[0] bounds the
    link delay alone. A probe must meet the delay bound and the bandwidth
    floor, and the floor only tightens as the count grows, so table[c] is
    the running minimum of table[c - 1] and where count c's bandwidth
    fails, bisected in full by `threshold`. Past a 0.0 entry no probe is
    admitted and the table stops. `pathing.limits(config)` shares one
    instance among the configs of one rule.
    """

    def __init__(self, config: SimConfig) -> None:
        self.config = config
        self.reach = config.road_length / 2

        def in_time(d: float) -> bool:
            return path_delay(d, compute_sinr(d, config), config) < config.delay_threshold

        self.table = np.array([threshold(in_time, self.reach)])

    def at(self, counts: np.ndarray) -> np.ndarray:
        """Distance under which a probe at each share count is admitted."""
        cfg = self.config
        while len(self.table) <= counts.max(initial=0) and self.table[-1] > 0.0:
            count, bound = len(self.table), float(self.table[-1])

            def wide(d: float) -> bool:
                return link_bandwidth(compute_sinr(d, cfg), count, cfg) >= cfg.bandwidth_min

            self.table = np.append(self.table, min(bound, threshold(wide, min(bound, self.reach))))
        return self.table.take(counts, mode="clip")


# one table per rule, keyed by the whole config with seed and strategy
# normalised, so a field added later is part of the rule
_rule_limits = lru_cache(maxsize=32)(AdmissionLimits)


@lru_cache(maxsize=128)
def limits(config: SimConfig) -> AdmissionLimits:
    """The admission rule's threshold distances, shared across rng_seed and strategy."""
    # a config met before skips the rule key's replace(), which validates anew
    return _rule_limits(config.replace(rng_seed=0, strategy=STRATEGIES[0]))


def occurrence(keys: np.ndarray) -> np.ndarray:
    """Each element's position among the earlier elements with its key."""
    span = np.arange(len(keys))
    # unique composite keys sort the same with or without stability
    order = (keys * len(keys) + span).argsort()
    ranked = keys[order]
    out = np.empty_like(span)
    # in key order an element's occurrence is its index less its key's first index
    out[order] = span - ranked.searchsorted(ranked)
    return out


def resolve(
    speculate: Callable[[int], tuple[np.ndarray, ...]],
    counts: np.ndarray,
    limits: AdmissionLimits,
) -> tuple[np.ndarray, ...]:
    """Admit one pass's links at exact share counts.

    counts[col] is each MAP's attach count, updated in place as rows are
    admitted. speculate(start) returns the links (rows ascending, cols,
    dist) that rows start onward would take if each probe ran at its MAP's
    current count. A link's probe rank is its MAP's count plus the earlier
    links on it, plus one. The rows before the first link at or over the
    limit at its rank are admitted and speculation restarts from that row,
    which is then right, so each iteration admits at least one row. A
    restart that does not move past the previous start, as rows out of
    order can give, raises ValueError.

    Returns the admitted links as (rows, cols, dist), rows ascending.
    """
    parts, start = [], 0
    while True:
        rows, cols, dist = links = speculate(start)
        if not len(rows):
            break
        top = counts + np.bincount(cols, minlength=len(counts))
        # a link's rank is at most its MAP's final count and limits never
        # rise with the count, so links all under the limit at their MAP's
        # final count are under it at their own ranks
        if (dist >= limits.at(top[cols])).any():
            rank = counts[cols] + occurrence(cols) + 1
            bad = (dist >= limits.at(rank)).nonzero()[0]
            if len(bad):
                last, start = start, int(rows[bad[0]])
                if start <= last:
                    raise ValueError(f"speculation from row {last} restarts at row {start}, not past it")
                stop = int(rows.searchsorted(start))
                counts += np.bincount(cols[:stop], minlength=len(counts))
                parts.append((rows[:stop], cols[:stop], dist[:stop]))
                continue
        counts[:] = top
        break
    return tuple(np.concatenate(pair) for pair in zip(*parts, links)) if parts else links


def attach(config: SimConfig, round_index: int, rng, served, maps, position, prev):
    """The round's links as (identity, MAP, distance) arrays in probe order, and a count.

    served and maps (ascending) are the round's clients and MAPs, position
    is indexed by identity and prev holds the previous round's links as
    (identity, MAP) arrays in probe order. The held links, as many as the
    count, lead, then the grown ones.
    """

    def between(who, to):
        return ring_distance(position[who], position[to], config.road_length)

    # the single path policies offer each client one link, none without a MAP
    single = served if len(maps) else served[:0]
    if config.strategy == "independent-random":
        to = maps[rng.integers(0, len(maps), size=len(single))] if len(single) else single
        return single, to, between(single, to), 0
    if config.strategy == "distance-based":
        to = maps[between(single[:, None], maps).argmin(axis=1)] if len(single) else single
        return single, to, between(single, to), 0

    rule = limits(config)
    shares = np.zeros(len(position), dtype=np.int64)

    def admitted(who, to, dist):
        """Speculation over fixed candidate links, identities ascending."""

        def speculate(start):
            at = who.searchsorted(start)
            w, t, d = who[at:], to[at:], dist[at:]
            keep = d < rule.at(shares[t] + 1)
            return w[keep], t[keep], d[keep]

        return speculate

    if config.strategy == "sequence-based":
        to = maps[(single + round_index) % max(1, len(maps))]
        return *resolve(admitted(single, to, between(single, to)), shares, rule), 0

    # every vehicle re-books its paths before any grows new ones; the
    # candidates are its previous links to MAPs still elected, in probe order
    who, to = prev
    role = np.zeros(len(position), dtype=np.int8)
    role[served], role[maps] = 1, 2
    live = (role[who] == 1) & (role[to] == 2)
    order = who[live].argsort(kind="stable")
    who, to = who[live][order], to[live][order]
    hw, ht, _ = held = resolve(admitted(who, to, between(who, to)), shares, rule)

    # growth takes the nearest open MAPs by (distance, ident) for the
    # vehicles with a free slot; a vehicle holds each MAP at most once,
    # so len(maps) caps its slots, and its held MAPs are never open
    free = min(config.max_paths, len(maps)) - np.bincount(hw, minlength=len(position))
    grows = served[free[served] > 0]
    keep = free[hw] > 0
    held_row, held_col = grows.searchsorted(hw[keep]), maps.searchsorted(ht[keep])
    windowed = len(grows) * len(maps) > GRID_CELLS
    if windowed:
        # no probe at or past rule.at(1) is admitted, so a vehicle's
        # candidates are the MAPs in reach: window[i] indexes maps by ident,
        # padded with len(maps) at inf
        reach = float(rule.at(np.array(1)))
        window, dmat = ring_window(position[grows], position[maps], reach, config.road_length)
        # a held MAP is in reach, so in its row, after the row's lower indices
        held_col = (window[held_row] < held_col[:, None]).sum(axis=1)
    else:
        dmat = between(grows[:, None], maps)
    dmat[held_row, held_col] = np.inf
    free = free[grows]
    width = int(free.max(initial=0))

    def grow(start):
        at = grows.searchsorted(start)
        view = dmat[at:]
        bound = rule.at(shares[maps] + 1)
        if windowed:
            # each cell's MAP's limit; a pad, at inf, admits nothing
            bound = np.append(bound, 0.0)[window[at:]]
        open_d = np.where(view < bound, view, np.inf)
        span = np.arange(len(view))
        pick = np.empty((len(view), width), dtype=np.int64)
        pick_d = np.empty((len(view), width))
        for t in range(width):
            pick[:, t] = j = open_d.argmin(axis=1)
            pick_d[:, t] = open_d[span, j]
            open_d[span, j] = np.inf
        rows, t = ((pick_d < np.inf) & (np.arange(width) < free[at:, None])).nonzero()
        cols = window[rows + at, pick[rows, t]] if windowed else pick[rows, t]
        return grows[rows + at], maps[cols], pick_d[rows, t]

    grown = resolve(grow, shares, rule)
    return *(np.concatenate(pair) for pair in zip(held, grown)), len(hw)


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
        j = (vehicle + round_index) % len(roster)
    else:
        raise ValueError(f"unknown baseline strategy: {strategy}")
    pick = roster[j]
    stats = probe(pick, distances[j], config, attach_counts.get(pick, 0) + 1)
    if strategy == "sequence-based" and not admits(stats, config):
        return PathAssignment(vehicle, (), ())
    attach_counts[pick] = attach_counts.get(pick, 0) + 1
    return PathAssignment(vehicle, (pick,), (stats,))
