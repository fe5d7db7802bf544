"""Round driven simulation core."""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from math import fsum
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .config import SimConfig
from .fleet import Vehicle, make_fleet, ring_distance, step_positions
from .ledger import Ledger
from .pathing import (
    PathAssignment,
    baseline_paths,
    count_handovers,
    grow_paths,
    occurrence,
    retain_paths,
    settle,
)
from .radio import link_quality, make_link_stats
from .selection import RowText, select_maps, selection_probabilities, table_digest
from .trust import TrustRecord, detection_rates, inject_sybils, update_trust

BLOCKCHAIN = "blockchain-multipath"

log = logging.getLogger("mapsim")


@dataclass
class RoundMetrics:
    round_index: int
    vehicle_count: int
    elected_maps: int
    flagged_count: int
    avg_handover: float
    max_handover: int
    min_handover: int
    avg_delay_s: float | None
    disconnected: int
    attached: int


@dataclass(frozen=True)
class SelectionEvent:
    """Audit record of one election, in ledger payload form."""

    round_index: int
    elected: tuple[int, ...]
    excluded: tuple[int, ...]
    input_digest: str

    def payload(self) -> dict:
        return {
            "round": self.round_index,
            "elected": list(self.elected),
            "excluded": list(self.excluded),
            "input_digest": self.input_digest,
        }


@dataclass(eq=False)
class SimState:
    """Round state as arrays indexed by identity: 0..n-1, clones appended.

    position, speed and score are float64 arrays, load int64 and flagged
    bool. A new state has zero handover totals and no evidence, MAPs or paths.
    `evidence` holds the next trust pass's (handovers, low SNR, connected,
    observed) arrays. The last round's links are identities x
    min(max_paths, MAP count) arrays in probe order: `link_map` (the MAP,
    -1 in an empty slot), `link_dist` and `link_rank`, the share count the
    link was admitted at; `served` lists the identities that round offered
    paths to and `link_config` is the config it ran under. `row_text` is
    the RowText cache table_digest encodes the election rows through;
    scores must be finite, as its encoding needs. `fleet`,
    `trust` and `last_assignments` are read-only record views, built on
    demand, for the tests and the benchmark's worker and tracer.
    """

    position: np.ndarray
    speed: np.ndarray
    load: np.ndarray
    score: np.ndarray
    flagged: np.ndarray
    attacker_ids: Sequence[int] = ()
    clone_ids: Sequence[int] = ()

    def __post_init__(self) -> None:
        n = len(self.position)
        if any(len(a) != n for a in (self.speed, self.load, self.score, self.flagged)):
            raise ValueError("position, speed, load, score and flagged must have equal lengths")
        if not np.isfinite(self.score).all():
            raise ValueError("score must be finite")
        self.attacker_ids, self.clone_ids = list(self.attacker_ids), list(self.clone_ids)
        self.is_clone = np.isin(np.arange(n), self.clone_ids)
        self.handover_total = np.zeros(n, dtype=np.int64)
        self.evidence = no_evidence(n)
        self.current_maps: list[int] = []
        self.served = np.zeros(0, dtype=np.int64)
        self.link_map = np.full((n, 0), -1, dtype=np.int64)
        self.link_dist = np.zeros((n, 0))
        self.link_rank = np.zeros((n, 0), dtype=np.int64)
        self.link_config: SimConfig | None = None
        self.row_text = RowText(n)

    @property
    def fleet(self) -> tuple[Vehicle, ...]:
        columns = (self.position.tolist(), self.speed.tolist(), self.load.tolist())
        return tuple(map(Vehicle, range(len(self.position)), *columns))

    @property
    def trust(self) -> Mapping[int, TrustRecord]:
        rows = zip(range(len(self.score)), self.score.tolist(), self.flagged.tolist())
        return MappingProxyType({row[0]: TrustRecord(*row) for row in rows})

    @property
    def last_assignments(self) -> Mapping[int, PathAssignment]:
        """Each served identity's paths, their LinkStats rebuilt from the link arrays."""
        out = {}
        for i in self.served.tolist():
            links = zip(self.link_dist[i].tolist(), self.link_map[i].tolist(), self.link_rank[i].tolist())
            # nearest first, as the scalar passes order a vehicle's paths
            stats = tuple(make_link_stats(m, d, self.link_config, k) for d, m, k in sorted(links) if m >= 0)
            out[i] = PathAssignment(i, tuple(s.map_ident for s in stats), stats)
        return MappingProxyType(out)


def no_evidence(n: int) -> tuple[np.ndarray, ...]:
    """Handovers, low SNR, connected and observed for n identities, all unset."""
    return (np.zeros(n, dtype=np.int64),) + tuple(np.zeros(n, dtype=bool) for _ in range(3))


@dataclass
class SimulationReport:
    config: SimConfig
    state: SimState
    round_metrics: list[RoundMetrics]
    ledger: Ledger
    summary: dict
    elapsed_s: float


def initial_state(config: SimConfig, rng: np.random.Generator) -> SimState:
    position, speed, load, attackers, clones = inject_sybils(*make_fleet(config, rng), config, rng)
    n = len(position)
    score = np.full(n, float(config.trust_initial))
    return SimState(position, speed, load, score, np.zeros(n, bool), attackers, clones)


def run_round(
    state: SimState,
    round_index: int,
    config: SimConfig,
    rng,
) -> tuple[SimState, RoundMetrics, SelectionEvent]:
    """Advance one step: move, judge trust, elect, attach, observe."""
    blockchain = config.strategy == BLOCKCHAIN
    n = len(state.position)
    state.position = step_positions(state.position, state.speed, config.dt, config.road_length)

    # trust pass; comparison policies carry no scoring, so nothing ever flags
    was_flagged = state.flagged
    if blockchain:
        state.score, state.flagged = update_trust(
            state.score, state.flagged, *state.evidence[:3], config
        )
    flagged = state.flagged

    # election over the unflagged roster of (ident, load, trust) rows
    roster = np.column_stack((np.arange(n), state.load, state.score))
    table = selection_probabilities(roster[~flagged])
    k = max(1, round(config.map_fraction * (n - int(flagged.sum()))))
    prev_maps = state.current_maps
    retention = blockchain and config.incumbent_retention
    retained = sorted(m for m in prev_maps if not flagged[m]) if retention else []
    elected = retained + select_maps(table, k - len(retained), rng, retained)
    state.current_maps = elected
    is_map = np.zeros(n, dtype=bool)
    is_map[elected] = True

    # path assignment; the one client x MAP distance grid is the only source
    # of link distances
    maps = np.array(sorted(elected), dtype=np.int64)
    served = np.flatnonzero(~(is_map | flagged) if blockchain else ~is_map)
    position = state.position
    dmat = ring_distance(position[served][:, None], position[maps][None, :], config.road_length)
    prev = state.link_map[served]
    r, c, d, rank = attach(config, round_index, rng, n, served, maps, dmat, prev)

    # each vehicle's links, in probe order, into its row of the link arrays;
    # a vehicle holds each MAP at most once
    width = min(config.max_paths, len(maps))
    link_map = np.full((n, width), -1, dtype=np.int64)
    link_dist = np.zeros((n, width))
    link_rank = np.zeros((n, width), dtype=np.int64)
    who, slot = served[r], occurrence(r)
    link_map[who, slot], link_dist[who, slot], link_rank[who, slot] = maps[c], d, rank

    # the first round is a cold start, joining then is not a handover
    if round_index == 0:
        handovers = np.zeros(len(served), dtype=np.int64)
    else:
        handovers = count_handovers(prev, link_map[served])
    sinr, delay = link_quality(d, config)
    per_vehicle = np.bincount(r, minlength=len(served))
    attached = per_vehicle > 0
    low_sinr = np.zeros(len(served), dtype=bool)
    low_sinr[r[sinr < config.sinr_threshold]] = True
    if width <= 2:
        # a sum of at most two positive floats is correctly rounded
        # already, in either order, as fsum's is
        sums = np.bincount(r, weights=delay, minlength=len(served))[attached]
    else:
        grid = np.zeros((len(served), width))
        grid[r, slot] = delay
        sums = np.array([fsum(row) for row in grid[attached].tolist()])
    delays = (sums / per_vehicle[attached]).tolist()

    # the handover metric counts honest identities only; an unserved one
    # gained no path
    counts = np.zeros(n, dtype=np.int64)
    counts[served] = handovers
    population = ~(state.is_clone | is_map)
    counts = counts[population]
    state.handover_total[population] += counts
    n_attached = int(attached.sum())
    metrics = RoundMetrics(
        round_index=round_index,
        vehicle_count=n,
        elected_maps=len(elected),
        flagged_count=int(flagged.sum()),
        avg_handover=int(counts.sum()) / len(counts) if len(counts) else 0.0,
        max_handover=int(counts.max()) if len(counts) else 0,
        min_handover=int(counts.min()) if len(counts) else 0,
        avg_delay_s=fsum(delays) / len(delays) if delays else None,
        disconnected=len(served) - n_attached,
        attached=n_attached,
    )

    # evidence for the next trust pass
    evidence = no_evidence(n)
    if blockchain:
        obs_h, obs_low, obs_conn, observed = evidence
        obs_conn[elected] = observed[elected] = True
        obs_h[served], obs_low[served], obs_conn[served] = handovers, low_sinr, attached
        observed[served] = True
        if state.clone_ids:
            # two draws per clone every round, handover then weak link, in
            # clone order, flagged or not, so the stream stays stable
            draws = rng.random(2 * len(state.clone_ids))
            live = ~flagged[state.clone_ids]
            clones = np.array(state.clone_ids)[live]
            obs_h[clones] += (draws[0::2] < config.sybil_handover_prob)[live]
            obs_low[clones] |= (draws[1::2] < config.sybil_low_sinr_prob)[live]
            observed[clones] = True
    state.evidence = evidence
    state.served, state.link_config = served, config
    state.link_map, state.link_dist, state.link_rank = link_map, link_dist, link_rank

    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "round %d: elected %d (%d new), flagged %d (%d new), attached %d, disconnected %d",
            round_index, len(elected), len(set(elected) - set(prev_maps)),
            metrics.flagged_count, int((flagged & ~was_flagged).sum()),
            metrics.attached, metrics.disconnected,
        )
    excluded = tuple(np.flatnonzero(flagged).tolist())
    event = SelectionEvent(round_index, tuple(elected), excluded, table_digest(table, state.row_text))
    return state, metrics, event


def attach(config: SimConfig, round_index: int, rng, n: int, served, maps, dmat, prev):
    """The round's links as (rows, cols, dist, rank) arrays, in probe order.

    Row v is identity served[v] of n, column j is MAP maps[j] (ascending),
    dmat is their distance grid and prev[v] row v's previous MAPs, -1
    padded. A link's rank is the share count it was admitted at. Each pass
    speculates that bandwidth admits every probe a probe at the MAP's count
    when the pass starts would admit. settle keeps the rows before the first
    wrong one and hands that row and all later ones to the scalar pass in
    one call (see mapsim.pathing).
    """
    limits = config.limits
    shares = np.zeros(len(maps), dtype=np.int64)

    def scalar(run):
        """settle's hand-off: rows through run(rows, idents, candidates,
        tally), a scalar pass giving each row's new LinkStats, at exact counts."""

        def rerun(rows):
            sub = dmat[rows] < limits.delay
            at, cols = np.nonzero(sub)
            pairs = list(zip(dmat[rows[at], cols].tolist(), maps[cols].tolist()))
            ends = np.cumsum(sub.sum(axis=1)).tolist()
            cands = [pairs[a:b] for a, b in zip([0] + ends, ends)]
            tally = dict(zip(maps.tolist(), shares.tolist()))
            found = run(rows, served[rows].tolist(), cands, tally)
            links = [(v, s.map_ident, s.distance) for v, new in zip(rows.tolist(), found) for s in new]
            shares[:] = list(tally.values())
            r, m, d = zip(*links) if links else ((), (), ())
            return np.array(r, dtype=np.int64), np.searchsorted(maps, m), np.array(d, dtype=float)

        return rerun

    if config.strategy == BLOCKCHAIN:
        # every vehicle re-books its paths before any grows new ones;
        # retention speculates every previous MAP still elected that a
        # first probe would admit
        col_of = np.full(n + 1, -1)  # an empty slot's -1 reads the last entry
        col_of[maps] = np.arange(len(maps))
        pcol = col_of[prev]
        rows, cols = np.nonzero(pcol >= 0)
        cols = pcol[rows, cols]
        dist = dmat[rows, cols]
        keep = dist < limits.limit(1)
        rows, cols, dist = rows[keep], cols[keep], dist[keep]

        def retain(rows, ids, cands, tally):
            for i, had, c in zip(ids, prev[rows].tolist(), cands):
                yield retain_paths(i, [m for m in had if m >= 0], c, make_link_stats, tally, config)

        hr, hc, hd = held = settle(rows, cols, dist, shares, limits, scalar(retain))

        # growth speculates the nearest open MAPs by (distance, ident) that
        # a probe at the retained count would admit; counts only grow
        # a vehicle holds each MAP at most once, so len(maps) caps its slots
        free = min(config.max_paths, len(maps)) - np.bincount(hr, minlength=len(served))
        width = int(free.max(initial=0))
        open_d = np.where(dmat < limits.at(shares + 1), dmat, np.inf)
        open_d[hr, hc] = np.inf
        span = np.arange(len(served))
        pick = np.empty((len(served), width), dtype=np.int64)
        pick_d = np.empty((len(served), width))
        for t in range(width):
            pick[:, t] = j = open_d.argmin(axis=1)
            pick_d[:, t] = open_d[span, j]
            open_d[span, j] = np.inf
        rows, t = np.nonzero((pick_d < np.inf) & (np.arange(width) < free[:, None]))

        def grow(rows, ids, cands, tally):
            # (map, distance, rank) of each held link
            held_links = list(zip(maps[hc].tolist(), hd.tolist(), (occurrence(hc) + 1).tolist()))
            lo, hi = np.searchsorted(hr, rows).tolist(), np.searchsorted(hr, rows + 1).tolist()
            for i, a, b, c in zip(ids, lo, hi, cands):
                mine = [make_link_stats(m, d, config, k) for m, d, k in held_links[a:b]]
                stats = grow_paths(i, mine, c, make_link_stats, tally, config).stats
                yield [s for s in stats if s not in mine]

        grown = settle(rows, pick[rows, t], pick_d[rows, t], shares, limits, scalar(grow))
        rows, cols, dist = (np.concatenate(pair) for pair in zip(held, grown)) if len(hr) else grown
    else:
        # single path policies; only sequence-based admits, and speculates
        # the links a first probe would admit
        rows = np.arange(len(served)) if len(maps) else np.zeros(0, dtype=np.int64)
        if config.strategy == "independent-random":
            cols = rng.integers(0, len(maps), size=len(rows)) if len(rows) else rows
        elif config.strategy == "distance-based":
            cols = dmat.argmin(axis=1) if len(rows) else rows
        else:
            cols = (served[rows] + round_index) % max(1, len(maps))
        dist = dmat[rows, cols]
        if config.strategy == "sequence-based":

            def rotate(rows, ids, cands, tally):
                roster = maps.tolist()
                for i, row in zip(ids, dmat[rows].tolist()):
                    yield baseline_paths(
                        config.strategy, i, round_index, row, roster, make_link_stats, tally, rng, config
                    ).stats

            keep = dist < limits.limit(1)
            rows, cols, dist = settle(rows[keep], cols[keep], dist[keep], shares, limits, scalar(rotate))
    # links are listed in probe order, so a link's rank is one more than the
    # earlier links on its MAP
    return rows, cols, dist, occurrence(cols) + 1


def build_summary(
    config: SimConfig,
    state: SimState,
    rounds: list[RoundMetrics],
    ledger_blocks: int,
) -> dict:
    totals = state.handover_total[~state.is_clone]
    num = 0.0
    den = 0
    for m in rounds:
        if m.avg_delay_s is not None and m.attached > 0:
            num += m.avg_delay_s * m.attached
            den += m.attached
    serve = sum(m.vehicle_count - m.elected_maps - m.flagged_count for m in rounds)
    disc = sum(m.disconnected for m in rounds)
    tpr, fpr = detection_rates(state.flagged, state.is_clone)
    return {
        "strategy": config.strategy,
        "seed": config.rng_seed,
        "rounds": len(rounds),
        "identity_count": len(state.position),
        "fleet_size": len(state.position) - len(state.clone_ids),
        "attacker_count": len(state.attacker_ids),
        "clone_count": len(state.clone_ids),
        "avg_handover": int(totals.sum()) / len(totals) if len(totals) else 0.0,
        "max_handover": int(totals.max()) if len(totals) else 0,
        "min_handover": int(totals.min()) if len(totals) else 0,
        "zero_handover_vehicles": int((totals == 0).sum()),
        "avg_delay_s": (num / den) if den else None,
        "disconnection_rate": (disc / serve) if serve else None,
        "sybil_detection_rate": tpr,
        "false_positive_rate": fpr,
        "flagged_count": int(state.flagged.sum()),
        "ledger_blocks": ledger_blocks,
    }


def run_simulation(config: SimConfig) -> SimulationReport:
    """Run every round under one seed and aggregate the results."""
    start = time.perf_counter()
    rng = np.random.default_rng(config.rng_seed)
    state = initial_state(config, rng)
    ledger = Ledger()
    rounds: list[RoundMetrics] = []
    for r in range(config.rounds()):
        state, metrics, event = run_round(state, r, config, rng)
        rounds.append(metrics)
        ledger.append(r, event.payload())
    elapsed = time.perf_counter() - start
    summary = build_summary(config, state, rounds, len(ledger))
    return SimulationReport(config, state, rounds, ledger, summary, elapsed)
