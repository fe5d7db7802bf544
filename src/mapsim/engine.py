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
from .pathing import PathAssignment, baseline_paths, count_handovers, grow_paths, retain_paths
from .radio import alpha_trans, make_link_stats
from .selection import select_maps, selection_probabilities, table_digest
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
    observed) arrays. `fleet` and `trust` are read-only record views, built
    on demand, for the benchmark's worker and tracer.
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
        self.attacker_ids, self.clone_ids = list(self.attacker_ids), list(self.clone_ids)
        self.is_clone = np.isin(np.arange(n), self.clone_ids)
        self.handover_total = np.zeros(n, dtype=np.int64)
        self.evidence = no_evidence(n)
        self.current_maps: list[int] = []
        self.last_assignments: dict[int, PathAssignment] = {}

    @property
    def fleet(self) -> tuple[Vehicle, ...]:
        columns = (self.position.tolist(), self.speed.tolist(), self.load.tolist())
        return tuple(map(Vehicle, range(len(self.position)), *columns))

    @property
    def trust(self) -> Mapping[int, TrustRecord]:
        rows = zip(range(len(self.score)), self.score.tolist(), self.flagged.tolist())
        return MappingProxyType({row[0]: TrustRecord(*row) for row in rows})


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
    if blockchain and config.incumbent_retention:
        retained = sorted(m for m in prev_maps if not flagged[m])
        in_pool = ~flagged
        in_pool[retained] = False
        pool = selection_probabilities(roster[in_pool])
        elected = retained + select_maps(pool, max(0, k - len(retained)), rng)
    else:
        elected = select_maps(table, k, rng)
    state.current_maps = elected
    is_map = np.zeros(n, dtype=bool)
    is_map[elected] = True

    # path assignment; the one client x MAP distance grid is the only source
    # of link distances
    maps_sorted = sorted(elected)
    served = np.flatnonzero(~(is_map | flagged) if blockchain else ~is_map)
    ids = served.tolist()
    position = state.position
    dmat = ring_distance(position[served][:, None], position[maps_sorted][None, :], config.road_length)
    last = state.last_assignments
    prev = [last[i].paths if i in last else () for i in ids]
    attach_counts: dict[int, int] = {}
    if blockchain:
        # the transmission term alone bounds the delay from below, so a
        # MAP failing it can never be admitted; float64 arithmetic on the
        # grid rounds exactly as alpha_trans does on one distance
        keep = alpha_trans(dmat, config) * dmat < config.delay_threshold
        kept_maps = np.array(maps_sorted)[keep.nonzero()[1]]
        pairs = list(zip(dmat[keep].tolist(), kept_maps.tolist()))
        ends = np.cumsum(keep.sum(axis=1)).tolist()
        cands = [pairs[a:b] for a, b in zip([0] + ends, ends)]
        # every vehicle re-books its paths before any grows new ones
        held = [
            retain_paths(i, p, c, make_link_stats, attach_counts, config)
            for i, p, c in zip(ids, prev, cands)
        ]
        found = [
            grow_paths(i, h, c, make_link_stats, attach_counts, config)
            for i, h, c in zip(ids, held, cands)
        ]
    else:
        found = [
            baseline_paths(
                config.strategy, i, round_index,
                row, maps_sorted, make_link_stats, attach_counts, rng, config,
            )
            for i, row in zip(ids, dmat.tolist())
        ]

    # the first round is a cold start, joining then is not a handover
    if round_index == 0:
        handovers = [0] * len(ids)
    else:
        handovers = [count_handovers(p, pa.paths) for p, pa in zip(prev, found)]
    low_sinr = [any(s.sinr < config.sinr_threshold for s in pa.stats) for pa in found]
    attached = [bool(pa.paths) for pa in found]
    delays = [fsum(s.total_delay for s in pa.stats) / len(pa.stats) for pa in found if pa.paths]

    # the handover metric counts honest identities only; an unserved one
    # gained no path
    counts = np.zeros(n, dtype=np.int64)
    counts[served] = handovers
    population = ~(state.is_clone | is_map)
    counts = counts[population]
    state.handover_total[population] += counts
    n_attached = sum(attached)
    metrics = RoundMetrics(
        round_index=round_index,
        vehicle_count=n,
        elected_maps=len(elected),
        flagged_count=int(flagged.sum()),
        avg_handover=int(counts.sum()) / len(counts) if len(counts) else 0.0,
        max_handover=int(counts.max()) if len(counts) else 0,
        min_handover=int(counts.min()) if len(counts) else 0,
        avg_delay_s=fsum(delays) / len(delays) if delays else None,
        disconnected=len(ids) - n_attached,
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
    state.last_assignments = dict(zip(ids, found))

    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "round %d: elected %d (%d new), flagged %d (%d new), attached %d, disconnected %d",
            round_index, len(elected), len(set(elected) - set(prev_maps)),
            metrics.flagged_count, int((flagged & ~was_flagged).sum()),
            metrics.attached, metrics.disconnected,
        )
    excluded = tuple(np.flatnonzero(flagged).tolist())
    event = SelectionEvent(round_index, tuple(elected), excluded, table_digest(table))
    return state, metrics, event


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
