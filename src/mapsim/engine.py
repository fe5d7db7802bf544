"""Round driven simulation core."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from statistics import fmean

import numpy as np

from .config import SimConfig
from .fleet import Vehicle, make_fleet, step_positions
from .ledger import Ledger
from .pathing import PathAssignment, baseline_paths, count_handovers, grow_paths, retain_paths
from .radio import alpha_trans, make_link_stats
from .selection import CandidateEntry, select_maps, selection_probabilities, table_digest
from .trust import TrustObservation, TrustRecord, detection_rates, inject_sybils, update_trust

BLOCKCHAIN = "blockchain-multipath"


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


@dataclass
class SimState:
    fleet: list[Vehicle]
    trust: dict[int, TrustRecord]
    pending_obs: dict[int, TrustObservation] = field(default_factory=dict)
    current_maps: list[int] = field(default_factory=list)
    last_assignments: dict[int, PathAssignment] = field(default_factory=dict)
    handover_totals: dict[int, int] = field(default_factory=dict)
    attacker_ids: list[int] = field(default_factory=list)
    clone_ids: list[int] = field(default_factory=list)


@dataclass
class SimulationReport:
    config: SimConfig
    state: SimState
    round_metrics: list[RoundMetrics]
    ledger: Ledger
    summary: dict
    elapsed_s: float


def initial_state(config: SimConfig, rng: np.random.Generator) -> SimState:
    fleet = make_fleet(config, rng)
    fleet, attackers, clones = inject_sybils(fleet, config, rng)
    trust = {v.ident: TrustRecord(v.ident, config.trust_initial) for v in fleet}
    clone_set = set(clones)
    totals = {v.ident: 0 for v in fleet if v.ident not in clone_set}
    return SimState(
        fleet=fleet,
        trust=trust,
        handover_totals=totals,
        attacker_ids=attackers,
        clone_ids=clones,
    )


def run_round(
    state: SimState,
    round_index: int,
    config: SimConfig,
    rng,
) -> tuple[SimState, RoundMetrics, SelectionEvent]:
    """Advance one step: move, judge trust, elect, attach, observe."""
    blockchain = config.strategy == BLOCKCHAIN

    state.fleet = step_positions(state.fleet, config.dt, config.road_length)
    idents = [v.ident for v in state.fleet]
    by_ident = {v.ident: v for v in state.fleet}

    # trust pass; comparison policies carry no scoring, so nothing ever flags
    if blockchain:
        for i in idents:
            obs = state.pending_obs.get(i, TrustObservation())
            state.trust[i] = update_trust(state.trust[i], obs, config)
    state.pending_obs = {}
    flagged = {i for i in idents if state.trust[i].flagged}

    # election over the unflagged roster
    eligible = [i for i in idents if i not in flagged]
    k = max(1, round(config.map_fraction * len(eligible)))
    entries = [CandidateEntry(i, by_ident[i].load, float(state.trust[i].score)) for i in eligible]
    table = selection_probabilities(entries)
    if blockchain and config.incumbent_retention:
        retained = sorted(m for m in state.current_maps if m not in flagged)
        need = max(0, k - len(retained))
        retained_set = set(retained)
        pool = selection_probabilities(e for e in entries if e.ident not in retained_set)
        elected = retained + select_maps(pool, need, rng)
    else:
        elected = select_maps(table, k, rng)
    state.current_maps = list(elected)
    elected_set = set(elected)

    # path assignment; the one client x MAP distance grid is the only source
    # of link distances, and its floats equal ring_distance's since fmod on
    # nonnegative doubles is exact
    maps_sorted = sorted(elected)
    served = [
        i for i in idents
        if i not in elected_set and not (blockchain and i in flagged)
    ]
    gaps = np.abs(
        np.array([by_ident[i].position for i in served])[:, None]
        - np.array([by_ident[m].position for m in maps_sorted])[None, :]
    ) % config.road_length
    dmat = np.minimum(gaps, config.road_length - gaps)
    prev_paths = {i: pa.paths for i, pa in state.last_assignments.items()}
    attach_counts: dict[int, int] = {}
    assignments: dict[int, PathAssignment] = {}
    if blockchain:
        # the transmission term alone bounds the delay from below, so a
        # MAP failing it can never be admitted; float64 arithmetic on the
        # grid rounds exactly as alpha_trans does on one distance
        keep = alpha_trans(dmat, config) * dmat < config.delay_threshold
        kept_maps = np.array(maps_sorted)[keep.nonzero()[1]]
        pairs = list(zip(dmat[keep].tolist(), kept_maps.tolist()))
        ends = np.cumsum(keep.sum(axis=1)).tolist()
        candidates_of = {i: pairs[a:b] for i, a, b in zip(served, [0] + ends, ends)}
        held_of = {
            i: retain_paths(
                i, prev_paths.get(i, ()), cand, make_link_stats, attach_counts, config
            )
            for i, cand in candidates_of.items()
        }
        for i, cand in candidates_of.items():
            assignments[i] = grow_paths(
                i, held_of[i], cand, make_link_stats, attach_counts, config
            )
    else:
        ordinal_of = {ident: n for n, ident in enumerate(idents)}
        for i, row in zip(served, dmat.tolist()):
            assignments[i] = baseline_paths(
                config.strategy, i, ordinal_of[i], round_index,
                row, maps_sorted, make_link_stats, attach_counts, rng, config,
            )

    # handover metric counts honest identities only; the first round is a
    # cold start, joining then is not a handover. A vehicle left without an
    # assignment gained no path, so only served vehicles can count any.
    real_handovers = {
        i: 0 if round_index == 0 else count_handovers(prev_paths.get(i, ()), pa.paths)
        for i, pa in assignments.items()
    }
    clone_set = set(state.clone_ids)
    population = [i for i in idents if i not in clone_set and i not in elected_set]
    counts = [real_handovers.get(i, 0) for i in population]
    for i, c in zip(population, counts):
        state.handover_totals[i] = state.handover_totals.get(i, 0) + c

    delays = [
        fmean(s.total_delay for s in pa.stats)
        for pa in assignments.values()
        if pa.paths
    ]
    attached = sum(1 for pa in assignments.values() if pa.paths)
    disconnected = len(assignments) - attached
    metrics = RoundMetrics(
        round_index=round_index,
        vehicle_count=len(idents),
        elected_maps=len(elected),
        flagged_count=len(flagged),
        avg_handover=fmean(counts) if counts else 0.0,
        max_handover=max(counts) if counts else 0,
        min_handover=min(counts) if counts else 0,
        avg_delay_s=fmean(delays) if delays else None,
        disconnected=disconnected,
        attached=attached,
    )

    # evidence for the next trust pass
    if blockchain:
        obs: dict[int, TrustObservation] = {}
        for m in elected:
            obs[m] = TrustObservation(0, False, True)
        for i, pa in assignments.items():
            low = any(s.sinr < config.sinr_threshold for s in pa.stats)
            obs[i] = TrustObservation(real_handovers[i], low, bool(pa.paths))
        # clone misbehaviour draws run every round to keep the stream stable
        for c in state.clone_ids:
            forced_h = 1 if rng.random() < config.sybil_handover_prob else 0
            forced_low = rng.random() < config.sybil_low_sinr_prob
            if state.trust[c].flagged:
                continue
            base = obs.get(c, TrustObservation())
            obs[c] = TrustObservation(
                base.handovers + forced_h,
                base.low_sinr or forced_low,
                base.connected,
            )
        state.pending_obs = obs

    event = SelectionEvent(
        round_index=round_index,
        elected=tuple(elected),
        excluded=tuple(sorted(flagged)),
        input_digest=table_digest(table),
    )
    state.last_assignments = assignments
    return state, metrics, event


def build_summary(
    config: SimConfig,
    state: SimState,
    rounds: list[RoundMetrics],
    ledger_blocks: int,
) -> dict:
    totals = list(state.handover_totals.values())
    num = 0.0
    den = 0
    for m in rounds:
        if m.avg_delay_s is not None and m.attached > 0:
            num += m.avg_delay_s * m.attached
            den += m.attached
    serve = sum(m.vehicle_count - m.elected_maps - m.flagged_count for m in rounds)
    disc = sum(m.disconnected for m in rounds)
    tpr, fpr = detection_rates(state.trust.values(), set(state.clone_ids))
    return {
        "strategy": config.strategy,
        "seed": config.rng_seed,
        "rounds": len(rounds),
        "identity_count": len(state.fleet),
        "fleet_size": len(state.fleet) - len(state.clone_ids),
        "attacker_count": len(state.attacker_ids),
        "clone_count": len(state.clone_ids),
        "avg_handover": fmean(totals) if totals else 0.0,
        "max_handover": max(totals) if totals else 0,
        "min_handover": min(totals) if totals else 0,
        "zero_handover_vehicles": sum(1 for t in totals if t == 0),
        "avg_delay_s": (num / den) if den else None,
        "disconnection_rate": (disc / serve) if serve else None,
        "sybil_detection_rate": tpr,
        "false_positive_rate": fpr,
        "flagged_count": sum(1 for r in state.trust.values() if r.flagged),
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
