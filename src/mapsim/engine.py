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
from .fleet import Vehicle, make_fleet, step_positions
from .ledger import Ledger
from .pathing import PathAssignment, attach, occurrence
# not called here; the benchmark's tracer wraps the reference passes on this module
from .pathing import baseline_paths, count_handovers, grow_paths, retain_paths  # noqa: F401
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

    position, speed and score are float64 arrays, load and clone_ids int64
    and flagged bool. A new state has zero handover totals and no evidence,
    MAPs or paths. `evidence` holds the next trust pass's (handovers, low
    SNR, connected) arrays, which a blockchain round sets for each unflagged
    identity; a baseline round leaves them unset. The last round's MAPs
    are `maps`, ascending, its links `links`, attach's (identity, MAP,
    distance) arrays in probe order, and `served` the identities it
    offered paths to under `link_config`; each link is kept only there.
    `row_text` is the RowText memo table_digest encodes the election rows
    through: each identity's row text, and the idents and digest of the
    last table hashed, which a round whose table is unchanged returns
    unhashed; scores must be finite, as its encoding needs.
    `current_maps`, `fleet`, `trust` and `last_assignments` are read-only
    views, built on demand, for the tests and the benchmark's worker and
    tracer.
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
        if self.flagged.dtype != bool:
            raise ValueError(f"flagged must be a bool array, got {self.flagged.dtype}")
        if not np.issubdtype(self.load.dtype, np.integer):
            raise ValueError(f"load must be an integer array, got {self.load.dtype}")
        # the election weighs load x trust, so a load under 1 can zero its
        # total; SimConfig's load_max caps loads at 2**53 for the same reason
        if len(self.load) and not (self.load.min() >= 1 and self.load.max() <= 2**53):
            raise ValueError(f"load must lie in 1..2**53, got {self.load.min()}..{self.load.max()}")
        if self.score.dtype != np.float64 or not np.isfinite(self.score).all():
            raise ValueError("score must be finite and float64")
        self.attacker_ids, clone_ids = list(self.attacker_ids), list(self.clone_ids)
        for name, ids in (("attacker_ids", self.attacker_ids), ("clone_ids", clone_ids)):
            whole = all(isinstance(i, (int, np.integer)) and type(i) is not bool for i in ids)
            if not whole or len(set(ids)) != len(ids) or not all(0 <= i < n for i in ids):
                raise ValueError(f"{name} must list distinct identities in 0..{n - 1}")
        self.clone_ids = np.array(clone_ids, dtype=np.int64)
        self.is_clone = np.isin(np.arange(n), self.clone_ids)
        self.handover_total = np.zeros(n, dtype=np.int64)
        self.evidence = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        self.maps = self.served = np.zeros(0, dtype=np.int64)
        self.links = (self.served, self.served, np.zeros(0))
        self.link_config: SimConfig | None = None
        self.row_text = RowText(n)

    current_maps = property(lambda self: self.maps.tolist())

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
        who, to, dist = self.links
        # a link's rank is one more than the earlier links on its MAP in probe
        # order; a vehicle's paths run nearest first, as the scalar passes order them
        order = np.lexsort((to, dist, who))
        stats = dict.fromkeys(self.served.tolist(), ())
        for i, m, d, k in zip(*(a[order].tolist() for a in (who, to, dist, occurrence(to) + 1))):
            stats[i] += (make_link_stats(m, d, self.link_config, k),)
        return MappingProxyType({i: PathAssignment(i, tuple(s.map_ident for s in st), st) for i, st in stats.items()})


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
            state.score, state.flagged, *state.evidence, config
        )
    flagged = state.flagged

    # election over the unflagged identities
    table = selection_probabilities(state.load, state.score, ~flagged)
    k = max(1, round(config.map_fraction * (n - int(flagged.sum()))))
    prev_maps = state.maps
    retained = prev_maps[~flagged[prev_maps]].tolist() if blockchain and config.incumbent_retention else []
    elected = retained + select_maps(table, k - len(retained), rng, retained)
    maps = np.array(sorted(elected), dtype=np.int64)
    is_map = np.zeros(n, dtype=bool)
    is_map[maps] = True

    # pathing.attach assigns paths to the unflagged non-MAPs, as comparison
    # policies never flag
    served = (~(is_map | flagged)).nonzero()[0]
    who_prev, to_prev, _ = state.links
    who, to, d, held = attach(config, round_index, rng, served, maps, state.position, (who_prev, to_prev))

    # the first round is a cold start, joining then is not a handover; a
    # blockchain one is a grown link, as growth fails a MAP retention turned
    # away, and a baseline one, of one link at most, a link to a new MAP
    if round_index == 0:
        handovers = np.zeros(n, dtype=np.int64)
    elif blockchain:
        handovers = np.bincount(who[held:], minlength=n)
    else:
        prev_map = np.full(n, -1)
        prev_map[who_prev] = to_prev
        handovers = np.bincount(who[prev_map[who] != to], minlength=n)
    sinr, delay = link_quality(d, config)
    per_vehicle = np.bincount(who, minlength=n)
    attached = per_vehicle > 0
    width = int(per_vehicle.max(initial=0))
    if width <= 2:
        # a sum of at most two positive floats is correctly rounded
        # already, in either order, as fsum's is
        sums = np.bincount(who, weights=delay, minlength=n)[attached]
    else:
        grid = np.zeros((n, width))
        grid[who, occurrence(who)] = delay  # fsum is exact, in any order
        sums = np.array([fsum(row) for row in grid[attached].tolist()])
    delays = (sums / per_vehicle[attached]).tolist()

    # the handover metric counts honest identities only; an unserved one
    # gained no path
    population = ~(state.is_clone | is_map)
    counts = handovers[population]
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

    # evidence for the next trust pass; an attached vehicle is one with a link
    if blockchain:
        obs_h, obs_low, obs_conn = state.evidence = handovers, np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        obs_conn[maps] = obs_conn[who] = True
        obs_low[who[sinr < config.sinr_threshold]] = True
        if len(state.clone_ids):
            # two draws per clone every round, handover then weak link, in
            # clone order, flagged or not, so the stream stays stable
            draws = rng.random(2 * len(state.clone_ids))
            live = ~flagged[state.clone_ids]
            clones = state.clone_ids[live]
            obs_h[clones] += (draws[0::2] < config.sybil_handover_prob)[live]
            obs_low[clones] |= (draws[1::2] < config.sybil_low_sinr_prob)[live]
    state.maps, state.served, state.link_config = maps, served, config
    state.links = (who, to, d)

    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "round %d: elected %d (%d new), flagged %d (%d new), attached %d, disconnected %d",
            round_index, len(elected), len(np.setdiff1d(maps, prev_maps)),
            metrics.flagged_count, int((flagged & ~was_flagged).sum()),
            metrics.attached, metrics.disconnected,
        )
    excluded = tuple(flagged.nonzero()[0].tolist())
    event = SelectionEvent(round_index, tuple(elected), excluded, table_digest(table, state.row_text))
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
