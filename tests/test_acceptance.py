"""Acceptance battery.

Each test here is one release criterion; `pytest -v` prints one line per
criterion. The heavy fixtures run the full default configuration over ten
seeds for all four attachment strategies and are shared across criteria.
"""

from __future__ import annotations

import json
import math
import struct
import time
from dataclasses import replace
from pathlib import Path
from statistics import fmean, median

import numpy as np
import pytest
from scipy.optimize import nnls

from mapsim.config import STRATEGIES, SimConfig
from mapsim.engine import initial_state, run_round, run_simulation
from mapsim.ledger import verify_chain
from mapsim.report import write_run
from mapsim.selection import select_maps, selection_probabilities

from oracles import StubRng, golden_state, probabilities

DATA = Path(__file__).parent / "data"
SEEDS = tuple(range(1, 11))
BLOCKCHAIN = "blockchain-multipath"
RANDOM = "independent-random"
DISTANCE = "distance-based"
SEQUENCE = "sequence-based"


@pytest.fixture(scope="module")
def battery():
    runs = {}
    for strategy in STRATEGIES:
        for seed in SEEDS:
            cfg = SimConfig(strategy=strategy, rng_seed=seed)
            runs[strategy, seed] = run_simulation(cfg)
    return runs


def drive(config):
    """Replay one run round by round, yielding the evolving state."""
    rng = np.random.default_rng(config.rng_seed)
    state = initial_state(config, rng)
    for r in range(config.rounds()):
        state, metrics, event = run_round(state, r, config, rng)
        yield state, metrics, event


def test_criterion_01_handover_reduction(battery):
    reductions = []
    for seed in SEEDS:
        bc = battery[BLOCKCHAIN, seed].summary["avg_handover"]
        rnd = battery[RANDOM, seed].summary["avg_handover"]
        reductions.append(1.0 - bc / rnd)
    assert median(reductions) >= 0.70, reductions
    for run in battery.values():
        assert run.elapsed_s < 60.0


def test_criterion_02_max_handover_reduction(battery):
    reductions = []
    for seed in SEEDS:
        bc = battery[BLOCKCHAIN, seed].summary["max_handover"]
        rnd = battery[RANDOM, seed].summary["max_handover"]
        reductions.append(1.0 - bc / rnd)
    assert median(reductions) >= 0.60, reductions
    for seed in SEEDS:
        assert battery[BLOCKCHAIN, seed].summary["zero_handover_vehicles"] >= 1


def test_criterion_03_delay_ordering(battery):
    mean_delay = {
        s: fmean(battery[s, seed].summary["avg_delay_s"] for seed in SEEDS)
        for s in STRATEGIES
    }
    ratio = mean_delay[BLOCKCHAIN] / mean_delay[SEQUENCE]
    assert 0.85 <= ratio <= 1.15, mean_delay
    assert mean_delay[RANDOM] >= 1.5 * mean_delay[BLOCKCHAIN], mean_delay
    assert mean_delay[DISTANCE] >= 1.5 * mean_delay[BLOCKCHAIN], mean_delay


def test_criterion_04_sybil_detection(battery):
    tprs = [battery[BLOCKCHAIN, seed].summary["sybil_detection_rate"] for seed in SEEDS]
    fprs = [battery[BLOCKCHAIN, seed].summary["false_positive_rate"] for seed in SEEDS]
    assert fmean(tprs) >= 0.95, tprs
    assert fmean(fprs) <= 0.05, fprs


def _block_material(block) -> bytes:
    return (
        struct.pack("<Q", block.index)
        + struct.pack("<Q", block.round_index)
        + block.payload
        + block.prev_hash
        + block.digest
    )


def _mutate_block(block, offset: int, xor: int):
    material = bytearray(_block_material(block))
    material[offset] ^= xor
    p = len(block.payload)
    return replace(
        block,
        index=struct.unpack_from("<Q", material, 0)[0],
        round_index=struct.unpack_from("<Q", material, 8)[0],
        payload=bytes(material[16 : 16 + p]),
        prev_hash=bytes(material[16 + p : 48 + p]),
        digest=bytes(material[48 + p :]),
    )


def test_criterion_05_ledger_tamper_evidence():
    chains = []
    for seed in range(200, 300):
        cfg = SimConfig(
            road_length=1000.0,
            vehicle_density=0.01,
            total_time=200.0,
            rng_seed=seed,
        )
        report = run_simulation(cfg)
        blocks = list(report.ledger.blocks)
        assert len(blocks) >= 20
        assert verify_chain(blocks)
        chains.append(blocks)

    rng = np.random.default_rng(99)
    for _ in range(1000):
        blocks = chains[int(rng.integers(0, len(chains)))]
        b = int(rng.integers(0, len(blocks)))
        material_len = 16 + len(blocks[b].payload) + 64
        offset = int(rng.integers(0, material_len))
        xor = int(rng.integers(1, 256))
        tampered = list(blocks)
        tampered[b] = _mutate_block(blocks[b], offset, xor)
        assert not verify_chain(tampered), (b, offset, xor)


def elect_all(rows):
    """Election table of identities 0..n-1, all eligible, from (load, trust) rows."""
    load = np.array([load for load, _ in rows], dtype=np.int64)
    score = np.array([trust for _, trust in rows], dtype=np.float64)
    return selection_probabilities(load, score, np.ones(len(rows), dtype=bool))


def test_criterion_06_selection_probability_law():
    table = elect_all([(2, 100.0), (2, 50.0), (1, 50.0)])
    hand = (0.5714285714285714, 0.2857142857142857, 0.14285714285714285)
    for got, want in zip(probabilities(table), hand):
        assert abs(got - want) <= 1e-12

    golden = elect_all([(4, 100.0), (1, 90.0), (3, 80.0), (2, 60.0)])
    fixture = json.loads((DATA / "golden_round.json").read_text())
    for got, want in zip(probabilities(golden), fixture["expected"]["probabilities"]):
        assert abs(got - want) <= 1e-12

    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 41))
        rows = [(int(rng.integers(1, 5)), float(rng.uniform(1.0, 100.0))) for _ in range(n)]
        t = elect_all(rows)
        assert abs(sum(probabilities(t)) - 1.0) <= 1e-9

    base = [(1 + i % 4, 10.0 * (i + 1)) for i in range(8)]
    reference = probabilities(elect_all(base))
    scaled_loads = probabilities(elect_all([(load * 3, trust) for load, trust in base]))
    scaled_trust = probabilities(elect_all([(load, trust * 2.5) for load, trust in base]))
    for variant in (scaled_loads, scaled_trust):
        for got, want in zip(variant, reference):
            assert abs(got - want) <= 1e-12


def _inclusion_by_enumeration(weights: list[float], k: int) -> list[float]:
    inclusion = [0.0] * len(weights)

    def recurse(remaining: frozenset, prob: float, chosen: frozenset):
        if len(chosen) == k:
            for i in chosen:
                inclusion[i] += prob
            return
        total = sum(weights[i] for i in remaining)
        for i in remaining:
            recurse(remaining - {i}, prob * weights[i] / total, chosen | {i})

    recurse(frozenset(range(len(weights))), 1.0, frozenset())
    return inclusion


def test_criterion_07_sampling_oracle():
    table = elect_all([(4, 100.0), (1, 90.0), (3, 80.0), (2, 60.0), (1, 50.0)])
    expected = _inclusion_by_enumeration(list(table.weights), 2)

    draws = 100_000
    rng = np.random.default_rng(12345)
    counts = {ident: 0 for ident in range(5)}
    for _ in range(draws):
        for ident in select_maps(table, 2, rng):
            counts[ident] += 1

    for i, ident in enumerate(table.idents.tolist()):
        p = expected[i]
        sigma = math.sqrt(p * (1.0 - p) / draws)
        observed = counts[ident] / draws
        assert abs(observed - p) <= 3.0 * sigma, (ident, observed, p)


def test_criterion_08_path_admission_soundness():
    for seed in (1, 2, 3):
        cfg = SimConfig(rng_seed=seed)
        for state, metrics, event in drive(cfg):
            for pa in state.last_assignments.values():
                assert len(pa.paths) <= cfg.max_paths
                assert pa.paths == tuple(s.map_ident for s in pa.stats)
                for s in pa.stats:
                    assert s.total_delay < cfg.delay_threshold
                    assert s.bandwidth >= cfg.bandwidth_min


def test_criterion_09_golden_round_trace():
    raw = (DATA / "golden_round.json").read_bytes()
    doc = json.loads(raw)
    cfg, state = golden_state(doc)
    loads = state.load
    state, metrics, event = run_round(state, 0, cfg, StubRng([doc["stub_draw"]]))

    eligible = np.flatnonzero(~state.flagged).tolist()
    table = selection_probabilities(loads, state.score, ~state.flagged)
    assert table.idents.tolist() == eligible
    stats_of = {i: pa.stats for i, pa in state.last_assignments.items()}
    # a blockchain round observes every unflagged identity
    handovers, low_sinr, connected = (column.tolist() for column in state.evidence)

    def stat_block(s):
        return {
            "bandwidth": s.bandwidth,
            "distance": s.distance,
            "sinr": s.sinr,
            "total_delay": s.total_delay,
        }

    rebuilt = {
        # every entry, so elected and excluded identities must hold none
        "assignments": {str(i): list(pa.paths) for i, pa in state.last_assignments.items()},
        "elected": list(event.elected),
        "eligible": eligible,
        "excluded": list(event.excluded),
        "input_digest": event.input_digest,
        "k": max(1, round(cfg.map_fraction * len(eligible))),
        "metrics": {
            "attached": metrics.attached,
            "avg_delay_s": metrics.avg_delay_s,
            "avg_handover": metrics.avg_handover,
            "disconnected": metrics.disconnected,
            "elected_maps": metrics.elected_maps,
            "flagged_count": metrics.flagged_count,
            "max_handover": metrics.max_handover,
            "min_handover": metrics.min_handover,
            "round": metrics.round_index,
            "vehicle_count": metrics.vehicle_count,
        },
        "pending_obs": {
            str(i): [handovers[i], low_sinr[i], connected[i]] for i in eligible
        },
        "positions": {str(i): p for i, p in enumerate(state.position.tolist())},
        "probabilities": list(probabilities(table)),
        "v1_stats": stat_block(stats_of[1][0]),
        "v3_stats": stat_block(stats_of[3][0]),
        "weights": list(table.weights),
    }
    regenerated = dict(doc)
    regenerated["expected"] = rebuilt
    assert (json.dumps(regenerated, indent=2, sort_keys=True) + "\n").encode() == raw


def test_criterion_10_determinism(tmp_path):
    cfg = SimConfig()
    write_run(tmp_path / "a", run_simulation(cfg))
    write_run(tmp_path / "b", run_simulation(cfg))
    for name in ("rounds.csv", "summary.json", "ledger.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_criterion_11_complexity_scaling():
    plan = ((100, 40), (200, 25), (400, 12), (800, 8))
    configs = [
        SimConfig(
            vehicle_density=n / 10000.0,
            total_time=rounds * 10.0,
            map_fraction=0.2,
            sybil_fraction=0.0,
            rng_seed=7,
        )
        for n, rounds in plan
    ]
    # best of 3 per size, the repeats interleaved across sizes so that one
    # burst of load on the machine cannot slow every repeat of one size
    best, identities = [math.inf] * len(plan), [0] * len(plan)
    for _ in range(3):
        for i, cfg in enumerate(configs):
            rng = np.random.default_rng(cfg.rng_seed)
            state = initial_state(cfg, rng)
            state, _, _ = run_round(state, 0, cfg, rng)
            t0 = time.perf_counter()
            for r in range(1, cfg.rounds()):
                state, _, _ = run_round(state, r, cfg, rng)
            best[i] = min(best[i], (time.perf_counter() - t0) / (cfg.rounds() - 1))
            identities[i] = len(state.position)
    points = [(m * math.log2(m), t) for m, t in zip(identities, best)]

    # a round is a fixed cost plus a*n*log2(n): a growth grid holds at most
    # pathing.GRID_CELLS cells, with windows of the MAPs in reach above it,
    # and attachment sorts little more than each pass's links; every point
    # within 1.5x of the best non-negative fit, weighted by relative error
    size = np.array([x for x, _ in points])
    cost = np.array([t for _, t in points])
    (fixed, slope), _ = nnls(np.column_stack((1.0 / cost, size / cost)), np.ones(len(points)))
    ratio = cost / (fixed + slope * size)
    assert slope > 0, points
    assert ratio.max() <= 1.5 and ratio.min() >= 1 / 1.5, (points, fixed, slope)


def test_criterion_12_sybil_exclusion_invariant(battery):
    for run in battery.values():
        for block in run.ledger.blocks:
            payload = block.payload_obj()
            assert not set(payload["elected"]) & set(payload["excluded"])

    cfg = SimConfig(rng_seed=4)
    for state, metrics, event in drive(cfg):
        flagged = set(np.flatnonzero(state.flagged).tolist())
        assert not set(event.elected) & flagged
