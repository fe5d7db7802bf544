import hashlib
import json
import logging
import re
from math import fsum
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mapsim.engine as engine
import mapsim.pathing as pathing
from mapsim.config import STRATEGIES, SimConfig
from mapsim.engine import SimState, initial_state, run_round, run_simulation
from mapsim.fleet import ring_distance, ring_window
from mapsim.pathing import PathAssignment, count_handovers, occurrence
from mapsim.radio import compute_sinr, make_link_stats, path_delay
from mapsim.report import write_run
from mapsim.selection import selection_probabilities
from mapsim.trust import TrustRecord, update_trust

from oracles import probabilities

FIXTURE = json.loads((Path(__file__).parent / "data" / "golden_round.json").read_text())

SMALL = SimConfig(road_length=2000.0, total_time=200.0, rng_seed=5)


class StubRng:
    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def golden_setup():
    cfg = SimConfig.from_dict(FIXTURE["config"])
    ident, position, speed, load = (np.array(column) for column in zip(*FIXTURE["vehicles"]))
    assert ident.tolist() == list(range(len(ident)))
    score = np.array([FIXTURE["trust"][str(i)] for i in ident.tolist()])
    state = SimState(position, speed, load, score, np.zeros(len(ident), dtype=bool))
    return cfg, state


def observations(state):
    """The next trust pass's evidence of each identity a blockchain round
    observes: every unflagged one."""
    handovers, low_sinr, connected = (column.tolist() for column in state.evidence)
    return {
        i: (handovers[i], low_sinr[i], connected[i])
        for i in np.flatnonzero(~state.flagged).tolist()
    }


def test_golden_round_replay():
    cfg, state = golden_setup()
    exp = FIXTURE["expected"]
    state, metrics, event = run_round(state, 0, cfg, StubRng([FIXTURE["stub_draw"]]))

    assert dict(enumerate(state.position.tolist())) == {
        int(k): v for k, v in exp["positions"].items()
    }
    assert list(event.elected) == exp["elected"]
    assert list(event.excluded) == exp["excluded"]
    assert event.input_digest == exp["input_digest"]

    m = exp["metrics"]
    assert metrics.round_index == m["round"]
    assert metrics.vehicle_count == m["vehicle_count"]
    assert metrics.elected_maps == m["elected_maps"]
    assert metrics.flagged_count == m["flagged_count"]
    assert metrics.avg_handover == m["avg_handover"]
    assert metrics.max_handover == m["max_handover"]
    assert metrics.min_handover == m["min_handover"]
    assert metrics.avg_delay_s == m["avg_delay_s"]
    assert metrics.disconnected == m["disconnected"]
    assert metrics.attached == m["attached"]

    # the whole dict: elected MAP 2 and flagged identity 4 hold no entry
    expected_paths = {int(k): tuple(v) for k, v in exp["assignments"].items()}
    assert {i: pa.paths for i, pa in state.last_assignments.items()} == expected_paths

    assert observations(state) == {
        int(k): (int(v[0]), bool(v[1]), bool(v[2])) for k, v in exp["pending_obs"].items()
    }


def test_golden_election_table():
    cfg, state = golden_setup()
    exp = FIXTURE["expected"]
    eligible = np.isin(np.arange(len(state.load)), exp["eligible"])
    table = selection_probabilities(state.load, state.score, eligible)
    assert table.idents.tolist() == exp["eligible"]
    assert list(table.weights) == exp["weights"]
    assert list(probabilities(table)) == exp["probabilities"]


def test_golden_link_stats():
    cfg, _ = golden_setup()
    exp = FIXTURE["expected"]
    v1 = make_link_stats(2, 190.0, cfg, attached_count=1)
    assert v1.sinr == exp["v1_stats"]["sinr"]
    assert v1.bandwidth == exp["v1_stats"]["bandwidth"]
    assert v1.total_delay == exp["v1_stats"]["total_delay"]
    v3 = make_link_stats(2, 200.0, cfg, attached_count=2)
    assert v3.sinr == exp["v3_stats"]["sinr"]
    assert v3.bandwidth == exp["v3_stats"]["bandwidth"]
    assert v3.total_delay == exp["v3_stats"]["total_delay"]


def test_golden_trust_step_after_round():
    cfg, state = golden_setup()
    state, _, _ = run_round(state, 0, cfg, StubRng([FIXTURE["stub_draw"]]))
    score, _ = update_trust(state.score, state.flagged, *state.evidence, cfg)
    after = {i: score[i] for i in observations(state)}
    assert after == {0: 100.0, 1: 92.0, 2: 82.0, 3: 62.0}


@settings(max_examples=40, deadline=None)
@given(
    density=st.floats(0.0, 0.03),
    sybil_fraction=st.floats(0.0, 1.0),
    sybil_clones=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_identity_is_the_array_index(density, sybil_fraction, sybil_clones, seed):
    cfg = SMALL.replace(
        vehicle_density=density, sybil_fraction=sybil_fraction, sybil_clones=sybil_clones
    )
    state = initial_state(cfg, np.random.default_rng(seed))
    n = len(state.position)
    columns = (state.speed, state.load, state.score, state.flagged, state.is_clone)
    for column in columns + (state.handover_total,) + state.evidence:
        assert len(column) == n
    assert not state.handover_total.any() and not state.flagged.any()
    assert (state.score == cfg.trust_initial).all()
    honest = n - len(state.clone_ids)
    assert state.clone_ids.dtype == np.int64 and state.clone_ids.tolist() == list(range(honest, n))
    assert state.is_clone.tolist() == [i >= honest for i in range(n)]
    assert set(state.attacker_ids) <= set(range(honest))


def three_identities():
    return {
        "position": np.array([0.0, 10.0, 20.0]),
        "speed": np.full(3, 20.0),
        "load": np.ones(3, dtype=np.int64),
        "score": np.full(3, 100.0),
        "flagged": np.zeros(3, dtype=bool),
    }


@pytest.mark.parametrize("short", ["position", "speed", "load", "score", "flagged"])
def test_state_rejects_ragged_arrays(short):
    columns = three_identities()
    SimState(**columns)
    columns[short] = columns[short][:2]
    with pytest.raises(ValueError, match="equal lengths"):
        SimState(**columns)


@pytest.mark.parametrize(
    "field, bad",
    [
        # ~flagged of an int array indexes identity -1 for every zero
        ("flagged", np.zeros(3, dtype=np.int64)),
        # the table would write 1.7 into the digest text
        ("load", np.array([1.0, 1.7, 2.0])),
        # a load under 1 can zero the election's total weight, so that no
        # MAP is elected in any round
        ("load", np.array([1, -5, 2])),
        ("load", np.array([1, 0, 2])),
        ("load", np.array([1, 2**53 + 1, 2])),
        # the table would write 100 for 100.0, float32 has no float64 bits
        ("score", np.full(3, 100, dtype=np.int64)),
        ("score", np.full(3, 100.0, dtype=np.float32)),
        ("attacker_ids", [3]),
        ("attacker_ids", [0, 0]),
        # -1 gives the last identity clone draws while is_clone stays false
        ("clone_ids", [-1]),
        ("clone_ids", [9]),
        ("clone_ids", [1, 1]),
        ("clone_ids", [1.0]),
        ("clone_ids", [True]),
    ],
    ids=[
        "int-flagged", "float-load", "negative-load", "zero-load", "load-past-2**53", "int-score",
        "float32-score", "attacker-past-n", "attacker-twice", "clone-negative", "clone-past-n",
        "clone-twice", "clone-float", "clone-bool",
    ],
)
def test_state_rejects_malformed_arrays(field, bad):
    columns = three_identities()
    SimState(**columns, attacker_ids=np.array([0]), clone_ids=[np.int64(1), 2])
    with pytest.raises(ValueError, match=field):
        SimState(**{**columns, field: bad})


def test_state_takes_loads_at_both_ends_of_the_config_range():
    columns = three_identities()
    state = SimState(**{**columns, "load": np.array([1, 2**53, 1])})
    assert state.load.tolist() == [1, 2**53, 1]
    SimState(np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0, dtype=bool))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_state_rejects_non_finite_scores(bad):
    # table_digest writes trust as float.__repr__, which is JSON only for finite floats
    score = np.full(3, 100.0)
    score[1] = bad
    with pytest.raises(ValueError, match="score must be finite"):
        SimState(np.zeros(3), np.full(3, 20.0), np.ones(3, dtype=np.int64), score, np.zeros(3, dtype=bool))


def test_record_views_are_read_only():
    _, state = golden_setup()
    with pytest.raises(TypeError):
        state.trust[0] = TrustRecord(0, 1.0)
    with pytest.raises(AttributeError):
        state.fleet = ()


class BatchStubRng(StubRng):
    """Replays fixed uniforms, one at a time or as a batch."""

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        return np.array([self.values.pop(0) for _ in range(size)])


def test_clone_draws_alternate_handover_and_weak_link():
    # six identities 100 m apart, 4 and 5 clones; the first draw elects one MAP
    cfg = SimConfig(
        road_length=1000.0, map_fraction=0.2, sybil_handover_prob=0.5, sybil_low_sinr_prob=0.5
    )
    position = 100.0 * np.arange(6)

    def evidence(clone_draws, flag_clone=False):
        flagged = np.zeros(6, dtype=bool)
        flagged[5] = flag_clone
        state = SimState(
            position, np.full(6, 20.0), np.ones(6, dtype=np.int64), np.full(6, 100.0), flagged,
            clone_ids=[4, 5],
        )
        rng = BatchStubRng([0.3] + clone_draws)
        run_round(state, 0, cfg, rng)
        assert rng.values == []
        return observations(state)

    # draws are (handover, weak link) per clone, in clone order
    base = evidence([0.9, 0.9, 0.9, 0.9])
    assert not base[4][1] and not base[5][1]
    forced = evidence([0.1, 0.9, 0.9, 0.1])
    assert forced[4] == (base[4][0] + 1, False, base[4][2])
    assert forced[5] == (base[5][0], True, base[5][2])
    assert {i: forced[i] for i in range(4)} == {i: base[i] for i in range(4)}
    # a flagged clone still consumes its two draws but gains no evidence
    flagged = evidence([0.1, 0.9, 0.1, 0.1], flag_clone=True)
    assert 5 not in flagged
    assert flagged[4] == forced[4]


@given(seed=st.integers(0, 2**32 - 1), clones=st.integers(0, 60))
def test_batched_draws_equal_interleaved_scalar_draws(seed, clones):
    batch = np.random.default_rng(seed).random(2 * clones)
    rng = np.random.default_rng(seed)
    scalar = [rng.random() for _ in range(2 * clones)]
    assert [x.hex() for x in batch.tolist()] == [x.hex() for x in scalar]


def test_debug_log_line_per_round(tmp_path, caplog):
    cfg = SMALL.replace(total_time=30.0)
    quiet = write_run(tmp_path / "quiet", run_simulation(cfg))
    with caplog.at_level(logging.DEBUG, logger="mapsim"):
        report = run_simulation(cfg)
    loud = write_run(tmp_path / "loud", report)
    lines = [r.getMessage() for r in caplog.records if r.name == "mapsim"]
    assert len(lines) == 3
    pattern = re.compile(
        r"round (\d+): elected (\d+) \((\d+) new\), flagged (\d+) \((\d+) new\), "
        r"attached (\d+), disconnected (\d+)"
    )
    flagged_before, elected_before = 0, set()
    for line, m, block in zip(lines, report.round_metrics, report.ledger.blocks):
        elected = set(block.payload_obj()["elected"])
        got = [int(x) for x in pattern.fullmatch(line).groups()]
        assert got[:3] == [m.round_index, m.elected_maps, len(elected - elected_before)]
        assert got[3:5] == [m.flagged_count, m.flagged_count - flagged_before]
        assert got[5:] == [m.attached, m.disconnected]
        flagged_before, elected_before = m.flagged_count, elected
    for name in ("rounds.csv", "summary.json", "ledger.json"):
        assert (quiet / name).read_bytes() == (loud / name).read_bytes()


@pytest.mark.parametrize(
    "strategy",
    ["blockchain-multipath", "independent-random", "distance-based", "sequence-based"],
)
def test_conservation_every_round(strategy):
    report = run_simulation(SMALL.replace(strategy=strategy))
    assert len(report.round_metrics) == SMALL.rounds()
    for m in report.round_metrics:
        assert m.vehicle_count == (
            m.elected_maps + m.attached + m.disconnected + m.flagged_count
        ), f"round {m.round_index} leaks identities"


@pytest.mark.parametrize(
    "strategy",
    ["blockchain-multipath", "independent-random", "distance-based", "sequence-based"],
)
def test_recorded_distances_equal_ring_distance(strategy):
    # each attach pass takes the ring distances of the pairs it reads; they
    # must be the scalar ring distances bit for bit
    cfg = SMALL.replace(strategy=strategy)
    rng = np.random.default_rng(cfg.rng_seed)
    state = initial_state(cfg, rng)
    checked = 0
    for r in range(4):
        state, _, _ = run_round(state, r, cfg, rng)
        pos = state.position.tolist()
        for i, pa in state.last_assignments.items():
            for s in pa.stats:
                d = ring_distance(pos[i], pos[s.map_ident], cfg.road_length)
                assert s.distance.hex() == d.hex()
                checked += 1
    assert checked > 0


def test_growth_grid_holds_only_the_vehicles_with_a_free_slot(monkeypatch):
    # criterion 11's 800-vehicle point; most vehicles keep every path they
    # held, and growth builds the round's one client x MAP grid, or above
    # pathing.GRID_CELLS cells its windows, over the rest
    cfg = SimConfig(vehicle_density=0.08, total_time=80.0, map_fraction=0.2, sybil_fraction=0.0, rng_seed=3)
    grids, windows = [], []

    def measured(a, b, road_length):
        out = ring_distance(a, b, road_length)
        if np.ndim(out) == 2:
            grids.append(a[:, 0].tolist())
        return out

    def windowed(points, sites, reach, road_length):
        grids.append(points.tolist())
        windows.append(len(points) * len(sites))
        return ring_window(points, sites, reach, road_length)

    monkeypatch.setattr(pathing, "ring_distance", measured)
    monkeypatch.setattr(pathing, "ring_window", windowed)
    rng = np.random.default_rng(cfg.rng_seed)
    state = initial_state(cfg, rng)
    shares = []
    n = len(state.position)
    for r in range(cfg.rounds()):
        before = state.links
        grids.clear()
        state, _, _ = run_round(state, r, cfg, rng)
        who, to, _ = state.links
        # counts only grow, so a previous MAP retention turned away is never
        # grown back: the links held before and now are the retained ones
        held = np.isin(who * n + to, before[0] * n + before[1])
        free = (min(cfg.max_paths, len(state.maps)) - np.bincount(who[held], minlength=n) > 0)[state.served]
        assert grids == [state.position[state.served[free]].tolist()]
        shares.append(free.mean())
    assert shares[0] == 1.0
    assert max(shares[1:]) < 0.25, shares
    # the cold start alone is over the line
    assert len(windows) == 1 and windows[0] > pathing.GRID_CELLS


# configs the round-level shortcuts are checked under: default, scarce
# bandwidth, wide rows, no MAP retention and a gentler path loss
SHORTCUT_CONFIGS = [
    {},
    {"b_cap": 0.16, "delay_threshold": 30.0},
    {"max_paths": 4},
    {"incumbent_retention": False},
    {"path_loss_exp": 2.7},
]


class RecordedRng:
    """A Generator that keeps the last batch random() drew, a blockchain round's clone draws."""

    def __init__(self, rng):
        self.rng, self.batch = rng, None

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def random(self, size=None):
        out = self.rng.random(size)
        if size is not None:
            self.batch = out
        return out


def link_rows(links, n):
    """Each identity's MAPs in probe order, -1 after, one row per identity."""
    who, to, _ = links
    rows = np.full((n, np.bincount(who).max(initial=0)), -1)
    rows[who, occurrence(who)] = to
    return rows


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("changes", SHORTCUT_CONFIGS)
def test_handovers_are_the_new_links_of_each_row(strategy, changes):
    # a blockchain round counts a vehicle's handovers as the links growth
    # gave it, a baseline round as a link to another MAP than its previous
    # link's; they must be the links count_handovers finds new against the
    # previous round's rows
    cfg = SimConfig(**changes, strategy=strategy)
    new_links = 0
    for seed in (1, 2, 3):
        gen = np.random.default_rng(seed)
        state = initial_state(cfg, gen)
        rng, n = RecordedRng(gen), len(state.position)
        for r in range(cfg.rounds()):
            before, total, rng.batch = link_rows(state.links, n), state.handover_total.copy(), None
            state, _, _ = run_round(state, r, cfg, rng)
            served = state.served
            want = count_handovers(before[served], link_rows(state.links, n)[served]) if r else np.zeros_like(served)
            # the round's handover total adds each served honest identity's
            # handovers and nothing for the rest
            honest = ~state.is_clone[served]
            added = np.zeros_like(total)
            added[served[honest]] = want[honest]
            assert (state.handover_total - total).tolist() == added.tolist(), (seed, r)
            if strategy == engine.BLOCKCHAIN:
                # a live clone's evidence adds its forced handover to its own
                forced = np.zeros(n, dtype=np.int64)
                if rng.batch is not None:
                    live = ~state.flagged[state.clone_ids]
                    forced[state.clone_ids[live]] = (rng.batch[0::2] < cfg.sybil_handover_prob)[live]
                assert (state.evidence[0] - forced)[served].tolist() == want.tolist(), (seed, r)
            new_links += int(want.sum())
    assert new_links > 0


@pytest.mark.parametrize("strategy", [s for s in STRATEGIES if s != engine.BLOCKCHAIN])
@pytest.mark.parametrize("changes", SHORTCUT_CONFIGS)
def test_a_baseline_round_leaves_at_most_one_link_per_identity(strategy, changes):
    # a baseline's handover compares each link against the identity's one
    # previous link, which takes at most one link per identity each round
    cfg = SimConfig(**changes, strategy=strategy)
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        state = initial_state(cfg, rng)
        for r in range(cfg.rounds()):
            state, _, _ = run_round(state, r, cfg, rng)
            assert np.bincount(state.links[0]).max(initial=0) <= 1, (seed, r)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("changes", SHORTCUT_CONFIGS)
def test_link_arrays_hold_each_row_in_probe_order(monkeypatch, strategy, changes):
    # the links are attach's in probe order, as (identity, MAP, distance),
    # and last_assignments gives each served vehicle its links nearest
    # first, each at its rank: one more than the earlier links on its MAP
    # in probe order, the rule attach admits them by
    cfg = SimConfig(**changes, strategy=strategy)
    rounds, attach = [], engine.attach

    def recorded(config, round_index, rng, served, maps, position, prev):
        out = attach(config, round_index, rng, served, maps, position, prev)
        rounds.append((served, out))
        return out

    monkeypatch.setattr(engine, "attach", recorded)
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        state = initial_state(cfg, rng)
        for r in range(cfg.rounds()):
            rounds.clear()
            state, _, _ = run_round(state, r, cfg, rng)
            [(served, (who, to, dist, _))] = rounds
            assert len(state.links) == 3
            got = zip(state.links, (who, to, dist))
            assert all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in got), (seed, r)
            if r % 10 and r != cfg.rounds() - 1:
                continue  # the record view is slow to build; check it every tenth round and the last
            want = {i: () for i in served.tolist()}
            for i, d, m, k in sorted(zip(who.tolist(), dist.tolist(), to.tolist(), (occurrence(to) + 1).tolist())):
                want[i] += (make_link_stats(m, d, cfg, k),)
            got = state.last_assignments
            assert list(got) == list(want), (seed, r)
            for i, stats in want.items():
                assert got[i] == PathAssignment(i, tuple(s.map_ident for s in stats), stats), (seed, r, i)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_current_maps_are_the_elected_maps_ascending(strategy):
    cfg = SMALL.replace(strategy=strategy)
    rng = np.random.default_rng(cfg.rng_seed)
    state = initial_state(cfg, rng)
    assert state.current_maps == []
    for r in range(cfg.rounds()):
        state, _, event = run_round(state, r, cfg, rng)
        elected = event.payload()["elected"]
        assert state.current_maps == sorted(elected) == state.maps.tolist()
        assert all(type(m) is int for m in state.current_maps)


def test_repeat_run_is_identical():
    a = run_simulation(SMALL)
    b = run_simulation(SMALL)
    assert a.summary == b.summary
    assert a.round_metrics == b.round_metrics
    assert [blk.digest for blk in a.ledger.blocks] == [blk.digest for blk in b.ledger.blocks]


def test_seed_changes_the_run():
    a = run_simulation(SMALL)
    b = run_simulation(SMALL.replace(rng_seed=6))
    assert a.ledger.blocks[-1].digest != b.ledger.blocks[-1].digest


def test_ledger_covers_every_round():
    report = run_simulation(SMALL)
    assert len(report.ledger) == SMALL.rounds()
    assert report.ledger.verify()
    rounds = [b.round_index for b in report.ledger.blocks]
    assert rounds == list(range(SMALL.rounds()))
    # the previous block's MAPs not excluded now are elected first, and the
    # draw fills the remaining seats from everyone else
    blocks = [block.payload_obj() for block in report.ledger.blocks]
    for prev, block in zip(blocks, blocks[1:]):
        retained = sorted(set(prev["elected"]) - set(block["excluded"]))
        assert block["elected"][: len(retained)] == retained
        assert not set(block["elected"][len(retained):]) & set(prev["elected"])


def oracle_digest(state):
    """sha256 of the stdlib-encoded [ident, load, trust] rows the round
    elected from: the unflagged identities with positive trust, by ident."""
    rows = [
        [i, load, trust]
        for i, (load, trust, flagged) in enumerate(
            zip(state.load.tolist(), state.score.tolist(), state.flagged.tolist())
        )
        if not flagged and trust > 0
    ]
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


DIGEST_CONFIGS = {
    "default": {},
    "fractional-penalties": dict(
        trust_initial=73.3, handover_penalty=7.7, low_sinr_penalty=4.1, stability_reward=1.3
    ),
    "sybil-0.3": dict(sybil_fraction=0.3),
}


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("changes", DIGEST_CONFIGS.values(), ids=list(DIGEST_CONFIGS))
def test_input_digest_hashes_the_round_table(strategy, changes):
    cfg = SimConfig(strategy=strategy, rng_seed=3, **changes)
    rng = np.random.default_rng(cfg.rng_seed)
    state = initial_state(cfg, rng)
    for r in range(cfg.rounds()):
        state, _, event = run_round(state, r, cfg, rng)
        assert event.input_digest == oracle_digest(state), r


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_input_digest_follows_rewritten_state(strategy):
    # scores moved by one ulp and loads by one, in place between rounds,
    # must reach the digest; update_trust may re-clamp a moved score
    cfg = SMALL.replace(strategy=strategy)
    rng, edits = np.random.default_rng(cfg.rng_seed), np.random.default_rng(11)
    state = initial_state(cfg, rng)
    n = len(state.position)
    for r in range(cfg.rounds()):
        state, _, event = run_round(state, r, cfg, rng)
        assert event.input_digest == oracle_digest(state), r
        some = edits.choice(n, size=4, replace=False)
        state.score[some[:2]] = np.nextafter(state.score[some[:2]], 0.0)
        state.load[some[2:]] += 1


def capture_tables(monkeypatch):
    """The list every election table run_round builds is appended to."""
    tables = []

    def capture(*args, **kwargs):
        tables.append(selection_probabilities(*args, **kwargs))
        return tables[-1]

    monkeypatch.setattr("mapsim.engine.selection_probabilities", capture)
    return tables


TABLE_RUNS = [(s, {}) for s in STRATEGIES] + [(s, {"trust_initial": 0.0}) for s in STRATEGIES[1:]]


@pytest.mark.parametrize(
    "strategy, changes", TABLE_RUNS, ids=[f"{s}{'-trust0' if c else ''}" for s, c in TABLE_RUNS]
)
def test_election_table_holds_the_unflagged_positive_trust_identities(monkeypatch, strategy, changes):
    # selection_probabilities takes its idents from the identity arrays
    # themselves, so they need no sort
    cfg = SMALL.replace(strategy=strategy, **changes)
    rng = np.random.default_rng(cfg.rng_seed)
    state = initial_state(cfg, rng)
    tables = capture_tables(monkeypatch)
    for r in range(cfg.rounds()):
        state, _, _ = run_round(state, r, cfg, rng)
        assert len(tables) == r + 1
        idents = tables[-1].idents
        assert idents.tolist() == np.flatnonzero(~state.flagged & (state.score > 0)).tolist()
        assert (np.diff(idents) > 0).all()
    assert any(len(t.idents) for t in tables) == (not changes)


@pytest.mark.parametrize("changes", [{}, {"sybil_fraction": 0.3}, {"trust_initial": 0.0}])
def test_flagged_identities_carry_no_evidence(changes):
    # the trust pass reads no mask of observed identities; a flagged one
    # must hold no handovers, no low SNR and no connection
    cfg = SMALL.replace(**changes)
    rng = np.random.default_rng(cfg.rng_seed)
    state = initial_state(cfg, rng)
    flagged_rounds = 0
    for r in range(cfg.rounds()):
        state, _, _ = run_round(state, r, cfg, rng)
        handovers, low_sinr, connected = state.evidence
        flagged = state.flagged
        assert not handovers[flagged].any() and not low_sinr[flagged].any()
        assert not connected[flagged].any()
        flagged_rounds += bool(flagged.any())
    assert flagged_rounds


@pytest.mark.parametrize("strategy", STRATEGIES[1:])
def test_baselines_gather_no_evidence(strategy):
    cfg = SMALL.replace(strategy=strategy)
    rng = np.random.default_rng(cfg.rng_seed)
    state = initial_state(cfg, rng)
    for r in range(cfg.rounds()):
        state, _, _ = run_round(state, r, cfg, rng)
        assert not any(column.any() for column in state.evidence)


def test_election_table_loads_are_exact_at_the_largest_load_max(monkeypatch):
    cfg = SMALL.replace(load_max=2**53)
    rng = np.random.default_rng(cfg.rng_seed)
    state = initial_state(cfg, rng)
    assert state.load.max() > 2**52 and (state.load % 2).any()
    tables = capture_tables(monkeypatch)
    for r in range(cfg.rounds()):
        state, _, event = run_round(state, r, cfg, rng)
        assert tables[-1].loads.tolist() == state.load[tables[-1].idents].tolist()
        assert event.input_digest == oracle_digest(state)


def test_zero_round_run():
    report = run_simulation(SMALL.replace(total_time=0.0))
    assert report.round_metrics == []
    assert len(report.ledger) == 0
    assert report.ledger.verify()
    assert report.summary["avg_delay_s"] is None
    assert report.summary["avg_handover"] == 0.0


def test_trust_bounded_and_clones_tracked():
    report = run_simulation(SMALL)
    state = report.state
    assert ((0.0 <= state.score) & (state.score <= 100.0)).all()
    n = len(state.position)
    assert set(state.clone_ids) <= set(range(n))
    assert report.summary["clone_count"] == len(state.clone_ids)
    assert report.summary["identity_count"] == n
    # every attacker has sybil_clones clones that move in lockstep with it
    attackers, clones = state.attacker_ids, state.clone_ids
    assert len(clones) == SMALL.sybil_clones * len(attackers)
    for j, c in enumerate(clones):
        assert state.position[c] == state.position[attackers[j // SMALL.sybil_clones]]
    assert not set(attackers) & set(clones)


def test_handover_totals_cover_honest_identities_only():
    report = run_simulation(SMALL)
    state = report.state
    # clones attach and switch paths, yet never add to the totals
    assert len(state.clone_ids) and not state.handover_total[state.is_clone].any()
    honest = state.handover_total[~state.is_clone]
    assert honest.any()
    assert report.summary["avg_handover"] == int(honest.sum()) / len(honest)
    assert report.summary["zero_handover_vehicles"] == int((honest == 0).sum())


def each_round(cfg):
    """Each round of cfg's run as (previous links, previous MAPs, state, metrics)."""
    rng = np.random.default_rng(cfg.rng_seed)
    state = initial_state(cfg, rng)
    for r in range(cfg.rounds()):
        prev_links, prev_maps = state.links, state.maps
        state, metrics, _ = run_round(state, r, cfg, rng)
        yield prev_links, prev_maps, state, metrics


def maps_held(links, n):
    """Each identity's set of MAPs in these link arrays."""
    held = [set() for _ in range(n)]
    for i, m in zip(links[0].tolist(), links[1].tolist()):
        held[i].add(m)
    return held


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("changes", [{}, {"max_paths": 4, "map_fraction": 0.3}])
def test_round_handovers_average_the_honest_non_map_identities(strategy, changes):
    # a handover is a MAP an identity holds now and did not hold last
    # round, none in round 0; the round's metric covers every identity
    # that is neither a clone nor one of the round's MAPs, served or not
    cfg = SMALL.replace(strategy=strategy, **changes)
    moved = 0
    for prev_links, _, state, m in each_round(cfg):
        n = len(state.position)
        before, now = maps_held(prev_links, n), maps_held(state.links, n)
        outside = set(state.clone_ids.tolist()) | set(state.maps.tolist())
        counts = [len(now[i] - before[i]) if m.round_index else 0 for i in range(n) if i not in outside]
        assert m.avg_handover == sum(counts) / len(counts), m.round_index
        assert (m.max_handover, m.min_handover) == (max(counts), min(counts)), m.round_index
        moved += sum(counts)
    assert moved


# under blockchain-multipath, a round of the second config flags enough
# identities that the incumbents outnumber the seats
ELECTION_CONFIGS = {
    "default": {},
    "outnumbered": {"map_fraction": 0.35, "sybil_fraction": 0.3},
    "no_retention": {"incumbent_retention": False},
}


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", ELECTION_CONFIGS)
def test_election_size_counts_the_unflagged_identities(strategy, name):
    # max(1, round(map_fraction x unflagged)) seats, or every retained
    # incumbent when flagging has left fewer seats than incumbents
    cfg = SMALL.replace(strategy=strategy, **ELECTION_CONFIGS[name])
    retains = strategy == engine.BLOCKCHAIN and cfg.incumbent_retention
    outnumbered = False
    for _, prev_maps, state, m in each_round(cfg):
        seats = max(1, round(cfg.map_fraction * int((~state.flagged).sum())))
        retained = prev_maps[~state.flagged[prev_maps]].tolist() if retains else []
        assert set(retained) <= set(state.maps.tolist())
        assert m.elected_maps == len(state.maps) == max(seats, len(retained)), m.round_index
        outnumbered |= len(retained) > seats
    assert outnumbered == (retains and name == "outnumbered")
    # seats differ from a count over every identity only once some are flagged
    assert state.flagged.any() == (strategy == engine.BLOCKCHAIN)


@pytest.mark.parametrize("changes", [{"max_paths": 4}, {"max_paths": 3, "b_cap": 0.2}])
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_round_delay_is_the_fsum_mean_of_each_vehicles_link_delays(changes, seed):
    # three or more link delays summed in float64 can round differently
    # from the exact sum; each vehicle's mean and the round's mean of those
    # must be the correctly rounded ones
    cfg = SimConfig(rng_seed=seed, **changes)
    widths = set()
    for _, _, state, m in each_round(cfg):
        delays = {}
        for i, d in zip(state.links[0].tolist(), state.links[2].tolist()):
            delays.setdefault(i, []).append(path_delay(d, compute_sinr(d, cfg), cfg))
        means = [fsum(ds) / len(ds) for ds in delays.values()]
        assert m.avg_delay_s == (fsum(means) / len(means) if means else None), m.round_index
        widths.add(max(map(len, delays.values()), default=0))
    assert cfg.max_paths in widths


def test_baselines_never_flag():
    report = run_simulation(SMALL.replace(strategy="independent-random"))
    assert report.summary["flagged_count"] == 0
    assert report.summary["sybil_detection_rate"] == 0.0
    assert report.summary["false_positive_rate"] == 0.0
    for m in report.round_metrics:
        assert m.flagged_count == 0


def test_without_incumbent_retention():
    report = run_simulation(SMALL.replace(incumbent_retention=False))
    for m in report.round_metrics:
        assert m.vehicle_count == (
            m.elected_maps + m.attached + m.disconnected + m.flagged_count
        )


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_max_paths_past_the_identity_count_runs_as_that_count(tmp_path, strategy):
    # a vehicle holds each MAP at most once, so no slot past the MAP count
    # is ever filled; the link arrays must not be sized by max_paths alone
    cfg = SMALL.replace(strategy=strategy)
    n = len(initial_state(cfg, np.random.default_rng(cfg.rng_seed)).position)

    def digests(max_paths):
        out = write_run(tmp_path / str(max_paths), run_simulation(cfg.replace(max_paths=max_paths)))
        return [hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ("rounds.csv", "summary.json", "ledger.json")]

    want = digests(n)
    assert digests(2**62) == want
    assert digests(2**70) == want


# sha256 of (rounds.csv, summary.json, ledger.json) for SMALL under each
# strategy and seed. A mismatch means the run's results changed; a change
# that means to do so says so and why, it does not just refresh these.
ARTIFACT_SHA256 = {
    ("blockchain-multipath", 1): (
        "4aac9bc134afcc9ac3cdd1aa65d82a720677b0db638be1e7aecdaac2b89a2064",
        "057a8dcf21483717f4ade47baa80308d6df225aa6b8102661adf97b39c71df16",
        "27f6a5c3d911b2bc4e772c55b1c64fce95da97d15013a5b132720e35016828fb",
    ),
    ("blockchain-multipath", 2): (
        "f4bfc95556b6d4501a32a3d583c1d9e35ed23119a1918873b8cacede067e337e",
        "012fcdfa0d371112bc9d9c8474e50c87292f4eda25c18bdaad86f0ba537990cb",
        "6aef5534156ac4cedbc80c3b5bd2d6075319066f2a11b68668ded286bccd13c4",
    ),
    ("distance-based", 1): (
        "5a624c7d6de5bf110948797c6cdc3ffa1152dbad084de5b0659e7ea12db1504f",
        "3998320324cac2f43a9cc3b9e146f595951d59002ef74dc8974b4c47a1c99fcb",
        "ca5d7b53482479b08f95de6074fb27575d6a26ccc22943ee89666f115d3dfd70",
    ),
    ("distance-based", 2): (
        "62f7da2f0d4637e68e384314f070998a3f4d5ac9c53704378083c27eb53f6c39",
        "a4a974cb27bdc2ba0d946bfc7d90db029e7257fafc8e7b818e139d17a6fe880c",
        "47a0316098867621aae76bdf93707ae83efdec5a9e382afbb44d8abde4b2ba5d",
    ),
    ("independent-random", 1): (
        "eb714f1b58a8c8fff343d6f90ec598e6a9b93643353c752b13118b275168b143",
        "ce88f72eec40a9e406eba6262a39f8136193cbd9a571c31daff4004087076817",
        "8d8777a331f24f5c07361cefe077d2579d126e786ff950c7c8824acf84934799",
    ),
    ("independent-random", 2): (
        "84717b76416d0803449231597bd514d9304e326fb1222c2149a7d3d7272b771f",
        "660cff7e091c7ddffd56fdcbe88406f1a03b6e94a2bd794455d52e4b1fc98a3b",
        "471ce9520d6071b76c8b0fc32cdab5e8bf16958335ea11a499fcef5ccb1aceaf",
    ),
    ("sequence-based", 1): (
        "b6b24d98a0d96d3d8020b258f6d6b3e7c07f8d639148b93f6a297878a3a7df80",
        "ff48caffa349c732d5903aee5d0f7977aec42765cb640a70c3e61b287e0713c3",
        "ca5d7b53482479b08f95de6074fb27575d6a26ccc22943ee89666f115d3dfd70",
    ),
    ("sequence-based", 2): (
        "92844daa4e57593bf980a3e41c03ee14846dd20eaf84b4a6af41790edbd81ae3",
        "c1405b8bc001deb262f04c51f640405bbdae87951c7b75a4b68057ed8445f962",
        "47a0316098867621aae76bdf93707ae83efdec5a9e382afbb44d8abde4b2ba5d",
    ),
}


@pytest.mark.parametrize("strategy, seed", sorted(ARTIFACT_SHA256))
def test_artifact_bytes_pinned(tmp_path, strategy, seed):
    out = write_run(tmp_path, run_simulation(SMALL.replace(strategy=strategy, rng_seed=seed)))
    got = tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("rounds.csv", "summary.json", "ledger.json")
    )
    assert got == ARTIFACT_SHA256[strategy, seed]


# the same digests for SMALL with scarce bandwidth: one attachment to a MAP
# 300 m away earns 1.80 Mbps and a second would miss the 1 Mbps floor, so
# attach's speculations go wrong and pathing.resolve speculates again about
# twice a round (never at SMALL's own bandwidth). As above, a mismatch means
# the run's results changed.
SCARCE = SMALL.replace(b_cap=0.16, delay_threshold=30.0)
SCARCE_ARTIFACT_SHA256 = {
    ("blockchain-multipath", 1): (
        "14f8eb069e7b69d55bfa8148ec65378d817f14f30dbbef3201463193cdd1e4e4",
        "a46c30b0755febed48155bab3c157ff463706332cc0066faa9515fae9beb6fbe",
        "e3cb9bd82be449e3849fd332290865f13c68d444933fbe3ccc6ddea8700ff1f2",
    ),
    ("blockchain-multipath", 2): (
        "fc07a2e100ce4541f9e03b1468bbbaa3ea1f3860172c0fb522611f998e20ac6b",
        "cc40f93303ffe7e62752fd24729841592069706c787df037560f431e5ca49697",
        "31d12019ffd98ea940d7a5c9682934c1bd285ced3aa0197f6e9f2b1df5f9c9e3",
    ),
    ("distance-based", 1): (
        "5a624c7d6de5bf110948797c6cdc3ffa1152dbad084de5b0659e7ea12db1504f",
        "3998320324cac2f43a9cc3b9e146f595951d59002ef74dc8974b4c47a1c99fcb",
        "ca5d7b53482479b08f95de6074fb27575d6a26ccc22943ee89666f115d3dfd70",
    ),
    ("distance-based", 2): (
        "62f7da2f0d4637e68e384314f070998a3f4d5ac9c53704378083c27eb53f6c39",
        "a4a974cb27bdc2ba0d946bfc7d90db029e7257fafc8e7b818e139d17a6fe880c",
        "47a0316098867621aae76bdf93707ae83efdec5a9e382afbb44d8abde4b2ba5d",
    ),
    ("independent-random", 1): (
        "eb714f1b58a8c8fff343d6f90ec598e6a9b93643353c752b13118b275168b143",
        "ce88f72eec40a9e406eba6262a39f8136193cbd9a571c31daff4004087076817",
        "8d8777a331f24f5c07361cefe077d2579d126e786ff950c7c8824acf84934799",
    ),
    ("independent-random", 2): (
        "84717b76416d0803449231597bd514d9304e326fb1222c2149a7d3d7272b771f",
        "660cff7e091c7ddffd56fdcbe88406f1a03b6e94a2bd794455d52e4b1fc98a3b",
        "471ce9520d6071b76c8b0fc32cdab5e8bf16958335ea11a499fcef5ccb1aceaf",
    ),
    ("sequence-based", 1): (
        "a2a1905cf429bc534a3a97804a98eb7268fbc1c024977e9b1dd8d40a951591ce",
        "7bf0ff641a99078d603d63744439dfa057dfcc0437205dcf210b25cae1a7f803",
        "ca5d7b53482479b08f95de6074fb27575d6a26ccc22943ee89666f115d3dfd70",
    ),
    ("sequence-based", 2): (
        "565ad68ea07b805ccab4c6e00d1c33a9c6c18406102394016757520f94da00f0",
        "2116854d4ef28080fac6dca97e8b6674a8a2a3eff312cce779d3684d3cbe24ba",
        "47a0316098867621aae76bdf93707ae83efdec5a9e382afbb44d8abde4b2ba5d",
    ),
}


@pytest.mark.parametrize("strategy, seed", sorted(SCARCE_ARTIFACT_SHA256))
def test_scarce_bandwidth_artifact_bytes_pinned(tmp_path, strategy, seed):
    out = write_run(tmp_path, run_simulation(SCARCE.replace(strategy=strategy, rng_seed=seed)))
    got = tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("rounds.csv", "summary.json", "ledger.json")
    )
    assert got == SCARCE_ARTIFACT_SHA256[strategy, seed]
