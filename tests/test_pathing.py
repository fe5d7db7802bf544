import math
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mapsim.engine as engine
from mapsim.config import STRATEGIES, SimConfig
from mapsim.fleet import ring_distance
from mapsim.pathing import (
    PathAssignment,
    admits,
    baseline_paths,
    count_handovers,
    grow_paths,
    occurrence,
    place,
    resolve,
    retain_paths,
    threshold,
)
from mapsim.radio import alpha_trans, make_link_stats

CFG = SimConfig()


def candidates_for(cfg, pos, vehicle, maps):
    return [(ring_distance(pos[vehicle], pos[m], cfg.road_length), m) for m in maps]


def distances_for(cfg, pos, vehicle, roster):
    return [ring_distance(pos[vehicle], pos[m], cfg.road_length) for m in roster]


def attach(vehicle, candidates, prev_paths, attach_counts, config):
    """One vehicle's retention pass then growth pass."""
    held = retain_paths(vehicle, prev_paths, candidates, make_link_stats, attach_counts, config)
    return grow_paths(vehicle, held, candidates, make_link_stats, attach_counts, config)


def test_count_handovers_oracles():
    assert count_handovers((), (1,)) == 1
    assert count_handovers((1,), ()) == 0
    assert count_handovers((1, 2), (2, 3)) == 1
    assert count_handovers((1, 2), (1, 2)) == 0
    assert count_handovers((1, 2), (3, 4)) == 2


def link_rows(rng, m, width):
    """m rows of distinct MAPs 0..5, each holding 0..width of them and -1 after."""
    ids = rng.random((m, 6)).argsort(axis=1)[:, :width]
    held = rng.integers(0, width + 1, size=(m, 1))
    return np.where(np.arange(width) < held, ids, -1)


@pytest.mark.parametrize("new_width", [0, 1, 2, 4])
@pytest.mark.parametrize("prev_width", [0, 1, 2, 4])
def test_count_handovers_equals_the_broadcast_count(prev_width, new_width):
    # a round's width drops when the MAP count falls under max_paths, so the
    # two blocks' widths may differ
    rng = np.random.default_rng(100 * prev_width + new_width)
    for m in (0, 1, 9, 200):
        prev, new = link_rows(rng, m, prev_width), link_rows(rng, m, new_width)
        held = (new[..., :, None] == prev[..., None, :]).any(-1)
        want = ((new >= 0) & ~held).sum(-1)
        got = count_handovers(prev, new)
        assert got.shape == (m,)
        assert got.tolist() == want.tolist()
        assert [count_handovers(p, q) for p, q in zip(prev, new)] == want.tolist()


def test_select_paths_takes_two_nearest():
    pos = {0: 0.0, 10: 100.0, 11: 200.0, 12: 240.0}
    cand = candidates_for(CFG, pos, 0, [10, 11, 12])
    counts = {}
    pa = attach(0, cand, (), counts, CFG)
    assert pa.paths == (10, 11)
    assert [s.distance for s in pa.stats] == [100.0, 200.0]
    assert counts == {10: 1, 11: 1}


def test_out_of_window_map_skipped():
    # transmission delay alone exceeds the bound beyond ~262 m at defaults
    pos = {0: 0.0, 10: 400.0, 11: 150.0}
    cand = candidates_for(CFG, pos, 0, [10, 11])
    pa = attach(0, cand, (), {}, CFG)
    assert pa.paths == (11,)


def test_retention_beats_nearer_newcomer():
    cfg = CFG.replace(max_paths=1)
    pos = {0: 0.0, 10: 50.0, 12: 200.0}
    cand = candidates_for(cfg, pos, 0, [10, 12])
    pa = attach(0, cand, (12,), {}, cfg)
    assert pa.paths == (12,)


def test_retention_ignores_dead_map():
    pos = {0: 0.0, 10: 50.0}
    cand = candidates_for(CFG, pos, 0, [10])
    pa = attach(0, cand, (99,), {}, CFG)
    assert pa.paths == (10,)


def test_retention_requalifies_under_current_geometry():
    # previously held access point has drifted out of the window
    pos = {0: 0.0, 10: 300.0, 11: 120.0}
    cand = candidates_for(CFG, pos, 0, [10, 11])
    held = retain_paths(0, (10,), cand, make_link_stats, {}, CFG)
    assert held == []
    pa = attach(0, cand, (10,), {}, CFG)
    assert pa.paths == (11,)


# b_cap 0.16 at 300 m: one attachment earns 1.80 Mbps, a second would get
# 0.90 Mbps and miss the 1 Mbps floor
SCARCE = CFG.replace(b_cap=0.16, delay_threshold=30.0)


def test_bandwidth_slot_competition():
    pos = {1: 300.0, 2: 9700.0, 50: 0.0}
    counts = {}
    first = attach(1, candidates_for(SCARCE, pos, 1, [50]), (), counts, SCARCE)
    second = attach(2, candidates_for(SCARCE, pos, 2, [50]), (), counts, SCARCE)
    assert first.paths == (50,)
    assert second.paths == ()
    assert counts == {50: 1}


def test_incumbent_keeps_slot_against_lower_id_newcomer():
    pos = {1: 300.0, 2: 9700.0, 50: 0.0}
    counts = {}
    cand1 = candidates_for(SCARCE, pos, 1, [50])
    cand2 = candidates_for(SCARCE, pos, 2, [50])
    # retention pass runs for every vehicle before any growth happens
    held1 = retain_paths(1, (), cand1, make_link_stats, counts, SCARCE)
    held2 = retain_paths(2, (50,), cand2, make_link_stats, counts, SCARCE)
    pa1 = grow_paths(1, held1, cand1, make_link_stats, counts, SCARCE)
    pa2 = grow_paths(2, held2, cand2, make_link_stats, counts, SCARCE)
    assert pa2.paths == (50,)
    assert pa1.paths == ()


def test_grow_skips_already_held():
    pos = {0: 0.0, 10: 100.0, 11: 150.0}
    cand = candidates_for(CFG, pos, 0, [10, 11])
    counts = {}
    held = retain_paths(0, (10,), cand, make_link_stats, counts, CFG)
    pa = grow_paths(0, held, cand, make_link_stats, counts, CFG)
    assert pa.paths == (10, 11)
    assert counts == {10: 1, 11: 1}


def rank_everything_grow_paths(vehicle, held, candidates, attach_counts, config):
    """The growth pass as first written: probe every open candidate at share
    one, rank by (delay, distance, map), then admit in that order."""
    chosen = list(held)
    taken = {s.map_ident for s in chosen}
    ranked = sorted(
        (make_link_stats(m, d, config, 1).total_delay, d, m)
        for d, m in candidates
        if m not in taken
    )
    for delay, d, m in ranked:
        if len(chosen) >= config.max_paths:
            break
        if delay >= config.delay_threshold:
            break
        stats = make_link_stats(m, d, config, attach_counts.get(m, 0) + 1)
        if admits(stats, config):
            attach_counts[m] = attach_counts.get(m, 0) + 1
            chosen.append(stats)
    chosen.sort(key=lambda s: (s.distance, s.map_ident))
    return PathAssignment(vehicle, tuple(s.map_ident for s in chosen), tuple(chosen))


# offsets from the vehicle reach past the ~262 m default cutoff both ways;
# the fixed ones make distance ties between different MAPs likely
offsets = st.one_of(st.floats(-600.0, 600.0), st.sampled_from([-150.0, 0.0, 150.0, 262.0]))


@given(
    vehicle_pos=st.floats(0.0, 9999.0),
    map_offsets=st.lists(offsets, max_size=12),
    max_paths=st.integers(1, 4),
    b_cap=st.floats(0.1, 4.0),
    delay_threshold=st.floats(1.0, 40.0),
    data=st.data(),
)
def test_grow_paths_matches_rank_everything_oracle(
    vehicle_pos, map_offsets, max_paths, b_cap, delay_threshold, data
):
    cfg = CFG.replace(max_paths=max_paths, b_cap=b_cap, delay_threshold=delay_threshold)
    maps = [10 + j for j in range(len(map_offsets))]
    pos = {0: vehicle_pos}
    pos.update({m: (vehicle_pos + off) % cfg.road_length for m, off in zip(maps, map_offsets)})
    cand = data.draw(st.permutations(candidates_for(cfg, pos, 0, maps)))
    held_maps, counts = [], {}
    if maps:
        held_maps = data.draw(st.lists(st.sampled_from(maps), unique=True, max_size=max_paths))
        counts = data.draw(st.dictionaries(st.sampled_from(maps), st.integers(0, 5)))
    dist = {m: d for d, m in cand}
    held = [make_link_stats(m, dist[m], cfg, counts.get(m, 0) + 1) for m in held_maps]
    oracle_counts = dict(counts)
    expected = rank_everything_grow_paths(0, held, cand, oracle_counts, cfg)
    got = grow_paths(0, held, cand, make_link_stats, counts, cfg)
    assert got == expected
    assert counts == oracle_counts


class StubIntRng:
    def __init__(self, values):
        self.values = list(values)

    def integers(self, low, high):
        v = self.values.pop(0)
        assert low <= v < high
        return v


def test_sequence_rotates_through_roster():
    # vehicle 1 starts one place into the roster and moves on one a round
    pos = {1: 0.0, 10: 0.0, 11: 0.0, 12: 0.0, 13: 0.0}
    roster = [10, 11, 12, 13]
    dists = distances_for(CFG, pos, 1, roster)
    picks = []
    for r in range(5):
        pa = baseline_paths("sequence-based", 1, r, dists, roster, make_link_stats, {}, None, CFG)
        assert pa.vehicle == 1
        picks.append(pa.paths[0])
    assert picks == [11, 12, 13, 10, 11]


def test_sequence_respects_admission():
    pos = {0: 0.0, 10: 3000.0}
    dists = distances_for(CFG, pos, 0, [10])
    counts = {}
    pa = baseline_paths("sequence-based", 0, 0, dists, [10], make_link_stats, counts, None, CFG)
    assert pa.paths == ()
    assert counts == {}


def test_distance_based_attaches_unconditionally():
    pos = {0: 0.0, 20: 3000.0, 21: 5000.0}
    dists = distances_for(CFG, pos, 0, [20, 21])
    counts = {}
    pa = baseline_paths(
        "distance-based", 0, 0, dists, [20, 21], make_link_stats, counts, None, CFG
    )
    assert pa.paths == (20,)
    assert pa.stats[0].total_delay > CFG.delay_threshold
    assert counts == {20: 1}


def test_distance_based_tie_takes_lower_ident():
    # 11 and 12 sit 100 m either side of the vehicle, across the ring's seam
    pos = {0: 0.0, 10: 3000.0, 11: 100.0, 12: 9900.0}
    roster = [10, 11, 12]
    dists = distances_for(CFG, pos, 0, roster)
    assert dists[1] == dists[2] == 100.0
    pa = baseline_paths("distance-based", 0, 0, dists, roster, make_link_stats, {}, None, CFG)
    assert pa.paths == (11,)


def test_random_uses_the_rng_index():
    pos = {0: 0.0, 20: 3000.0, 21: 5000.0}
    dists = distances_for(CFG, pos, 0, [20, 21])
    pa = baseline_paths(
        "independent-random", 0, 0, dists, [20, 21], make_link_stats, {}, StubIntRng([1]), CFG
    )
    assert pa.paths == (21,)
    assert pa.stats[0].distance == 5000.0


def test_empty_roster_disconnects():
    for strategy in ("independent-random", "distance-based", "sequence-based"):
        pa = baseline_paths(strategy, 0, 0, [], [], None, {}, None, CFG)
        assert pa.paths == ()


def test_unknown_strategy_rejected():
    pos = {0: 0.0, 10: 10.0}
    dists = distances_for(CFG, pos, 0, [10])
    with pytest.raises(ValueError):
        baseline_paths("psychic", 0, 0, dists, [10], make_link_stats, {}, None, CFG)


# threshold admission, speculation at current counts and the resolve loop


@given(
    road_length=st.floats(10.0, 20000.0),
    b_cap=st.floats(0.01, 4.0),
    bandwidth_min=st.floats(0.0, 4.0),
    delay_threshold=st.floats(0.5, 60.0),
    a0=st.floats(0.0, 1.0),
    b0=st.floats(0.0, 20.0),
    path_loss_exp=st.floats(1.0, 6.0),
    counts=st.lists(st.integers(1, 120), min_size=1, max_size=4),
)
def test_cached_limits_match_the_scalar_predicate(
    road_length, b_cap, bandwidth_min, delay_threshold, a0, b0, path_loss_exp, counts
):
    cfg = CFG.replace(
        road_length=road_length, b_cap=b_cap, bandwidth_min=bandwidth_min,
        delay_threshold=delay_threshold, a0=a0, b0=b0, path_loss_exp=path_loss_exp,
    )
    limits = cfg.limits
    assert cfg.limits is limits

    def check(limit, passes):
        # d < limit must equal passes(d) at the limit and at the float below it
        if limit == math.inf:
            assert passes(limits.reach)
            return
        assert 0.0 <= limit <= limits.reach
        assert not passes(limit)
        if limit > 0.0:
            assert passes(math.nextafter(limit, 0.0))

    check(limits.at(np.array(0)), lambda d: make_link_stats(0, d, cfg).total_delay < cfg.delay_threshold)
    for count in counts:
        check(limits.at(np.array(count)), lambda d: admits(make_link_stats(0, d, cfg, count), cfg))
    # never rising with the share count is what the one-check fast path uses
    table = limits.at(np.arange(1, max(counts) + 1))
    assert (table[1:] <= table[:-1]).all()
    assert table[0] <= limits.at(np.array(0))


DEFAULT_LIMIT_FIELDS = {
    "road_length": CFG.road_length, "b_cap": CFG.b_cap, "bandwidth_min": CFG.bandwidth_min,
    "delay_threshold": CFG.delay_threshold, "a0": CFG.a0, "b0": CFG.b0,
    "path_loss_exp": CFG.path_loss_exp, "sinr_threshold": CFG.sinr_threshold, "top": 40,
}


@given(
    road_length=st.floats(10.0, 20000.0),
    b_cap=st.floats(0.01, 4.0),
    bandwidth_min=st.floats(0.0, 4.0),
    delay_threshold=st.floats(0.5, 60.0),
    a0=st.floats(0.0, 1.0),
    b0=st.floats(0.0, 20.0),
    path_loss_exp=st.floats(1.0, 6.0),
    sinr_threshold=st.floats(0.1, 100.0),
    top=st.integers(1, 40),
)
# the default config but for one field: no bandwidth floor, so every count's
# limit is the delay limit; a road short enough that the delay bound holds
# across the half ring, so at(0) is inf until bandwidth bites at count 44;
# scarce bandwidth, under the floor at any distance from count 8 on
@example(**{**DEFAULT_LIMIT_FIELDS, "bandwidth_min": 0.0})
@example(**{**DEFAULT_LIMIT_FIELDS, "road_length": 100.0, "top": 60})
@example(**{**DEFAULT_LIMIT_FIELDS, "b_cap": 0.16})
def test_limit_tables_equal_those_of_the_link_stats_predicate(
    road_length, b_cap, bandwidth_min, delay_threshold, a0, b0, path_loss_exp, sinr_threshold, top
):
    # the limits bisect a predicate on the radio functions; it must draw the
    # line where admits() on a LinkStats record does, at every share count
    cfg = CFG.replace(
        road_length=road_length, b_cap=b_cap, bandwidth_min=bandwidth_min, delay_threshold=delay_threshold,
        a0=a0, b0=b0, path_loss_exp=path_loss_exp, sinr_threshold=sinr_threshold,
    )
    limits = cfg.limits

    def oracle(count):
        if count == 0:
            return threshold(lambda d: make_link_stats(0, d, cfg).total_delay < cfg.delay_threshold, limits.reach)
        return threshold(lambda d: admits(make_link_stats(0, d, cfg, count), cfg), limits.reach)

    got = limits.at(np.arange(top + 1)).tolist()
    assert got == [oracle(count) for count in range(top + 1)]
    assert limits.table.tolist() == got[: len(limits.table)]
    # the table grows as far as asked, or stops at its first 0.0 and clips
    assert len(limits.table) == top + 1 or limits.table.tolist().index(0.0) == len(limits.table) - 1
    if bandwidth_min == 0.0:
        assert got == [got[0]] * (top + 1)


def ulps(x, n):
    """The float n representable steps above a positive finite x, below it for negative n."""
    return struct.unpack("<d", struct.pack("<q", struct.unpack("<q", struct.pack("<d", x))[0] + n))[0]


def counted(passes):
    """passes, and a list that grows by one on each call."""
    calls = []

    def spy(d):
        calls.append(d)
        return passes(d)

    return spy, calls


def wide_at(count, cfg=CFG):
    """Count's bandwidth floor predicate, and the closed-form distance where it fails."""
    snr = 2 ** (count * cfg.bandwidth_min / cfg.b_cap) - 1
    guess = (cfg.tx_power / (cfg.noise_power * snr)) ** (1 / cfg.path_loss_exp)
    return (lambda d: make_link_stats(0, d, cfg, count).bandwidth >= cfg.bandwidth_min), guess


def test_threshold_bisects_bit_patterns():
    cases = [
        (lambda d: d < 1.5, 10.0, 1.5),
        (lambda d: d <= 1.5, 10.0, math.nextafter(1.5, math.inf)),
        (lambda d: True, 10.0, math.inf),
        (lambda d: False, 10.0, 0.0),
        (wide_at(3)[0], 5000.0, None),
        (wide_at(40)[0], 5000.0, None),
        (wide_at(30, CFG.replace(path_loss_exp=2.7))[0], 5000.0, None),
    ]
    for passes, reach, want in cases:
        full = threshold(passes, reach)
        assert want is None or full == want
        # a guess only narrows the search; exact, a few ulps off, far off,
        # not a positive float or past reach, it gives the full answer
        if math.isfinite(full) and full > 0.0:
            guesses = [full] + [ulps(full, n) for n in (-300, 300, -(2**20), 2**20)]
        else:
            guesses = [5.0]
        guesses += [math.nan, 0.0, -1.0, -0.0, reach * 2, math.inf, -math.inf, 5e-324]
        for guess in guesses:
            assert threshold(passes, reach, guess) == full, (want, guess)


@pytest.mark.parametrize("count, cfg", [(1, CFG), (3, CFG), (40, CFG), (30, CFG.replace(path_loss_exp=2.7))])
def test_threshold_from_a_close_guess_bisects_its_bracket_only(count, cfg):
    passes, guess = wide_at(count, cfg)
    spy, full_calls = counted(passes)
    want = threshold(spy, 5000.0)
    spy, calls = counted(passes)
    assert threshold(spy, 5000.0, guess) == want
    # two bracket ends and about 13 bit patterns between them, against
    # about 64 calls over all of [0, reach]
    assert len(calls) <= 20 < 60 <= len(full_calls)
    # a guess 2**20 ulps off falls back to the full bisection, after
    # testing its bracket's low end, and its high end if the low one passes
    for off, tried in ((-(2**20), 2), (2**20, 1)):
        spy, calls = counted(passes)
        assert threshold(spy, 5000.0, ulps(want, off)) == want
        assert len(calls) == len(full_calls) + tried


def test_ring_800_limits_bisect_each_new_count_within_its_bracket(monkeypatch):
    # the benchmark's 800-vehicle config, where the bandwidth floor first
    # bites at count 25; each new count's bisection starts near its closed form
    import mapsim.pathing as pathing

    cfg = SimConfig(vehicle_density=0.08, map_fraction=0.2, sybil_fraction=0.0, total_time=80.0, rng_seed=7)
    limits = pathing.AdmissionLimits(cfg)
    limits.at(np.array(24))
    calls, bandwidth = [], pathing.link_bandwidth
    monkeypatch.setattr(pathing, "link_bandwidth", lambda *a: calls.append(a) or bandwidth(*a))
    for count in range(25, 31):
        calls.clear()
        limits.at(np.array(count))
        assert len(limits.table) == count + 1
        assert 0 < len(calls) <= 20, count
    assert (np.diff(limits.table[24:]) < 0).all()


@given(st.lists(st.integers(0, 6), max_size=200))
def test_occurrence_counts_earlier_equal_keys(keys):
    want = [keys[:i].count(k) for i, k in enumerate(keys)]
    assert occurrence(np.array(keys, dtype=np.int64)).tolist() == want


@given(st.lists(st.integers(0, 6), max_size=200))
def test_place_is_the_occurrence_of_ascending_keys(keys):
    keys = np.sort(np.array(keys, dtype=np.int64))
    assert place(keys).tolist() == occurrence(keys).tolist()


class FallingLimits:
    """Admission limits that fall by one metre per share count; `asked`
    records the counts of each lookup."""

    def __init__(self):
        self.asked = []

    def at(self, counts):
        self.asked.append(counts.tolist())
        return 10.0 - counts


def test_resolve_admits_the_rows_before_the_first_wrong_one_and_speculates_again():
    # on MAP 0 row 2's link is probed at rank 3, over its limit of 7; row 5's
    # link on MAP 1 is over its limit too, but row 2 already fails the pass
    rows = np.array([0, 1, 1, 2, 2, 3, 5])
    cols = np.array([0, 1, 0, 1, 0, 0, 1])
    dist = np.array([1.0, 1.0, 1.0, 1.0, 7.5, 1.0, 9.5])
    counts = np.zeros(2, dtype=np.int64)
    calls = []

    def speculate(start):
        calls.append((start, counts.tolist()))
        if start == 0:
            return rows, cols, dist
        # from row 2 at counts [2, 1]: row 2 takes MAP 1 only, row 3 MAP 0
        return np.array([2, 3]), np.array([1, 0]), np.array([1.0, 1.0])

    got = resolve(speculate, counts, FallingLimits())
    # rows 0 and 1 keep their speculated links; speculation restarts at row
    # 2 and sees their counts
    assert calls == [(0, [0, 0]), (2, [2, 1])]
    assert [a.tolist() for a in got] == [[0, 1, 1, 2, 3], [0, 1, 0, 1, 0], [1.0] * 5]
    assert counts.tolist() == [3, 2]


def test_resolve_checks_each_link_at_its_maps_final_count():
    # row 5's link on MAP 1 is over the limit of 5 at MAP 0's final count,
    # but under the limit of 9 at its own MAP's final count of 1, so one
    # lookup admits the whole speculation without ranking its links
    rows, cols = np.arange(6), np.array([0, 0, 0, 0, 0, 1])
    dist = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 7.0])
    counts = np.zeros(2, dtype=np.int64)
    starts, limits = [], FallingLimits()

    def speculate(start):
        starts.append(start)
        return rows, cols, dist

    got = resolve(speculate, counts, limits)
    assert starts == [0]
    assert limits.asked == [[5, 5, 5, 5, 5, 1]]
    assert [a.tolist() for a in got] == [rows.tolist(), cols.tolist(), dist.tolist()]
    assert counts.tolist() == [5, 1]


class Runaway(Exception):
    """Raised by a speculation called more often than any pass needs."""


def test_resolve_rejects_a_speculation_out_of_row_order():
    # rows listed descending: row 1's link on MAP 0 is probed at rank 3,
    # over its limit of 7, and searching the unsorted rows for it admits
    # nothing, so each speculation would restart at row 1 again
    rows, cols, dist = np.array([3, 2, 1]), np.zeros(3, dtype=np.int64), np.array([1.0, 1.0, 7.5])
    starts = []

    def speculate(start):
        starts.append(start)
        if len(starts) > 10:
            raise Runaway(starts)
        return rows, cols, dist

    with pytest.raises(ValueError, match="from row 1 restarts at row 1"):
        resolve(speculate, np.zeros(1, dtype=np.int64), FallingLimits())
    assert starts == [0, 1]


def scalar_attach(config, round_index, rng, served, maps, dmat, prev):
    """The per-vehicle passes as the engine ran them before the array passes.

    prev holds the previous links as (ident, map) arrays. Returns {ident:
    [(map, distance, rank), ...] nearest first} for every served identity,
    rank being the share count a link was admitted at, the (ident, map)
    pairs retention re-booked and how many probes bandwidth turned away.
    """
    ids, roster = served.tolist(), maps.tolist()
    counts, ranks, rejected = {}, {}, [0]

    def probe(m, d, cfg, share):
        stats = make_link_stats(m, d, cfg, share)
        rejected[0] += stats.total_delay < cfg.delay_threshold and stats.bandwidth < cfg.bandwidth_min
        return stats

    def record(i, stats, old=()):
        for s in stats:
            if s not in old:
                ranks[i, s.map_ident] = counts[s.map_ident]

    if config.strategy == "blockchain-multipath":
        keep = (alpha_trans(dmat, config) * dmat < config.delay_threshold).tolist()
        cands = [[(d, m) for d, m, k in zip(row, roster, ok) if k] for row, ok in zip(dmat.tolist(), keep)]
        prev_paths = [[m for j, m in zip(*(a.tolist() for a in prev)) if j == i] for i in ids]
        held = []
        for i, p, c in zip(ids, prev_paths, cands):
            held.append(retain_paths(i, p, c, probe, counts, config))
            record(i, held[-1])
        found = []
        for i, h, c in zip(ids, held, cands):
            found.append(grow_paths(i, h, c, probe, counts, config))
            record(i, found[-1].stats, h)
    else:
        found = []
        for i, row in zip(ids, dmat.tolist()):
            found.append(baseline_paths(config.strategy, i, round_index, row, roster, probe, counts, rng, config))
            record(i, found[-1].stats)
    links = {i: [(s.map_ident, s.distance, ranks[i, s.map_ident]) for s in pa.stats] for i, pa in zip(ids, found)}
    kept = {(i, s.map_ident) for i, h in zip(ids, held) for s in h} if config.strategy == engine.BLOCKCHAIN else set()
    return links, kept, rejected[0]


def array_attach(config, round_index, rng, served, maps, position, prev):
    """engine.attach's links in scalar_attach's form, checking that the held ones lead."""
    who, to, dist, held = engine.attach(config, round_index, rng, served, maps, position, prev)
    if config.strategy == engine.BLOCKCHAIN:
        # the first `held` links are previous links, and growth gives none:
        # a previous MAP retention turned away is over its limit at every
        # later count
        old = set(zip(*(a.tolist() for a in prev)))
        kept = [link in old for link in zip(who.tolist(), to.tolist())]
        assert kept == [True] * held + [False] * (len(who) - held)
    # a link's rank is one more than the earlier links on its MAP, the rule
    # SimState.last_assignments ranks its links by
    rank = occurrence(to) + 1
    links = {i: [] for i in served.tolist()}
    for i, m, d, k in sorted(zip(who.tolist(), to.tolist(), dist.tolist(), rank.tolist()),
                             key=lambda x: (x[0], x[2], x[1])):
        links[i].append((m, d, k))
    return links, set(zip(who[:held].tolist(), to[:held].tolist()))


@st.composite
def attach_inputs(draw):
    """A dense ring with scarce bandwidth, and previous links to retain.

    The previous links come as probe order lists them: a held block then
    a grown block, each ascending by identity. Some of them belong to
    identities that are MAPs now, and some to or from identities left out
    of both served and maps, as flagged ones are.
    """
    n = draw(st.integers(2, 80))
    road_length = draw(st.floats(300.0, 3000.0))
    cfg = SimConfig(
        road_length=road_length,
        b_cap=draw(st.floats(0.05, 1.0)),
        delay_threshold=draw(st.floats(10.0, 60.0)),
        max_paths=draw(st.integers(1, 4)),
        strategy=draw(st.sampled_from(STRATEGIES)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # on a coarse grid, so that distances tie
        position = rng.integers(0, int(road_length) // 25, n) * 25.0
    else:
        position = rng.uniform(0.0, road_length, n)
    k = draw(st.integers(0, n - 1))
    maps = np.sort(rng.choice(n, k, replace=False))
    left = rng.choice(np.setdiff1d(np.arange(n), maps), draw(st.integers(0, (n - k) // 3)), replace=False)
    served = np.setdiff1d(np.arange(n), np.union1d(maps, left))
    dmat = ring_distance(position[served][:, None], position[maps][None, :], road_length)
    full = draw(st.booleans())
    width = cfg.max_paths if full else draw(st.integers(0, cfg.max_paths))
    blocks = [], []
    for i, d in zip(served.tolist(), dmat):
        near = maps[np.argsort(d, kind="stable")[: 2 * width]]
        if full and rng.random() < 0.7:
            # a full row of its nearest MAPs, which retention may keep all
            # of, leaving the vehicle out of growth
            held = near[:width]
        else:
            # mostly near MAPs still elected, sometimes one that is not
            pool = near if len(near) and rng.random() < 0.8 else np.arange(n)
            held = rng.choice(pool, min(len(pool), rng.integers(0, width + 1)), replace=False)
        split = rng.integers(0, len(held) + 1)
        blocks[0].extend((i, int(m)) for m in held[:split])
        blocks[1].extend((i, int(m)) for m in held[split:])
    for i in np.union1d(maps, left).tolist():
        # a MAP now or neither served nor a MAP, so attach must pass over
        # the links it held
        if width and rng.random() < 0.5:
            blocks[rng.integers(0, 2)].append((i, int(rng.integers(0, n))))
    for j in left.tolist():
        # the previous MAP of a served vehicle, which retention must pass over
        if width and len(served) and rng.random() < 0.5:
            i = int(rng.choice(served))
            if (i, j) not in blocks[0] + blocks[1]:
                blocks[rng.integers(0, 2)].append((i, j))
    links = [link for block in blocks for link in sorted(block, key=lambda x: x[0])]
    prev = tuple(np.array([link[k] for link in links], dtype=np.int64) for k in (0, 1))
    return cfg, draw(st.integers(0, 5)), draw(st.integers(0, 2**32 - 1)), served, maps, position, prev


def test_array_attach_matches_the_scalar_passes(monkeypatch):
    # each resolve call records its pass and its speculations as (start,
    # rows, cols); `passes` names the passes the next attach resolves;
    # `grids` holds the row count of each client x MAP grid attach builds
    seen, loops, passes, grids = Counter(), [], [], []

    def recorded(speculate, counts, limits):
        calls = []
        loops.append((passes.pop(0), calls))

        def spy(start):
            rows, cols, dist = out = speculate(start)
            calls.append((start, rows.tolist(), cols.tolist()))
            # rows ascending from start, each holding a MAP at most once,
            # keep a speculation's first row right; checked as each comes,
            # since resolve need not end on rows out of order
            assert (np.diff(rows) >= 0).all() and (rows >= start).all()
            assert len(set(zip(rows.tolist(), cols.tolist()))) == len(rows)
            return out

        return resolve(spy, counts, limits)

    def measured(a, b, road_length):
        out = ring_distance(a, b, road_length)
        if np.ndim(out) == 2:
            grids.append(len(out))
        return out

    monkeypatch.setattr(engine, "resolve", recorded)
    monkeypatch.setattr(engine, "ring_distance", measured)

    # a fixed example sequence, so that the re-speculations it asserts
    # always run
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(attach_inputs())
    def check(inputs):
        cfg, round_index, seed, served, maps, position, prev = inputs
        passes[:] = {engine.BLOCKCHAIN: ["retain", "grow"], "sequence-based": ["rotate"]}.get(cfg.strategy, [])
        dmat = ring_distance(position[served][:, None], position[maps][None, :], cfg.road_length)
        *want, rejected = scalar_attach(cfg, round_index, np.random.default_rng(seed), served, maps, dmat, prev)
        grids.clear()
        got = array_attach(cfg, round_index, np.random.default_rng(seed), served, maps, position, prev)
        # the same links, and the held ones lead attach's arrays
        assert list(got) == want
        assert passes == []
        seen["rejected"] += rejected
        seen["links of MAPs"] += bool(np.isin(prev[0], maps).any())
        left = np.setdiff1d(np.arange(len(position)), np.union1d(served, maps))
        to_left = np.isin(prev[1][np.isin(prev[0], served)], left).any()
        seen["links of and to neither"] += bool(np.isin(prev[0], left).any() and to_left)
        # growth builds its grid over the vehicles retention left a free slot
        seen["partial growth"] += cfg.strategy == engine.BLOCKCHAIN and 0 < grids[0] < len(served)

    check()
    # bandwidth turned probes away, so speculations were wrong, in every pass
    assert seen["rejected"] > 0
    assert seen["partial growth"] > 0
    # and attach passed over the previous links of identities now MAPs, and
    # those of identities neither served nor MAPs and of served ones to them
    assert seen["links of MAPs"] > 0
    assert seen["links of and to neither"] > 0
    assert {name for name, calls in loops if len(calls) > 1} == {"retain", "grow", "rotate"}
    for _, calls in loops:
        # every iteration admits at least the first row it speculated, so
        # the loop ends; only the last speculation may come back empty
        for (_, rows, _), (start, _, _) in zip(calls, calls[1:]):
            assert rows and start > rows[0]


@given(seed=st.integers(0, 2**32 - 1), high=st.integers(1, 10**6), size=st.integers(0, 300))
def test_batched_integers_equal_scalar_draws(seed, high, size):
    # independent-random draws every vehicle's roster index in one call; it
    # must consume the stream as one call per vehicle did
    batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    assert batched.integers(0, high, size=size).tolist() == [int(scalar.integers(0, high)) for _ in range(size)]
    assert batched.random() == scalar.random()
