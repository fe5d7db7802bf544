import pytest
from hypothesis import given
from hypothesis import strategies as st

from mapsim.config import SimConfig
from mapsim.fleet import ring_distance
from mapsim.pathing import (
    PathAssignment,
    admits,
    baseline_paths,
    count_handovers,
    grow_paths,
    retain_paths,
)
from mapsim.radio import make_link_stats

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
