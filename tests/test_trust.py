import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mapsim.config import SimConfig
from mapsim.trust import detection_rates, inject_sybils, update_trust

CFG = SimConfig()


def step(score, handovers=0, low_sinr=False, connected=False, flagged=False, cfg=CFG):
    """One identity through the vectorised update; returns (score, flagged)."""
    new, flag = update_trust(
        np.array([score]), np.array([flagged]), np.array([handovers]),
        np.array([low_sinr]), np.array([connected]), cfg,
    )
    return float(new[0]), bool(flag[0])


def scalar_update(score, flagged, handovers, low_sinr, connected, config):
    """The per-record rule the vectorised update replaced, kept as its oracle."""
    if flagged:
        return score, flagged
    delta = 0.0
    if handovers > 0:
        delta -= config.handover_penalty * handovers
    if low_sinr:
        delta -= config.low_sinr_penalty
    if connected and handovers == 0 and not low_sinr:
        delta += config.stability_reward
    score = min(100.0, max(0.0, score + delta))
    return score, score <= config.trust_threshold


def test_penalties_oracle():
    assert step(55.0, handovers=1, low_sinr=True) == (42.0, True)


def test_score_floors_at_zero():
    assert step(3.0, handovers=1) == (0.0, True)


def test_stability_reward_clamps_at_hundred():
    assert step(100.0, connected=True) == (100.0, False)
    assert step(90.0, connected=True) == (92.0, False)


def test_handover_cancels_reward():
    assert step(90.0, handovers=1, connected=True) == (82.0, False)


def test_empty_observation_still_evaluates_flag():
    assert step(40.0) == (40.0, True)


def test_misbehaviour_flags_within_four_rounds():
    score, flagged = 100.0, False
    seen = []
    for _ in range(4):
        score, flagged = step(score, handovers=1, low_sinr=True, flagged=flagged)
        seen.append(score)
    assert seen == [87.0, 74.0, 61.0, 48.0]
    assert flagged


def test_flag_is_sticky_and_freezes_score():
    assert step(48.0, connected=True, flagged=True) == (48.0, True)


@given(
    score=st.floats(0.0, 100.0),
    handovers=st.integers(0, 5),
    low=st.booleans(),
    connected=st.booleans(),
)
def test_score_stays_in_range(score, handovers, low, connected):
    score, _ = step(score, handovers, low, connected)
    assert 0.0 <= score <= 100.0


@given(st.lists(st.tuples(st.integers(0, 3), st.booleans(), st.booleans()), max_size=30))
def test_flag_never_clears(seq):
    score, flagged = 60.0, False
    was_flagged = False
    for handovers, low, connected in seq:
        score, flagged = step(score, handovers, low, connected, flagged)
        was_flagged = was_flagged or flagged
        if was_flagged:
            assert flagged


def _fleet(n):
    """(position, speed, load) of n honest vehicles."""
    ident = np.arange(n)
    return 10.0 * ident, np.full(n, 20.0), 1 + ident % 4


def test_inject_sybils_shapes():
    position, speed, load, attackers, clones = inject_sybils(
        *_fleet(50), CFG, np.random.default_rng(1)
    )
    assert len(attackers) == 5
    assert len(clones) == 15
    assert len(position) == len(speed) == len(load) == 65
    assert attackers == sorted(attackers)
    assert clones == list(range(50, 65))
    # clone j mirrors attackers[j // sybil_clones]
    for j, c in enumerate(clones):
        src = attackers[j // CFG.sybil_clones]
        assert position[c] == position[src]
        assert speed[c] == speed[src]
        assert load[c] == CFG.load_max
    for got, honest in zip((position, speed, load), _fleet(50)):
        assert got[:50].tolist() == honest.tolist()
        assert got.dtype == honest.dtype


def test_inject_sybils_deterministic():
    a = inject_sybils(*_fleet(40), CFG, np.random.default_rng(7))
    b = inject_sybils(*_fleet(40), CFG, np.random.default_rng(7))
    assert [x.tolist() for x in a[:3]] == [x.tolist() for x in b[:3]]
    assert a[3:] == b[3:]


def test_inject_sybils_disabled():
    cfg = CFG.replace(sybil_fraction=0.0)
    position, speed, load, attackers, clones = inject_sybils(
        *_fleet(30), cfg, np.random.default_rng(1)
    )
    assert (attackers, clones) == ([], [])
    assert len(position) == len(speed) == len(load) == 30


def test_detection_rates():
    flagged = np.array([False, True, True, False])
    tpr, fpr = detection_rates(flagged, is_sybil=np.array([False, True, True, False]))
    assert tpr == 1.0
    assert fpr == 0.0
    tpr, fpr = detection_rates(flagged, is_sybil=np.array([True, True, False, False]))
    assert tpr == 0.5
    assert fpr == 0.5


def test_detection_rates_empty_denominators():
    tpr, fpr = detection_rates(np.array([False]), is_sybil=np.array([False]))
    assert tpr is None
    assert fpr == 0.0
    tpr, fpr = detection_rates(np.array([True]), is_sybil=np.array([True]))
    assert tpr == 1.0
    assert fpr is None


# scores at the clamps, on the default threshold and one ulp inside them
EDGE_SCORES = st.sampled_from([0.0, 5e-324, 50.0, 99.99999999999999, 100.0])


# a score left exactly on the threshold, and a quiet connected round with a
# weak link, which earns no reward
@example(penalties=(10.0, 20.0, 1.0), threshold=50.0,
         rows=[(50.0, False, 0, False, False), (60.0, False, 0, True, True)])
@given(
    penalties=st.tuples(st.floats(0.0, 60.0), st.floats(0.0, 60.0), st.floats(0.0, 60.0)),
    threshold=st.one_of(st.floats(0.0, 100.0), EDGE_SCORES),
    rows=st.lists(
        st.tuples(
            st.one_of(st.floats(0.0, 100.0), EDGE_SCORES),
            st.booleans(),
            st.integers(0, 6),
            st.booleans(),
            st.booleans(),
        ),
        max_size=40,
    ),
)
def test_vectorised_update_matches_scalar_rule(penalties, threshold, rows):
    handover, low, reward = penalties
    cfg = CFG.replace(
        handover_penalty=handover, low_sinr_penalty=low, stability_reward=reward,
        trust_threshold=threshold,
    )
    # rows are (score, flagged, handovers, low SNR, connected)
    dtypes = (np.float64, bool, np.int64, bool, bool)
    score, flagged = update_trust(
        *(np.array([row[k] for row in rows], dtype=dtype) for k, dtype in enumerate(dtypes)), cfg
    )
    for row, got_score, got_flag in zip(rows, score.tolist(), flagged.tolist()):
        old_score, old_flag, handovers, low, connected = row
        want_score, want_flag = scalar_update(*row, cfg)
        assert got_score.hex() == float(want_score).hex()
        assert got_flag == want_flag
        assert 0.0 <= got_score <= 100.0
        if old_flag:
            # a flag freezes the score and never clears
            assert got_flag and got_score == old_score
        if (handovers, low, connected) == (0, False, False) and old_score <= threshold:
            # an identity nobody observed is still judged on its score
            assert got_flag
