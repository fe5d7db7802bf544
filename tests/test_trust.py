import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mapsim import (
    SimConfig,
    TrustObservation,
    TrustRecord,
    Vehicle,
    detection_rates,
    inject_sybils,
    update_trust,
)

CFG = SimConfig()


def step(rec, obs, cfg=CFG):
    """One identity through the vectorised update, as a record."""
    score, flagged = update_trust(
        np.array([rec.score]), np.array([rec.flagged]), np.array([obs.handovers]),
        np.array([obs.low_sinr]), np.array([obs.connected]), cfg,
    )
    return TrustRecord(rec.ident, float(score[0]), bool(flagged[0]))


def scalar_update(record, obs, config):
    """The per-record rule the vectorised update replaced, kept as its oracle."""
    if record.flagged:
        return record
    delta = 0.0
    if obs.handovers > 0:
        delta -= config.handover_penalty * obs.handovers
    if obs.low_sinr:
        delta -= config.low_sinr_penalty
    if obs.connected and obs.handovers == 0 and not obs.low_sinr:
        delta += config.stability_reward
    score = min(100.0, max(0.0, record.score + delta))
    return TrustRecord(record.ident, score, score <= config.trust_threshold)


def test_penalties_oracle():
    rec = step(TrustRecord(0, 55.0), TrustObservation(handovers=1, low_sinr=True))
    assert rec.score == 42.0
    assert rec.flagged


def test_score_floors_at_zero():
    rec = step(TrustRecord(0, 3.0), TrustObservation(handovers=1))
    assert rec.score == 0.0
    assert rec.flagged


def test_stability_reward_clamps_at_hundred():
    rec = step(TrustRecord(0, 100.0), TrustObservation(connected=True))
    assert rec.score == 100.0
    assert not rec.flagged
    rec = step(TrustRecord(0, 90.0), TrustObservation(connected=True))
    assert rec.score == 92.0


def test_handover_cancels_reward():
    rec = step(TrustRecord(0, 90.0), TrustObservation(handovers=1, connected=True))
    assert rec.score == 82.0


def test_empty_observation_still_evaluates_flag():
    rec = step(TrustRecord(0, 40.0), TrustObservation())
    assert rec.score == 40.0
    assert rec.flagged


def test_misbehaviour_flags_within_four_rounds():
    rec = TrustRecord(0, 100.0)
    obs = TrustObservation(handovers=1, low_sinr=True)
    seen = []
    for _ in range(4):
        rec = step(rec, obs)
        seen.append(rec.score)
    assert seen == [87.0, 74.0, 61.0, 48.0]
    assert rec.flagged


def test_flag_is_sticky_and_freezes_score():
    rec = TrustRecord(0, 48.0, flagged=True)
    rec = step(rec, TrustObservation(connected=True))
    assert rec.flagged
    assert rec.score == 48.0


@given(
    score=st.floats(0.0, 100.0),
    handovers=st.integers(0, 5),
    low=st.booleans(),
    connected=st.booleans(),
)
def test_score_stays_in_range(score, handovers, low, connected):
    rec = step(TrustRecord(0, score), TrustObservation(handovers, low, connected))
    assert 0.0 <= rec.score <= 100.0


@given(st.lists(st.tuples(st.integers(0, 3), st.booleans(), st.booleans()), max_size=30))
def test_flag_never_clears(seq):
    rec = TrustRecord(0, 60.0)
    was_flagged = False
    for handovers, low, connected in seq:
        rec = step(rec, TrustObservation(handovers, low, connected))
        was_flagged = was_flagged or rec.flagged
        if was_flagged:
            assert rec.flagged


def _fleet(n):
    return [Vehicle(i, float(i * 10), 20.0, 1 + i % 4) for i in range(n)]


def test_inject_sybils_shapes():
    fleet, attackers, clones = inject_sybils(_fleet(50), CFG, np.random.default_rng(1))
    assert len(attackers) == 5
    assert len(clones) == 15
    assert len(fleet) == 65
    assert attackers == sorted(attackers)
    assert clones == list(range(50, 65))
    by_id = {v.ident: v for v in fleet}
    # clone j mirrors attackers[j // sybil_clones]
    for j, c in enumerate(clones):
        clone, src = by_id[c], by_id[attackers[j // CFG.sybil_clones]]
        assert clone.position == src.position
        assert clone.speed == src.speed
        assert clone.load == CFG.load_max
    assert fleet[:50] == _fleet(50)


def test_inject_sybils_deterministic():
    a = inject_sybils(_fleet(40), CFG, np.random.default_rng(7))
    b = inject_sybils(_fleet(40), CFG, np.random.default_rng(7))
    assert a == b


def test_inject_sybils_disabled():
    cfg = CFG.replace(sybil_fraction=0.0)
    fleet, attackers, clones = inject_sybils(_fleet(30), cfg, np.random.default_rng(1))
    assert (attackers, clones) == ([], [])
    assert len(fleet) == 30


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
    records = [TrustRecord(i, row[0], row[1]) for i, row in enumerate(rows)]
    observations = [TrustObservation(*row[2:]) for row in rows]
    score, flagged = update_trust(
        np.array([r.score for r in records], dtype=np.float64),
        np.array([r.flagged for r in records], dtype=bool),
        np.array([o.handovers for o in observations], dtype=np.int64),
        np.array([o.low_sinr for o in observations], dtype=bool),
        np.array([o.connected for o in observations], dtype=bool),
        cfg,
    )
    for rec, obs, got_score, got_flag in zip(records, observations, score.tolist(), flagged.tolist()):
        want = scalar_update(rec, obs, cfg)
        assert got_score.hex() == float(want.score).hex()
        assert got_flag == want.flagged
        assert 0.0 <= got_score <= 100.0
        if rec.flagged:
            # a flag freezes the score and never clears
            assert got_flag and got_score == rec.score
        if obs == TrustObservation() and rec.score <= threshold:
            # an identity nobody observed is still judged on its score
            assert got_flag
