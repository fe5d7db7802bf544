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


def test_penalties_oracle():
    rec = update_trust(TrustRecord(0, 55.0), TrustObservation(handovers=1, low_sinr=True), CFG)
    assert rec.score == 42.0
    assert rec.flagged


def test_score_floors_at_zero():
    rec = update_trust(TrustRecord(0, 3.0), TrustObservation(handovers=1), CFG)
    assert rec.score == 0.0
    assert rec.flagged


def test_stability_reward_clamps_at_hundred():
    rec = update_trust(TrustRecord(0, 100.0), TrustObservation(connected=True), CFG)
    assert rec.score == 100.0
    assert not rec.flagged
    rec = update_trust(TrustRecord(0, 90.0), TrustObservation(connected=True), CFG)
    assert rec.score == 92.0


def test_handover_cancels_reward():
    rec = update_trust(TrustRecord(0, 90.0), TrustObservation(handovers=1, connected=True), CFG)
    assert rec.score == 82.0


def test_empty_observation_still_evaluates_flag():
    rec = update_trust(TrustRecord(0, 40.0), TrustObservation(), CFG)
    assert rec.score == 40.0
    assert rec.flagged


def test_misbehaviour_flags_within_four_rounds():
    rec = TrustRecord(0, 100.0)
    obs = TrustObservation(handovers=1, low_sinr=True)
    seen = []
    for _ in range(4):
        rec = update_trust(rec, obs, CFG)
        seen.append(rec.score)
    assert seen == [87.0, 74.0, 61.0, 48.0]
    assert rec.flagged


def test_flag_is_sticky_and_freezes_score():
    rec = TrustRecord(0, 48.0, flagged=True)
    rec = update_trust(rec, TrustObservation(connected=True), CFG)
    assert rec.flagged
    assert rec.score == 48.0


@given(
    score=st.floats(0.0, 100.0),
    handovers=st.integers(0, 5),
    low=st.booleans(),
    connected=st.booleans(),
)
def test_score_stays_in_range(score, handovers, low, connected):
    rec = update_trust(TrustRecord(0, score), TrustObservation(handovers, low, connected), CFG)
    assert 0.0 <= rec.score <= 100.0


@given(st.lists(st.tuples(st.integers(0, 3), st.booleans(), st.booleans()), max_size=30))
def test_flag_never_clears(seq):
    rec = TrustRecord(0, 60.0)
    was_flagged = False
    for handovers, low, connected in seq:
        rec = update_trust(rec, TrustObservation(handovers, low, connected), CFG)
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
    records = [
        TrustRecord(0, 100.0),
        TrustRecord(1, 20.0, flagged=True),
        TrustRecord(2, 10.0, flagged=True),
        TrustRecord(3, 90.0),
    ]
    tpr, fpr = detection_rates(records, truth={1, 2})
    assert tpr == 1.0
    assert fpr == 0.0
    tpr, fpr = detection_rates(records, truth={0, 1})
    assert tpr == 0.5
    assert fpr == 0.5


def test_detection_rates_empty_denominators():
    tpr, fpr = detection_rates([TrustRecord(0, 50.0)], truth=set())
    assert tpr is None
    assert fpr == 0.0
    tpr, fpr = detection_rates([TrustRecord(0, 50.0, flagged=True)], truth={0})
    assert tpr == 1.0
    assert fpr is None
