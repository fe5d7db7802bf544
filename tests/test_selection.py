import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mapsim.selection import select_maps, selection_probabilities, table_digest


class StubRng:
    """Replays a fixed sequence of uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def test_probability_oracle():
    # loads 2,1,1 at trusts 100,100,50 weight to 200,100,50
    table = selection_probabilities([(0, 2, 100.0), (1, 1, 100.0), (2, 1, 50.0)])
    assert table.weights.tolist() == [200.0, 100.0, 50.0]
    assert table.probabilities.tolist() == [
        0.5714285714285714,
        0.2857142857142857,
        0.14285714285714285,
    ]


def test_threshold_gates_candidates():
    entries = [(0, 2, 80.0), (1, 4, 50.0), (2, 1, 0.0)]
    table = selection_probabilities(entries, trust_threshold=50.0)
    assert table.idents.tolist() == [0]
    table = selection_probabilities(entries)
    assert table.idents.tolist() == [0, 1]


def test_empty_table():
    table = selection_probabilities([])
    assert table.idents.tolist() == []
    assert select_maps(table, 3, StubRng([0.5, 0.5, 0.5])) == []


def test_entries_sorted_by_ident():
    table = selection_probabilities([(5, 1, 60.0), (1, 1, 60.0)])
    assert table.idents.tolist() == [1, 5]
    assert table.loads.tolist() == [1, 1]


@given(
    st.lists(
        st.tuples(st.integers(1, 8), st.floats(1.0, 100.0)),
        min_size=1,
        max_size=12,
        unique_by=lambda t: t,
    )
)
def test_probabilities_normalised_and_proportional(rows):
    entries = [(i, load, trust) for i, (load, trust) in enumerate(rows)]
    table = selection_probabilities(entries)
    assert sum(table.probabilities) == pytest.approx(1.0, rel=1e-9)
    total = sum(table.weights)
    for w, p in zip(table.weights, table.probabilities):
        assert p == pytest.approx(w / total, rel=1e-12)


GOLDEN_ENTRIES = [
    (0, 4, 100.0),
    (1, 1, 90.0),
    (2, 3, 80.0),
    (3, 2, 60.0),
]


def test_single_draw_lands_by_cumulative_scan():
    # u = 0.6 against weights 400, 90, 240, 120 falls in the third band
    table = selection_probabilities(GOLDEN_ENTRIES)
    assert select_maps(table, 1, StubRng([0.6])) == [2]
    assert select_maps(table, 1, StubRng([0.0])) == [0]
    assert select_maps(table, 1, StubRng([0.99])) == [3]


def test_draws_renormalise_without_replacement():
    table = selection_probabilities(GOLDEN_ENTRIES)
    # first draw takes ident 0; the second scans weights 90, 240, 120
    winners = select_maps(table, 2, StubRng([0.1, 0.5]))
    assert winners == [0, 2]
    assert len(set(winners)) == 2


def test_k_larger_than_pool_returns_everyone():
    table = selection_probabilities(GOLDEN_ENTRIES)
    winners = select_maps(table, 99, StubRng([0.2] * 4))
    assert sorted(winners) == [0, 1, 2, 3]


def test_statistical_inclusion_matches_enumeration():
    # exact inclusion odds for k=2 over weights 200,100,50, from enumeration
    expected = {0: 0.8952380952380952, 1: 0.7142857142857142, 2: 0.3904761904761905}
    table = selection_probabilities(
        [(0, 2, 100.0), (1, 1, 100.0), (2, 1, 50.0)]
    )
    rng = np.random.default_rng(404)
    trials = 20000
    hits = {0: 0, 1: 0, 2: 0}
    for _ in range(trials):
        for ident in select_maps(table, 2, rng):
            hits[ident] += 1
    for ident, p in expected.items():
        sigma = (p * (1 - p) / trials) ** 0.5
        assert abs(hits[ident] / trials - p) < 3 * sigma


def test_table_digest_matches_plain_sha256():
    table = selection_probabilities(GOLDEN_ENTRIES)
    rows = [[0, 4, 100.0], [1, 1, 90.0], [2, 3, 80.0], [3, 2, 60.0]]
    expected = hashlib.sha256(
        json.dumps(rows, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    assert table_digest(table) == expected
    assert table_digest(table) == (
        "41b8032728ac0193dcd16e672750a39e3a444f6df7234c3ff750fd6db558de68"
    )


def test_table_digest_sensitive_to_trust():
    a = selection_probabilities([(0, 1, 60.0)])
    b = selection_probabilities([(0, 1, 61.0)])
    assert table_digest(a) != table_digest(b)


def scalar_select(idents, weights, k, rng):
    """The per-entry scan select_maps replaced, kept as its oracle.

    Totals are summed with an explicit loop: builtin sum() of floats is
    compensated on Python >= 3.12 and would differ from a sequential scan.
    """
    pool = list(range(len(weights)))
    winners = []
    for _ in range(min(k, len(pool))):
        total = 0.0
        for i in pool:
            total += weights[i]
        if total <= 0:
            break
        u = rng.random() * total
        acc = 0.0
        pick = pool[-1]
        for i in pool:
            acc += weights[i]
            if u < acc:
                pick = i
                break
        winners.append(idents[pick])
        pool.remove(pick)
    return winners


# zero trust (kept by a negative threshold) gives zero weights; the tiny
# ones put draws on the subnormal range, where u can round up to the total
TRUSTS = st.one_of(st.floats(0.0, 100.0), st.sampled_from([0.0, 5e-324, 1e-310, 100.0]))
UNIFORMS = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True),
    st.sampled_from([0.0, 0.5, 1.0 - 2.0**-52, 1.0 - 2.0**-53]),
)


# numpy's pairwise sum of these weights is one ulp above the sequential
# one, so a total taken that way lets the largest draw pass every running
# sum and fall through to the trailing zero-weight entry
PAIRWISE_TRAP = [
    (4, 93.4), (6, 35.78), (8, 57.15), (6, 32.19), (7, 59.43), (6, 33.79), (6, 39.16),
    (4, 89.03), (8, 22.72), (2, 62.32), (5, 8.4), (6, 83.26), (7, 78.71), (5, 23.94),
    (4, 87.65), (3, 5.86), (4, 33.61), (4, 15.03), (6, 0.0),
]


@example(rows=PAIRWISE_TRAP, k=1, draws=[1.0 - 2.0**-53] * 30)
@given(
    rows=st.lists(st.tuples(st.integers(1, 8), TRUSTS), max_size=25),
    k=st.integers(0, 30),
    draws=st.lists(UNIFORMS, min_size=30, max_size=30),
)
def test_select_maps_matches_scalar_scan(rows, k, draws):
    entries = [(i, load, trust) for i, (load, trust) in enumerate(rows)]
    table = selection_probabilities(entries, trust_threshold=-1.0)
    weights = [load * trust for _, load, trust in entries]
    assert table.weights.tolist() == weights
    want = scalar_select(list(range(len(rows))), weights, k, StubRng(draws))
    got = select_maps(table, k, StubRng(draws))
    assert got == want
    assert all(type(ident) is int for ident in got)
