import hashlib
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mapsim.selection import CandidateTable, RowText, select_maps, selection_probabilities, table_digest

from oracles import StubRng, probabilities


def table_of(rows, eligible=None):
    """The election table of identities 0..n-1 with these (load, trust) rows."""
    load = np.array([load for load, _ in rows], dtype=np.int64)
    score = np.array([trust for _, trust in rows], dtype=np.float64)
    if eligible is None:
        eligible = np.ones(len(rows), dtype=bool)
    return selection_probabilities(load, score, eligible)


def test_probability_oracle():
    # loads 2,1,1 at trusts 100,100,50 weight to 200,100,50
    table = table_of([(2, 100.0), (1, 100.0), (1, 50.0)])
    assert table.weights.tolist() == [200.0, 100.0, 50.0]
    assert probabilities(table).tolist() == [
        0.5714285714285714,
        0.2857142857142857,
        0.14285714285714285,
    ]


def test_eligibility_and_positive_trust_gate_candidates():
    # zero trust never makes the table, the least positive trust does
    rows = [(2, 80.0), (4, 50.0), (1, 0.0), (3, 5e-324)]
    assert table_of(rows).idents.tolist() == [0, 1, 3]
    table = table_of(rows, np.array([True, False, True, True]))
    assert table.idents.tolist() == [0, 3]
    assert table.weights.tolist() == [160.0, 1.5e-323]
    assert table_of(rows, np.zeros(4, dtype=bool)).idents.tolist() == []


def test_empty_table():
    table = table_of([])
    assert table.idents.tolist() == []
    assert table.weights.dtype == np.float64
    assert select_maps(table, 3, StubRng([0.5, 0.5, 0.5])) == []


def test_idents_ascend_and_skip_ineligible_identities():
    rows = [(1, 60.0), (2, 60.0), (3, 60.0), (4, 0.0), (5, 60.0), (6, 60.0)]
    table = table_of(rows, np.array([False, True, False, True, False, True]))
    assert table.idents.tolist() == [1, 5]
    assert table.loads.tolist() == [2, 6]
    assert table.trust.tolist() == [60.0, 60.0]
    assert table.idents.dtype == table.loads.dtype == np.int64


@given(
    st.lists(
        st.tuples(st.integers(1, 8), st.floats(1.0, 100.0)),
        min_size=1,
        max_size=12,
        unique_by=lambda t: t,
    )
)
def test_probabilities_normalised_and_proportional(rows):
    table = table_of(rows)
    assert sum(probabilities(table)) == pytest.approx(1.0, rel=1e-9)
    total = sum(table.weights)
    for w, p in zip(table.weights, probabilities(table)):
        assert p == pytest.approx(w / total, rel=1e-12)


# (load, trust) of identities 0..3
GOLDEN_ROWS = [(4, 100.0), (1, 90.0), (3, 80.0), (2, 60.0)]


def test_single_draw_lands_by_cumulative_scan():
    # u = 0.6 against weights 400, 90, 240, 120 falls in the third band
    table = table_of(GOLDEN_ROWS)
    assert select_maps(table, 1, StubRng([0.6])) == [2]
    assert select_maps(table, 1, StubRng([0.0])) == [0]
    assert select_maps(table, 1, StubRng([0.99])) == [3]


def test_draws_renormalise_without_replacement():
    table = table_of(GOLDEN_ROWS)
    # first draw takes ident 0; the second scans weights 90, 240, 120
    winners = select_maps(table, 2, StubRng([0.1, 0.5]))
    assert winners == [0, 2]
    assert len(set(winners)) == 2


def test_k_larger_than_pool_returns_everyone():
    table = table_of(GOLDEN_ROWS)
    winners = select_maps(table, 99, StubRng([0.2] * 4))
    assert sorted(winners) == [0, 1, 2, 3]


def test_statistical_inclusion_matches_enumeration():
    # exact inclusion odds for k=2 over weights 200,100,50, from enumeration
    expected = {0: 0.8952380952380952, 1: 0.7142857142857142, 2: 0.3904761904761905}
    table = table_of([(2, 100.0), (1, 100.0), (1, 50.0)])
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
    table = table_of(GOLDEN_ROWS)
    rows = [[0, 4, 100.0], [1, 1, 90.0], [2, 3, 80.0], [3, 2, 60.0]]
    expected = hashlib.sha256(
        json.dumps(rows, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    assert table_digest(table, RowText(4)) == expected
    assert table_digest(table, RowText(4)) == (
        "41b8032728ac0193dcd16e672750a39e3a444f6df7234c3ff750fd6db558de68"
    )


def test_table_digest_sensitive_to_trust():
    a = table_of([(1, 60.0)])
    b = table_of([(1, 61.0)])
    assert table_digest(a, RowText(1)) != table_digest(b, RowText(1))


def stdlib_digest(table):
    """table_digest before its row cache, kept as its oracle."""
    rows = list(zip(table.idents.tolist(), table.loads.tolist(), table.trust.tolist()))
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


# idents lie in the cache's 0..39, as a state's lie in its RowText; 2**53
# is the largest load the config allows
IDENTS = st.integers(0, 39)
LOADS = st.one_of(st.integers(1, 8), st.integers(1, 2**53))
POSITIVE_TRUSTS = st.one_of(
    st.floats(5e-324, 1.7976931348623157e308, allow_subnormal=True),
    st.sampled_from([5e-324, 1e-05, 1e16, 100.0]),
)


@example(rows={}, pick=0)
@example(rows={3: (1, 1.7976931348623157e308)}, pick=0)
@example(rows={0: (2**53, 5e-324), 7: (1, 1e-05), 39: (3, 1e16)}, pick=1)
@given(
    rows=st.dictionaries(IDENTS, st.tuples(LOADS, POSITIVE_TRUSTS), max_size=30),
    pick=st.integers(0, 29),
)
def test_table_digest_matches_stdlib_encoding(rows, pick):
    text = RowText(40)

    def check(rows):
        # the digest reads only idents, loads and trust
        idents = sorted(rows)
        loads = np.array([rows[i][0] for i in idents], dtype=np.int64)
        trust = np.array([rows[i][1] for i in idents], dtype=np.float64)
        table = CandidateTable(np.array(idents, dtype=np.int64), loads, trust, None)
        got = table_digest(table, text)
        assert got == stdlib_digest(table)
        return got

    check(rows)
    assert check({}) == hashlib.sha256(b"[]").hexdigest()
    if not rows:
        return
    ident = sorted(rows)[pick % len(rows)]
    load, trust = rows[ident]
    # one ulp of trust, then another load, then the row leaves and returns
    check({**rows, ident: (load, float(np.nextafter(trust, 0.0)))})
    check({**rows, ident: (load - 1 if load > 1 else 2, trust)})
    check({i: row for i, row in rows.items() if i != ident})
    check(rows)
    # then another row leaves in its place: as many idents, no row stale
    other = sorted(rows)[(pick + 1) % len(rows)]
    check({i: row for i, row in rows.items() if i != ident})
    check({i: row for i, row in rows.items() if i != other})


def test_table_digest_hashes_only_a_changed_table(monkeypatch):
    table, text = table_of(GOLDEN_ROWS), RowText(4)
    first = table_digest(table, text)
    hashed = []

    def counted(data):
        hashed.append(data)
        return hashlib.sha256(data)

    monkeypatch.setattr("mapsim.selection.hashlib", SimpleNamespace(sha256=counted))
    # the same rows again take the last digest, unhashed
    assert table_digest(table, text) == first
    assert hashed == []
    # ident 2 leaves and every other row is as it was: no row is stale, but
    # the idents differ, so the table is hashed again
    keep = table.idents != 2
    smaller = CandidateTable(table.idents[keep], table.loads[keep], table.trust[keep], table.weights[keep])
    assert table_digest(smaller, text) == stdlib_digest(smaller)
    assert len(hashed) == 1


def scalar_select(idents, weights, k, rng, taken=()):
    """The per-entry scan select_maps replaced, kept as its oracle.

    Totals are summed with an explicit loop: builtin sum() of floats is
    compensated on Python >= 3.12 and would differ from a sequential scan.
    Rows whose ident is taken are never in the pool.
    """
    pool = [i for i in range(len(weights)) if idents[i] not in taken]
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


# the last row is taken, so a draw rounding up to the total must fall back
# to the last row still in the pool
LAST_TAKEN = [(3, 5e-324), (2, 5e-324), (4, 60.0)]


@example(rows=PAIRWISE_TRAP, k=1, draws=[1.0 - 2.0**-53] * 30, taken=[])
@example(rows=PAIRWISE_TRAP, k=3, draws=[1.0 - 2.0**-53] * 30, taken=[2, 18])
@example(rows=LAST_TAKEN, k=2, draws=[1.0 - 2.0**-53] * 30, taken=[2])
@example(rows=[(4, 100.0), (1, 90.0), (3, 80.0)], k=2, draws=[0.5] * 30, taken=[1, 99])
# nothing taken: a draw rounding up to the total falls back to the last row
# not yet drawn, whatever its weight, on the first draw and after a pick
@example(rows=[(1, 5e-324), (1, 0.0)], k=2, draws=[1.0 - 2.0**-53] * 30, taken=[])
@example(rows=[(4, 60.0), (3, 5e-324), (2, 5e-324), (1, 0.0)], k=3, draws=[0.5] + [1.0 - 2.0**-53] * 29, taken=[])
@given(
    rows=st.lists(st.tuples(st.integers(1, 8), TRUSTS), max_size=25),
    k=st.integers(-2, 30),
    draws=st.lists(UNIFORMS, min_size=30, max_size=30),
    taken=st.lists(st.integers(0, 30), unique=True, max_size=10),
)
def test_select_maps_matches_scalar_scan(rows, k, draws, taken):
    # zero trust never makes an election table, but select_maps must still
    # scan past zero weights, so this table is built by hand
    idents = np.arange(len(rows))
    load = np.array([load for load, _ in rows], dtype=np.int64)
    trust = np.array([trust for _, trust in rows], dtype=np.float64)
    weights = [load * trust for load, trust in rows]
    table = CandidateTable(idents, load, trust, np.array(weights, dtype=np.float64))
    # the engine's table holds the positive-trust rows at the same weights
    positive = table_of(rows)
    assert positive.weights.tolist() == [w for w, (_, t) in zip(weights, rows) if t > 0]
    want = scalar_select(idents.tolist(), weights, k, StubRng(draws), taken)
    rng = StubRng(draws)
    got = select_maps(table, k, rng, taken)
    assert got == want
    assert all(type(ident) is int for ident in got)
    # the same draws, and as many uniforms, as from the table without the taken rows
    keep = ~np.isin(idents, taken)
    pool = CandidateTable(idents[keep], load[keep], trust[keep], table.weights[keep])
    pool_rng = StubRng(draws)
    assert select_maps(pool, k, pool_rng) == got
    assert len(pool_rng.values) == len(rng.values)
    # and on the engine's tables, taken rows draw as ineligible identities do
    a, b = StubRng(draws), StubRng(draws)
    assert select_maps(positive, k, a, taken) == select_maps(table_of(rows, keep), k, b)
    assert len(a.values) == len(b.values)
