import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mapsim.config import SimConfig
from mapsim.radio import alpha_sinr, compute_sinr, link_bandwidth, make_link_stats, path_delay

CFG = SimConfig()


def test_sinr_oracle_no_interference():
    # 2 W over 100 m at exponent 4 is 2e-8 W received, against 1e-13 W noise
    assert compute_sinr(100.0, CFG) == pytest.approx(2e5, rel=1e-12)


def test_sinr_distance_floor():
    assert compute_sinr(0.0, CFG) == compute_sinr(1.0, CFG)
    assert compute_sinr(0.5, CFG) == compute_sinr(1.0, CFG)


def test_bandwidth_oracles():
    assert link_bandwidth(1.0, 1, CFG) == 2.0
    assert link_bandwidth(3.0, 2, CFG) == 2.0


def test_bandwidth_rejects_zero_attachment():
    with pytest.raises(ValueError):
        link_bandwidth(100.0, 0, CFG)


@given(
    sinr=st.floats(0.01, 1e9),
    n=st.integers(1, 50),
)
def test_bandwidth_shares_conserve_the_pool(sinr, n):
    # n equal shares never exceed the single occupant rate
    share = link_bandwidth(sinr, n, CFG)
    assert n * share == pytest.approx(link_bandwidth(sinr, 1, CFG), rel=1e-9)


def test_delay_oracles():
    assert path_delay(100.0, 20.0, CFG) == 6.5
    assert path_delay(50.0, 5.0, CFG) == 6.75
    assert path_delay(0.0, 1e6, CFG) == 1e-05


def test_delay_rejects_nonpositive_sinr():
    with pytest.raises(ValueError):
        path_delay(100.0, 0.0, CFG)
    with pytest.raises(ValueError):
        path_delay(100.0, -3.0, CFG)


def test_alpha_sinr_floor_at_threshold():
    assert alpha_sinr(CFG.sinr_threshold, CFG) == CFG.b0
    assert alpha_sinr(CFG.sinr_threshold * 10, CFG) == CFG.b0
    assert alpha_sinr(CFG.sinr_threshold / 2, CFG) == 2 * CFG.b0


@given(
    d1=st.floats(0.0, 5000.0),
    d2=st.floats(0.0, 5000.0),
)
def test_delay_monotone_in_distance(d1, d2):
    lo, hi = sorted((d1, d2))
    assert path_delay(lo, 50.0, CFG) <= path_delay(hi, 50.0, CFG)


@given(
    s1=st.floats(0.01, 1e8),
    s2=st.floats(0.01, 1e8),
)
def test_delay_monotone_in_sinr(s1, s2):
    lo, hi = sorted((s1, s2))
    assert path_delay(100.0, hi, CFG) <= path_delay(100.0, lo, CFG)


def test_make_link_stats_consistent():
    stats = make_link_stats(3, 190.0, CFG, attached_count=2)
    assert stats.map_ident == 3
    assert stats.distance == 190.0
    assert stats.sinr == compute_sinr(190.0, CFG)
    assert stats.total_delay == path_delay(190.0, stats.sinr, CFG)
    assert stats.bandwidth == link_bandwidth(stats.sinr, 2, CFG)


# the second branch straddles the 1 m point where received power saturates
distances = st.one_of(st.floats(0.0, 5000.0), st.floats(0.5, 1.5))


@given(
    a0=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    d_c=st.floats(1.0, 5000.0),
    b0=st.one_of(st.just(0.0), st.floats(0.0, 100.0)),
    path_loss_exp=st.floats(1.0, 6.0),
    tx_power=st.floats(1e-3, 100.0),
    noise_power=st.floats(1e-16, 1e-9),
    sinr_threshold=st.floats(0.1, 1000.0),
    d1=distances,
    d2=distances,
)
def test_link_delay_never_falls_with_distance(
    a0, d_c, b0, path_loss_exp, tx_power, noise_power, sinr_threshold, d1, d2
):
    # grow_paths scans nearest first and stops at the first link over the
    # delay bound; that is only exact while this holds
    cfg = CFG.replace(
        a0=a0,
        d_c=d_c,
        b0=b0,
        path_loss_exp=path_loss_exp,
        tx_power=tx_power,
        noise_power=noise_power,
        sinr_threshold=sinr_threshold,
    )
    lo, hi = sorted((d1, d2))
    delay = [make_link_stats(1, d, cfg).total_delay for d in (lo, math.nextafter(lo, math.inf), hi)]
    assert delay[0] <= delay[1]
    assert delay[0] <= delay[2]
