import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tcpsync.loss_models import (
    INTERMEDIATE,
    REGIMES,
    SMALL_BUFFER,
    NetworkParams,
    core_loss,
    core_loss_fn,
    edge_loss,
    edge_loss_fn,
)


def test_edge_small_reference_points():
    assert edge_loss_fn(SMALL_BUFFER, 250.0, 0.1, 15, 1.0)(0.0) == 0.0
    # load equal to capacity with smooth traffic saturates at 1
    assert edge_loss_fn(SMALL_BUFFER, 250.0, 0.1, 7, 1.0)(25.0) == pytest.approx(1.0)
    # 0.8**15, frozen by direct power evaluation
    p = edge_loss_fn(SMALL_BUFFER, 250.0, 0.1, 15, 1.0)(20.0)
    assert p == pytest.approx(0.035184372088832, rel=1e-13)
    assert p < 1.0


def test_edge_small_clamping_flags():
    p = edge_loss_fn(SMALL_BUFFER, 250.0, 0.1, 15, 1.0)(30.0)  # above capacity
    assert p == 1.0


def test_edge_intermediate_reference_points():
    smooth = edge_loss_fn(INTERMEDIATE, 200.0, 0.1, 15, 1.0)
    assert smooth(19.0) == 0.0
    assert smooth(20.0) == 0.0  # continuous at capacity
    assert smooth(40.0) == pytest.approx(0.5)
    # (1/2)(1 - 1/4), frozen by direct evaluation
    assert edge_loss_fn(INTERMEDIATE, 200.0, 0.1, 15, 2.0)(40.0) == pytest.approx(0.375, rel=1e-14)


def test_core_small_reference_points():
    core = core_loss_fn(SMALL_BUFFER, 500.0, 15, 1.0)
    assert core(0.0 / 0.1 + 0.0 / 0.1) == 0.0
    # each set loads half the aggregate capacity
    assert core(25.0 / 0.1 + 25.0 / 0.1) == pytest.approx(1.0)
    # aggregate at 0.9 of capacity: 0.9**15, frozen by direct power evaluation
    assert core(22.5 / 0.1 + 22.5 / 0.1) == pytest.approx(0.205891132094649, rel=1e-12)


def test_core_intermediate_reference_points():
    core = core_loss_fn(INTERMEDIATE, 500.0, 15, 1.0)
    assert core(20.0 / 0.1 + 20.0 / 0.1) == 0.0
    assert core(50.0 / 0.1 + 50.0 / 0.1) == pytest.approx(0.5)
    # aggregate = 2*C, n_c = 3: (1/3)(1 - 1/8) = 7/24
    assert core_loss_fn(INTERMEDIATE, 500.0, 15, 3.0)(50.0 / 0.1 + 50.0 / 0.1) == pytest.approx(
        7.0 / 24.0, rel=1e-14
    )


def test_burstiness_one_recovers_smooth_forms():
    """n = 1 must reproduce the smooth formulas pointwise and exactly."""
    small = edge_loss_fn(SMALL_BUFFER, 300.0, 0.08, 12, 1.0)
    inter = edge_loss_fn(INTERMEDIATE, 300.0, 0.08, 12, 1.0)
    for w in np.linspace(0.0, 60.0, 121).tolist():
        s_smooth = min(1.0, (w / 24.0) ** 12)
        assert small(w) == pytest.approx(s_smooth, abs=0)
        i_smooth = max(0.0, (w - 24.0) / w) if w > 0 else 0.0
        assert inter(w) == pytest.approx(i_smooth, rel=1e-15, abs=1e-300)


@given(
    regime=st.sampled_from(REGIMES),
    cap=st.floats(1e-3, 1e6),
    tau=st.floats(1e-3, 10.0),
    buf=st.floats(1.0, 400.0),
    n=st.floats(1.0, 8.0),
    loads=st.lists(st.floats(0.0, 1e300), min_size=1, max_size=40),
)
def test_drop_tail_law_is_clamped_monotone_and_one_function(regime, cap, tau, buf, n, loads):
    """Both laws, edge and core: p stays in [0, 1], never falls as the load
    rises, is 0 at no load, and the array form is the closure elementwise."""
    edge = edge_loss_fn(regime, cap / tau, tau, buf, n)
    core = core_loss_fn(regime, cap, buf, n)
    xs = sorted(loads)
    for p in (edge, core):
        assert p(0.0) == 0.0
        ps = [p(x) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in ps)
        assert all(a <= b for a, b in zip(ps, ps[1:]))
    net = NetworkParams(c_prime=cap / tau, tau=tau, b=buf, C_tilde=cap, B=buf, n_e=n, n_c=n)
    w1 = np.array(xs)
    w2 = w1[::-1].copy()
    assert np.array_equal(edge_loss(regime, w1, net), [edge(x) for x in xs])
    rates = (w1 / tau + w2 / (2.0 * tau)).tolist()
    assert np.array_equal(core_loss(regime, w1, w2, net, tau, 2.0 * tau), [core(r) for r in rates])


def test_intermediate_continuity_at_capacity():
    cap = 250.0 * 0.1
    eps = 1e-9
    p = edge_loss_fn(INTERMEDIATE, 250.0, 0.1, 15, 1.0)
    assert p(cap - eps) == 0.0
    assert p(cap + eps) < 1e-9


def test_core_small_buffer_size_limits():
    """Larger core buffers push loss toward 0 below capacity and keep the
    clamp engaged above it."""
    prev_below = None
    prev_above = None
    for B in (5, 15, 45, 135):
        core = core_loss_fn(SMALL_BUFFER, 500.0, B, 1.0)
        below = core(20.0 / 0.1 + 20.0 / 0.1)
        above_raw = (1.2) ** B  # aggregate 20% above capacity
        above = core(30.0 / 0.1 + 30.0 / 0.1)
        if prev_below is not None:
            assert below < prev_below
            assert above_raw > prev_above
        assert above == 1.0
        prev_below, prev_above = below, above_raw
    assert prev_below < 1e-6


def test_network_params_validation():
    with pytest.raises(ValueError):
        NetworkParams(c_prime=0.0, tau=0.1, b=15)
    with pytest.raises(ValueError):
        NetworkParams(c_prime=100.0, tau=0.1, b=15, n_e=0.5)
    net = NetworkParams(c_prime=100.0, tau=0.1, b=15)
    with pytest.raises(ValueError):
        net.require_core()
    assert net.bdp == pytest.approx(10.0)


def test_regime_dispatchers():
    net = NetworkParams(c_prime=250.0, tau=0.1, b=15, C_tilde=500.0, B=15)
    assert edge_loss(SMALL_BUFFER, 20.0, net) == pytest.approx(0.035184372088832)
    assert edge_loss(INTERMEDIATE, 50.0, net) == pytest.approx(0.5)
    assert core_loss(SMALL_BUFFER, 22.5, 22.5, net) == pytest.approx(0.205891132094649)
    assert type(edge_loss(SMALL_BUFFER, np.float64(20.0), net)) is float
    with pytest.raises(ValueError):
        edge_loss("huge", 20.0, net)
