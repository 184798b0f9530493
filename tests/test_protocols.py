import numpy as np
import pytest

from tcpsync.protocols import (
    COMPOUND,
    ILLINOIS,
    RENO,
    ProtocolSpec,
    decrease_fn,
    g_factor,
    increase_fn,
    window_laws,
)

from oracles import symbolic_g

CPD = ProtocolSpec.compound()
RNO = ProtocolSpec.reno()
ILL = ProtocolSpec.illinois()


def test_increase_fn_reference_points():
    assert increase_fn(CPD, 1.0) == pytest.approx(0.125, abs=0)
    assert increase_fn(RNO, 2.0) == pytest.approx(0.5, abs=0)
    # 16**0.25 = 2, so 0.125 * 16**(-0.25) = 0.0625 exactly
    assert increase_fn(CPD, 16.0) == pytest.approx(0.0625, rel=1e-15)
    assert increase_fn(ILL, 10.0) == pytest.approx(1.0, rel=1e-15)


def test_decrease_fn_reference_points():
    assert decrease_fn(CPD, 10.0) == pytest.approx(5.0)
    assert decrease_fn(RNO, 10.0) == pytest.approx(5.0)
    assert decrease_fn(ILL, 8.0) == pytest.approx(1.0)


def test_domain_errors():
    for fn in (increase_fn, decrease_fn):
        with pytest.raises(ValueError):
            fn(RNO, 0.0)
        with pytest.raises(ValueError):
            fn(CPD, -3.0)
    with pytest.raises(ValueError):
        g_factor(RNO, 10.0, 0.0)
    with pytest.raises(ValueError):
        g_factor(RNO, 10.0, 1.0)


def test_compound_k_edge_cases():
    flat = ProtocolSpec.compound(k=1.0)
    assert increase_fn(flat, 7.0) == pytest.approx(flat.alpha)
    inv = ProtocolSpec.compound(k=0.0)
    assert increase_fn(inv, 8.0) == pytest.approx(inv.alpha / 8.0)


def test_g_factor_reference_points():
    assert g_factor(RNO, 12.0, 0.5) == pytest.approx(1.0)
    assert g_factor(CPD, 20.0, 0.2) == pytest.approx(1.0)  # (2-0.75)*0.8
    assert g_factor(ILL, 8.0, 0.1) == pytest.approx(1.8)


def test_g_factor_matches_symbolic_oracle():
    """Against direct symbolic differentiation of the i/d forms, using the
    equilibrium identity d/(i+d) = 1-p to map p onto the damping factor."""
    rng = np.random.default_rng(7)
    for spec, variant, params in [
        (CPD, COMPOUND, {"alpha": 0.125, "beta": 0.5, "k": 0.75}),
        (RNO, RENO, {}),
        (ILL, ILLINOIS, {"alpha_max": 10.0, "beta_min": 0.125}),
    ]:
        for _ in range(8):
            w = float(rng.uniform(1.0, 200.0))
            p = float(rng.uniform(0.01, 0.95))
            assert g_factor(spec, w, p) == pytest.approx(
                symbolic_g(variant, w, p, params), rel=1e-12
            )


def test_g_factor_limits():
    # vanishes as the loss probability approaches one
    assert g_factor(CPD, 10.0, 1.0 - 1e-12) < 1e-11
    # exact closed form for Compound
    for p in (0.05, 0.3, 0.7):
        assert g_factor(CPD, 33.0, p) == pytest.approx((2 - CPD.k) * (1 - p), rel=1e-15)


def test_increase_monotonicity():
    ws = np.linspace(0.5, 100.0, 300)
    for spec in (CPD, RNO, ILL):
        vals = [increase_fn(spec, w) for w in ws]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))  # k < 1 here


def test_decrease_linear_increasing():
    for spec in (CPD, RNO, ILL):
        assert decrease_fn(spec, 20.0) == pytest.approx(2 * decrease_fn(spec, 10.0))
        assert decrease_fn(spec, 20.0) > decrease_fn(spec, 10.0)


def test_window_gain_reference_points():
    """The fluid window derivative (w_lag/tau) gain(w, p) at w = w_lag = 10,
    tau = 0.1: 100 (1/w) = 10 without loss, -100 (w/2) = -500 at p = 1."""
    gain = window_laws(RNO).gain
    assert (10.0 / 0.1) * gain(10.0, 0.0) == pytest.approx(10.0)
    assert (10.0 / 0.1) * gain(10.0, 1.0) == pytest.approx(-500.0)


def test_window_gain_sign_change_at_balance():
    """The window derivative flips sign exactly at p = i/(i+d) for fixed w."""
    for spec in (CPD, RNO, ILL):
        w = 14.0
        gain = window_laws(spec).gain
        i, d = increase_fn(spec, w), decrease_fn(spec, w)
        p_bal = i / (i + d)
        assert (w / 0.2) * gain(w, p_bal) == pytest.approx(0.0, abs=1e-14)
        assert gain(w, p_bal - 1e-6) > 0
        assert gain(w, p_bal + 1e-6) < 0


def test_spec_validation():
    with pytest.raises(ValueError):
        ProtocolSpec("vegas")
    with pytest.raises(ValueError):
        ProtocolSpec.compound(k=1.5)
    with pytest.raises(ValueError):
        ProtocolSpec.compound(beta=1.0)
    with pytest.raises(ValueError):
        ProtocolSpec.illinois(beta_min=0.0)
