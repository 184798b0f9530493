import math

import numpy as np
import pytest

from tcpsync.equilibrium import EquilibriumState, solve_single
from tcpsync.errors import UnsupportedConfigError
from tcpsync.linear_analysis import (
    closed_form_coupling,
    closed_form_frequency,
    coupled_symmetric_coefficients,
    coupling_strength,
    critical_delay,
    crossing_frequency,
    delay_coefficients,
    intrinsic_frequency,
)
from tcpsync.loss_models import INTERMEDIATE, SMALL_BUFFER, NetworkParams
from tcpsync.protocols import ProtocolSpec, decrease_fn, increase_fn

from oracles import count_rhp_roots

SPECS = [ProtocolSpec.compound(), ProtocolSpec.reno(), ProtocolSpec.illinois()]


def equilibrium_net(spec, regime, w_star, tau, b, n=1.0):
    """Construct network parameters for which (w_star, p*) is an exact
    equilibrium, by inverting the loss model at the balance probability
    p* = i/(i+d)."""
    i = increase_fn(spec, w_star)
    d = decrease_fn(spec, w_star)
    p_star = i / (i + d)
    if regime == SMALL_BUFFER:
        # p* = (1/n)(w/(c'tau))**(b/n)  =>  c'tau = w / (n p*)**(n/b)
        cap = w_star / (n * p_star) ** (n / b)
    else:
        # p* = (1/n)(1 - (c'tau/w)**n)  =>  c'tau = w (1 - n p*)**(1/n)
        if n * p_star >= 1.0:
            return None, None
        cap = w_star * (1.0 - n * p_star) ** (1.0 / n)
    net = NetworkParams(c_prime=cap / tau, tau=tau, b=b, n_e=n)
    eq = EquilibriumState(w_star, p_star, 0.0, 0.0)
    return net, eq


def test_closed_form_frequency_reference_values():
    # Illinois, small buffers: (10/(20*0.1)) * sqrt(225 - 4*0.81)
    val = closed_form_frequency(ProtocolSpec.illinois(), SMALL_BUFFER, 20.0, 0.1, 0.1, b=15.0)
    assert val == pytest.approx(5.0 * math.sqrt(221.76), rel=1e-12)
    assert val == pytest.approx(74.45804187594514, rel=1e-12)
    # Reno, intermediate: (25/0.2) * sqrt(1 - 0.16)
    val = closed_form_frequency(ProtocolSpec.reno(), INTERMEDIATE, 25.0, 0.2, 0.1)
    assert val == pytest.approx(125.0 * math.sqrt(0.84), rel=1e-12)
    assert val == pytest.approx(114.564392373896, rel=1e-12)


def test_closed_form_zero_radicand():
    # small buffers: b/n == g  =>  omega = 0
    spec = ProtocolSpec.reno()
    p = 0.5
    b = 2.0 * (1.0 - p)
    assert closed_form_frequency(spec, SMALL_BUFFER, 12.0, p, 0.1, b=b) == 0.0


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.variant)
@pytest.mark.parametrize("regime", [SMALL_BUFFER, INTERMEDIATE])
def test_generic_equals_closed_form_on_solved_equilibria(spec, regime):
    """The tabulated rows are specialisations of the generic radicand; both
    paths must agree at genuine (solved) equilibria."""
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 40:
        net = NetworkParams(
            c_prime=float(rng.uniform(80.0, 900.0)),
            tau=float(rng.uniform(0.02, 0.3)),
            b=float(rng.uniform(4.0, 50.0)),
        )
        eq = solve_single(spec, regime, net)
        omega = intrinsic_frequency(spec, regime, net, eq)
        if not omega:
            continue
        closed = closed_form_frequency(
            spec, regime, eq.w_star, eq.p_edge_star, net.tau, b=net.b
        )
        assert omega == pytest.approx(closed, rel=1e-9)
        checked += 1


def test_intrinsic_frequency_feasibility_tagging():
    spec = ProtocolSpec.reno()
    # tiny buffer: b < g makes the radicand negative
    net, eq = equilibrium_net(spec, SMALL_BUFFER, 20.0, 0.1, b=1.0)
    assert intrinsic_frequency(spec, SMALL_BUFFER, net, eq) is None


def test_closed_form_rejects_bursty_rows():
    spec = ProtocolSpec.reno()
    net, eq = equilibrium_net(spec, SMALL_BUFFER, 20.0, 0.1, b=15.0, n=2.0)
    # the generic path handles n != 1 ...
    assert intrinsic_frequency(spec, SMALL_BUFFER, net, eq) > 0.0
    # ... but there is no tabulated row for it; reject rather than guess
    with pytest.raises(UnsupportedConfigError):
        closed_form_frequency(spec, SMALL_BUFFER, 20.0, 0.01, 0.1, b=15.0, n=2.0)
    with pytest.raises(UnsupportedConfigError):
        closed_form_coupling(spec, INTERMEDIATE, 20.0, C_tilde=400.0, n=2.0)


def test_coupling_strength_reference_relations():
    """Spot identities: Reno small-buffer with p_edge == p_core gives
     1/(2 w tau); doubling the aggregate core rate doubles K in the
    intermediate regime."""
    spec = ProtocolSpec.reno()
    w, tau, b, B = 18.0, 0.1, 12.0, 12.0
    # choose the core so that p_core(w*, w*) equals p_edge(w*)
    p_edge = (w / (250.0 * tau)) ** b
    C_tilde = (2.0 * w / tau) / p_edge ** (1.0 / B)
    net = NetworkParams(c_prime=250.0, tau=tau, b=b, C_tilde=C_tilde, B=B)
    eq = EquilibriumState(w, p_edge, 0.0, 0.0)
    ks = coupling_strength(spec, SMALL_BUFFER, net, eq)
    assert ks == pytest.approx(1.0 / (2.0 * w * tau), rel=1e-12)

    net1 = NetworkParams(c_prime=250.0, tau=tau, b=b, C_tilde=400.0, B=B)
    net2 = NetworkParams(c_prime=250.0, tau=tau, b=b, C_tilde=800.0, B=B)
    k1 = coupling_strength(spec, INTERMEDIATE, net1, eq)
    k2 = coupling_strength(spec, INTERMEDIATE, net2, eq)
    assert k2 == pytest.approx(2.0 * k1, rel=1e-14)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.variant)
def test_intermediate_coupling_closed_form_matches_generic(spec):
    rng = np.random.default_rng(9)
    for _ in range(50):
        w = float(rng.uniform(2.0, 120.0))
        tau = float(rng.uniform(0.02, 0.3))
        C_tilde = float(rng.uniform(100.0, 5000.0))
        net = NetworkParams(c_prime=100.0, tau=tau, b=10.0, C_tilde=C_tilde, B=100.0)
        eq = EquilibriumState(w, 0.01, 0.0, 0.0)
        generic = coupling_strength(spec, INTERMEDIATE, net, eq)
        closed = closed_form_coupling(spec, INTERMEDIATE, w, C_tilde=C_tilde)
        assert generic == pytest.approx(closed, rel=1e-12)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.variant)
def test_small_coupling_closed_form_matches_generic(spec):
    """The printed small-buffer rows measure capacities per round-trip;
    passing c_rtt = c'tau and C_rtt = C~ tau must reproduce the generic
    loss-ratio evaluation."""
    rng = np.random.default_rng(13)
    for _ in range(50):
        w = float(rng.uniform(5.0, 60.0))
        tau = float(rng.uniform(0.02, 0.3))
        b = float(rng.uniform(4.0, 30.0))
        B = float(rng.uniform(4.0, 30.0))
        c_prime = float(rng.uniform(1.2, 3.0)) * w / tau
        C_tilde = float(rng.uniform(1.1, 2.5)) * 2.0 * w / tau
        net = NetworkParams(c_prime=c_prime, tau=tau, b=b, C_tilde=C_tilde, B=B)
        p_edge = (w / (c_prime * tau)) ** b
        eq = EquilibriumState(w, p_edge, 0.0, 0.0)
        generic = coupling_strength(spec, SMALL_BUFFER, net, eq)
        closed = closed_form_coupling(
            spec, SMALL_BUFFER, w, tau=tau, b=b, B=B,
            c_rtt=c_prime * tau, C_rtt=C_tilde * tau,
        )
        assert generic == pytest.approx(closed, rel=1e-12)


def test_frequency_scales_inversely_with_rtt():
    """Holding (w*, p*) fixed and rescaling the round-trip time scales the
    intrinsic frequency by the inverse factor."""
    spec = ProtocolSpec.compound()
    for regime in (SMALL_BUFFER, INTERMEDIATE):
        net1, eq = equilibrium_net(spec, regime, 24.0, 0.1, b=18.0)
        net2 = NetworkParams(
            c_prime=net1.c_prime / 2.0, tau=net1.tau * 2.0, b=net1.b, n_e=net1.n_e
        )
        om1 = intrinsic_frequency(spec, regime, net1, eq)
        om2 = intrinsic_frequency(spec, regime, net2, eq)
        assert om2 == pytest.approx(om1 / 2.0, rel=1e-12)


def test_critical_delay_against_argument_principle():
    """The closed-form stability boundary of du/dt = -a u - c u(t-tau) must
    agree with a contour-integral count of right-half-plane roots."""
    for a, c in [(0.5, 1.5), (2.0, 5.0), (0.0, 1.0)]:
        tau_star = critical_delay(a, c)
        assert tau_star is not None
        assert count_rhp_roots(a, c, 0.8 * tau_star) == 0
        assert count_rhp_roots(a, c, 1.2 * tau_star) == 2
    # delay-independent stability when c <= a
    assert critical_delay(2.0, 1.0) is None
    for tau in (0.1, 10.0, 1000.0):
        assert count_rhp_roots(2.0, 1.0, tau) == 0


def test_crossing_frequency_is_intrinsic_frequency():
    """At an equilibrium the generic intrinsic frequency is, bit for bit,
    the imaginary-axis crossing frequency of the linearised coefficients."""
    spec = ProtocolSpec.reno()
    net, eq = equilibrium_net(spec, SMALL_BUFFER, 8.0, 0.1, b=15.0)
    a, c = delay_coefficients(spec, SMALL_BUFFER, net, eq)
    assert crossing_frequency(a, c) == intrinsic_frequency(spec, SMALL_BUFFER, net, eq)


def test_coupled_symmetric_modes_reduce_to_single_when_uncoupled():
    """With a huge core the cross coefficient vanishes and the self
    coefficient matches the single-set linearisation."""
    spec = ProtocolSpec.reno()
    w, tau, b = 18.0, 0.1, 12.0
    p_edge = 0.01
    cap = w / p_edge ** (1.0 / b)
    net = NetworkParams(c_prime=cap / tau, tau=tau, b=b, C_tilde=5000.0, B=12.0)
    p_core = ((2 * w / tau) / 5000.0) ** 12
    eq = EquilibriumState(w, p_edge, p_core, 0.0)
    a, c_self, c_cross = coupled_symmetric_coefficients(spec, SMALL_BUFFER, net, eq)
    a1, c1 = delay_coefficients(spec, SMALL_BUFFER, net, eq)
    assert a == pytest.approx(a1, rel=1e-12)
    assert c_cross / c_self < 1e-4
    assert c_self == pytest.approx(c1, rel=1e-3)
