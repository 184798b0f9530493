import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from tcpsync.equilibrium import _bracket, _decreasing_root, find_root, solve_coupled, solve_single
from tcpsync.errors import NoRootError
from tcpsync.loss_models import (
    INTERMEDIATE,
    SMALL_BUFFER,
    NetworkParams,
    core_loss,
    core_loss_fn,
    edge_loss,
    edge_loss_fn,
)
from tcpsync.protocols import ProtocolSpec, window_laws

from oracles import plain_bisect, reference_bisect, reference_solve_coupled

SPECS = [ProtocolSpec.compound(), ProtocolSpec.reno(), ProtocolSpec.illinois()]


def net_small(c_prime=250.0, tau=0.1, b=15, n_e=1.0, **core):
    return NetworkParams(c_prime=c_prime, tau=tau, b=b, n_e=n_e, **core)


def test_single_small_reference_case():
    """Reno, c'tau = 25 pkts, b = 15: root of (w/25)^15 = 2/(2+w^2)."""
    net = net_small()
    eq = solve_single(ProtocolSpec.reno(), SMALL_BUFFER, net)

    def oracle_f(w):
        return (w / 25.0) ** 15 - 2.0 / (2.0 + w * w)

    w_oracle = plain_bisect(oracle_f, 1.0, 25.0)
    assert eq.w_star == pytest.approx(w_oracle, rel=1e-8)
    assert 17.5 < eq.w_star < 18.0
    assert abs(eq.residual) <= 1e-10


def test_single_intermediate_reference_case():
    """Reno, c'tau = 20: (w-20)/w = 2/(2+w^2) puts w* slightly above 20."""
    net = NetworkParams(c_prime=200.0, tau=0.1, b=15)
    eq = solve_single(ProtocolSpec.reno(), INTERMEDIATE, net)

    def oracle_f(w):
        return (w - 20.0) / w - 2.0 / (2.0 + w * w)

    w_oracle = plain_bisect(oracle_f, 20.0 + 1e-12, 40.0)
    assert eq.w_star == pytest.approx(w_oracle, rel=1e-8)
    assert 20.0 < eq.w_star < 20.5


def test_single_large_buffer_approaches_capacity_point():
    """As the buffer grows the loss vanishes below capacity, so w* -> c'tau
    from below."""
    prev_gap = None
    for b in (20, 80, 320, 1280, 5120, 20480):
        eq = solve_single(ProtocolSpec.reno(), SMALL_BUFFER, net_small(b=b))
        gap = 25.0 - eq.w_star
        assert gap > 0
        if prev_gap is not None:
            assert gap < prev_gap
        prev_gap = gap
    assert prev_gap < 0.05


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.variant)
@pytest.mark.parametrize("regime", [SMALL_BUFFER, INTERMEDIATE])
def test_single_residual_and_oracle_agreement(spec, regime):
    rng = np.random.default_rng(3)
    for _ in range(25):
        net = NetworkParams(
            c_prime=float(rng.uniform(50.0, 800.0)),
            tau=float(rng.uniform(0.02, 0.3)),
            b=float(rng.uniform(5.0, 60.0)),
            n_e=float(rng.choice([1.0, 2.0, 5.0])),
        )
        eq = solve_single(spec, regime, net)
        assert abs(eq.residual) <= 1e-10
        assert 0.0 < eq.p_total < 1.0

        def f(w):
            return window_laws(spec).gain(w, edge_loss(regime, w, net))

        lo = net.bdp * (1 + 1e-9) if regime == INTERMEDIATE else 1e-6
        w_oracle = plain_bisect(f, lo, 10 * net.bdp)
        assert eq.w_star == pytest.approx(w_oracle, rel=1e-8)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.variant)
@pytest.mark.parametrize("regime", [SMALL_BUFFER, INTERMEDIATE])
def test_single_residual_monotone_on_bracket(spec, regime):
    """Strict monotonicity of the balance residual justifies bisection."""
    net = net_small(b=15)
    lo = net.bdp * (1 + 1e-6) if regime == INTERMEDIATE else 1e-3
    ws = np.linspace(lo, 10 * net.bdp, 400)
    vals = [window_laws(spec).gain(w, edge_loss(regime, w, net)) for w in ws]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def bisection_count(f, a, b):
    """Evaluations that halving [a, b] makes before no double lies strictly
    inside the bracket or it meets an exact zero."""
    fa, count = f(a), 0
    while a < 0.5 * (a + b) < b:
        mid = 0.5 * (a + b)
        fm = f(mid)
        count += 1
        if fm == 0.0:
            break
        if (fm > 0.0) == (fa > 0.0):
            a, fa = mid, fm
        else:
            b = mid
    return count


FINDER_CASES = {
    # sign only: interpolation has nothing to go on
    "step": (lambda x: 1.0 if x < 1.0 / 3.0 else -1.0, 0.0, 1.0),
    # the 1/w pole of the gain at the 1e-6 end of the inner bracket
    "pole": (lambda w: 1.0 / w - 0.07, 1e-6, 200.0),
    # zero on a plateau 5e-6 wide, stepped by rounding around it
    "flat": (lambda x: ((0.3 - x) ** 3 + 1.0) - 1.0, 0.0, 1.0),
    # -inf, then NaN, over the upper end of the bracket
    "non-finite": (lambda x: math.nan if x > 0.9 else -math.inf if x > 0.7 else 0.6 - x * x,
                   0.0, 1.0),
}


@pytest.mark.parametrize("case", FINDER_CASES)
@pytest.mark.parametrize("reverse", [False, True], ids=["ascending", "descending"])
def test_find_root_brackets_within_bisection_count(case, reverse):
    """On each hard input the search makes at most 12 evaluations more than
    bisection, and its ends still bracket the sign change at float
    resolution (or meet an exact zero)."""
    f, a, b = FINDER_CASES[case]
    if reverse:
        a, b = b, a
    calls = 0

    def counted(x):
        nonlocal calls
        calls += 1
        return f(x)

    x, y = find_root(counted, a, b, f(a), f(b))
    assert calls <= bisection_count(f, min(a, b), max(a, b)) + 12
    assert min(a, b) <= min(x, y) <= max(x, y) <= max(a, b)
    if f(x) != 0.0:
        assert (f(x) > 0.0) != (f(y) > 0.0)
        assert 0.5 * (x + y) in (x, y)


def test_no_root_reports_bracket():
    with pytest.raises(NoRootError) as exc:
        # residual already negative at the lower bracket edge
        _decreasing_root(lambda w: -1.0, 1e-6, 10.0)
    assert exc.value.bracket == (1e-6, 10.0)


def core_net(**kw):
    defaults = dict(c_prime=250.0, tau=0.1, b=15, C_tilde=492.5, B=15)
    defaults.update(kw)
    return NetworkParams(**defaults)


def test_coupled_symmetric_is_exactly_symmetric():
    for spec in SPECS:
        net = core_net()
        e1, e2 = solve_coupled(spec, SMALL_BUFFER, net, 0.1, 0.1)
        assert e1.w_star == e2.w_star
        assert e1.p_edge_star == e2.p_edge_star


def test_coupled_exchange_symmetry():
    net = core_net()
    spec = ProtocolSpec.compound()
    a1, a2 = solve_coupled(spec, SMALL_BUFFER, net, 0.1, 0.12)
    b1, b2 = solve_coupled(spec, SMALL_BUFFER, net, 0.12, 0.1)
    assert a1.w_star == pytest.approx(b2.w_star, rel=1e-12)
    assert a2.w_star == pytest.approx(b1.w_star, rel=1e-12)


def test_coupled_search_is_superlinear(monkeypatch):
    """README analyze config: the warm-started Brent-Dekker searches solve
    the coupled equilibrium in 288 gain calls; the bisections they replaced
    made 5,786."""
    from tcpsync import equilibrium

    calls = 0

    def counted_laws(spec):
        laws = window_laws(spec)

        def gain(w, p):
            nonlocal calls
            calls += 1
            return laws.gain(w, p)

        return laws._replace(gain=gain)

    monkeypatch.setattr(equilibrium, "window_laws", counted_laws)
    net = NetworkParams(c_prime=300.0, tau=0.105, b=50.0, C_tilde=1.97 * 300.0, B=100.0)
    eq1, _ = solve_coupled(ProtocolSpec.compound(), INTERMEDIATE, net, 0.1, 0.11)
    assert eq1.p_core_star > 0.0
    assert calls <= 350


def test_coupled_warm_bracket_falls_back_to_the_full_one(monkeypatch):
    """An inner solve whose warm bracket shows no sign change reruns on the
    full bracket: with every warm bracket refused, the solve still lands on
    the same fixed point."""
    from tcpsync import equilibrium

    spec, net, taus = ProtocolSpec.compound(), core_net(), (0.1, 0.11)
    want = solve_coupled(spec, SMALL_BUFFER, net, *taus)
    full_tops = {10.0 * net.c_prime * tau for tau in taus}
    fallbacks = 0
    solve = equilibrium._decreasing_root

    def warm_refused(f, lo, hi):
        nonlocal fallbacks
        if hi not in full_tops:
            fallbacks += 1
            raise NoRootError("warm bracket refused", bracket=(lo, hi))
        return solve(f, lo, hi)

    monkeypatch.setattr(equilibrium, "_decreasing_root", warm_refused)
    got = solve_coupled(spec, SMALL_BUFFER, net, *taus)
    assert fallbacks > 10
    for g, w in zip(got, want):
        assert g.w_star == pytest.approx(w.w_star, rel=1e-12)
        assert abs(g.residual) <= 1e-10


def test_coupled_huge_core_capacity_decouples():
    spec = ProtocolSpec.reno()
    net = core_net(C_tilde=1e9, B=15)
    single = solve_single(spec, SMALL_BUFFER, net)
    e1, e2 = solve_coupled(spec, SMALL_BUFFER, net, 0.1, 0.1)
    assert e1.p_core_star < 1e-12
    assert e1.w_star == pytest.approx(single.w_star, rel=1e-9)


def test_coupled_core_loss_lowers_windows():
    """With a busy core (per-set share 0.985 c'), the coupled equilibrium
    sits below the single-edge one."""
    spec = ProtocolSpec.reno()
    net = core_net(C_tilde=2 * 0.985 * 250.0)
    single = solve_single(spec, SMALL_BUFFER, net)
    e1, _ = solve_coupled(spec, SMALL_BUFFER, net, 0.1, 0.1)
    assert e1.p_core_star > 1e-6
    assert e1.w_star < single.w_star


COUPLED_CASES = [
    pytest.param(spec, regime, dict(C_tilde=2 * 0.9 * 250.0, B=20), id=f"{regime}-{spec.variant}")
    for regime in (SMALL_BUFFER, INTERMEDIATE)
    for spec in SPECS
] + [
    # the edge-only windows lose most of their packets at this core, yet the
    # coupled equilibrium is ordinary (p_core about 0.007)
    pytest.param(
        ProtocolSpec.compound(), SMALL_BUFFER, dict(b=25, C_tilde=375.0, B=40),
        id="small-buffer-compound-core-overload",
    ),
]


def fixed_point_mismatch(regime, net, tau1, tau2, states):
    """(|core loss of the solved windows - the reported core loss|, its
    rounding floor): the floor is the move of the core loss under a 4 ulp
    move of the aggregate rate, plus one ulp of the core loss."""
    e1, e2 = states
    core = core_loss_fn(regime, net.C_tilde, net.B, net.n_c)
    rate = e1.w_star / tau1 + e2.w_star / tau2
    floor = abs(core(rate * (1.0 + 4 * 2.0**-52)) - core(rate)) + math.ulp(e1.p_core_star)
    return abs(core(rate) - e1.p_core_star), floor


def assert_matches_reference(spec, regime, net, tau1, tau2, states):
    """The coupled windows within 1e-8 of the former bisection's, with a
    fixed-point mismatch no larger than its or within the rounding floor;
    the single-set window within 1e-12 of its; both residuals below 1e-10."""
    ref = reference_solve_coupled(spec, regime, net, tau1, tau2)
    for got, want in zip(states, ref):
        assert got.w_star == pytest.approx(want.w_star, rel=1e-8, abs=0.0)
        assert abs(got.residual) <= 1e-10
    mismatch, floor = fixed_point_mismatch(regime, net, tau1, tau2, states)
    assert mismatch <= max(fixed_point_mismatch(regime, net, tau1, tau2, ref)[0], floor)
    gain = window_laws(spec).gain
    loss = edge_loss_fn(regime, net.c_prime, net.tau, net.b, net.n_e)
    w = reference_bisect(lambda w: gain(w, loss(w)), *_bracket(regime, net))
    assert solve_single(spec, regime, net).w_star == pytest.approx(w, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("spec, regime, core_kw", COUPLED_CASES)
def test_coupled_residuals_and_independent_root(spec, regime, core_kw):
    """Residuals below 1e-10 and agreement with a scipy multi-dimensional
    root solve of the simultaneous balance equations."""
    net = core_net(**core_kw)
    tau1, tau2 = 0.1, 0.11
    e1, e2 = solve_coupled(spec, regime, net, tau1, tau2)
    assert_matches_reference(spec, regime, net, tau1, tau2, (e1, e2))

    def system(ws):
        w1, w2 = ws
        pc = core_loss(regime, w1, w2, net, tau1, tau2)
        r1 = window_laws(spec).gain(w1, edge_loss(regime, w1, net, tau=tau1) + pc)
        r2 = window_laws(spec).gain(w2, edge_loss(regime, w2, net, tau=tau2) + pc)
        return [r1, r2]

    sol = optimize.root(system, [e1.w_star * 1.07, e2.w_star * 0.93], tol=1e-13)
    assert sol.success
    assert e1.w_star == pytest.approx(sol.x[0], rel=1e-8)
    assert e2.w_star == pytest.approx(sol.x[1], rel=1e-8)


def test_single_large_small_buffer_saturates_instead_of_overflowing():
    """(w/c'tau)**b overflows a float at the top of the bracket once b is
    in the hundreds; the loss saturates at 1 there, as in the array path.
    The window keeps its bits and agrees with plain bisection."""
    net = NetworkParams(c_prime=200.0, tau=0.1, b=400)
    eq = solve_single(ProtocolSpec.reno(), SMALL_BUFFER, net)
    assert eq.w_star == 19.737880194090014
    gain = window_laws(ProtocolSpec.reno()).gain
    w = plain_bisect(lambda w: gain(w, edge_loss(SMALL_BUFFER, w, net)),
                     *_bracket(SMALL_BUFFER, net))
    assert eq.w_star == pytest.approx(w, rel=1e-12, abs=0.0)


def _dimensioning(capacity_pkts, n_flows):
    return float(max(1, round(capacity_pkts * 0.250 / math.sqrt(n_flows))))


@settings(max_examples=40)
@given(
    spec=st.sampled_from(SPECS),
    regime=st.sampled_from([SMALL_BUFFER, INTERMEDIATE]),
    c_prime=st.floats(50.0, 5000.0),
    factor=st.floats(1.5, 1.97),
    rtt1=st.floats(0.02, 0.2),
    ratio=st.floats(1.0, 1.1),
    b=st.floats(5.0, 30.0),
    B=st.floats(15.0, 60.0),
)
def test_coupled_property_over_analyze_box(spec, regime, c_prime, factor, rtt1, ratio, b, B):
    """Over the parameter box of the analyze benchmark workload: residuals at
    the noise floor, the core loss inside [0, p0] (p0 the core loss at the
    edge-only windows), exact exchange symmetry in the two delays, and
    agreement with the hand-written bisection loops that ``find_root``
    replaced, with a fixed-point mismatch no larger than theirs."""
    if regime == INTERMEDIATE:
        b = _dimensioning(10.0 * c_prime, 10)
        B = _dimensioning(10.0 * factor * c_prime, 20)
    tau1, tau2 = rtt1, rtt1 * ratio
    net = NetworkParams(c_prime=c_prime, tau=0.5 * (tau1 + tau2), b=b,
                        C_tilde=factor * c_prime, B=B)
    e1, e2 = solve_coupled(spec, regime, net, tau1, tau2)
    assert_matches_reference(spec, regime, net, tau1, tau2, (e1, e2))

    w1 = solve_single(spec, regime, replace(net, tau=tau1)).w_star
    w2 = solve_single(spec, regime, replace(net, tau=tau2)).w_star
    p0 = core_loss(regime, w1, w2, net, tau1, tau2)
    # solve_single brackets the intermediate regime differently, so its
    # windows (and p0) agree with the solver's own only to bisection tolerance
    assert 0.0 <= e1.p_core_star <= p0 * (1.0 + 1e-9)

    s1, s2 = solve_coupled(spec, regime, net, tau2, tau1)
    assert (s1.w_star, s2.w_star) == (e2.w_star, e1.w_star)


@settings(max_examples=40)
@given(
    spec=st.sampled_from(SPECS),
    regime=st.sampled_from([SMALL_BUFFER, INTERMEDIATE]),
    c_prime=st.floats(50.0, 5000.0),
    factor=st.floats(1.5, 1.97),
    rtt1=st.floats(0.02, 0.2),
    ratio=st.floats(1.0, 1.1),
    b=st.floats(5.0, 30.0),
    B=st.floats(15.0, 60.0),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6),
)
def test_coupled_window_does_not_increase_with_core_loss(
        spec, regime, c_prime, factor, rtt1, ratio, b, B, fractions):
    """Over the analyze box, each set's balanced window w_m(q) at a trial core
    loss q in [0, p0] does not increase with q beyond rounding, so windows
    solved at two trial losses bracket the window at any loss between: the
    warm start of the coupled solve rests on this."""
    if regime == INTERMEDIATE:
        b = _dimensioning(10.0 * c_prime, 10)
        B = _dimensioning(10.0 * factor * c_prime, 20)
    taus = (rtt1, rtt1 * ratio)
    net = NetworkParams(c_prime=c_prime, tau=0.5 * sum(taus), b=b,
                        C_tilde=factor * c_prime, B=B)
    gain = window_laws(spec).gain
    core = core_loss_fn(regime, net.C_tilde, net.B, net.n_c)

    def window(tau, q):
        """The oracle's balanced window at core loss q, None where none exists."""
        loss = edge_loss_fn(regime, net.c_prime, tau, net.b, net.n_e)

        def f(w):
            return gain(w, loss(w) + q)

        lo, hi = 1e-6, 10.0 * net.c_prime * tau
        return plain_bisect(f, lo, hi) if f(lo) >= 0.0 else None

    p0 = core(sum(window(tau, 0.0) / tau for tau in taus))
    qs = sorted(u * p0 for u in fractions)
    for tau in taus:
        ws = [window(tau, q) for q in qs]
        # a set that cannot balance at some loss cannot at any larger one
        assert all(w2 is None or (w1 is not None and w2 <= w1 * (1.0 + 4 * 2.0**-52))
                   for w1, w2 in zip(ws, ws[1:]))
