import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tcpsync import sync_solver
from tcpsync.dde_sim import (
    phase_model_equal,
    phase_model_intermediate_equal,
    phase_model_small_equal,
)
from tcpsync.equilibrium import solve_single
from tcpsync.linear_analysis import coupling_strength, intrinsic_frequency
from tcpsync.loss_models import INTERMEDIATE, SMALL_BUFFER, NetworkParams
from tcpsync.protocols import ProtocolSpec
from tcpsync.sync_solver import (
    FLOOR_RTOL,
    POLISH_RTOL,
    SyncProblem,
    _lock_verdict,
    _omega_max,
    _scan_grid,
    _wrap,
    coupling_range,
    critical_coupling,
    order_parameter,
    select_state,
    solve_sync,
)

from oracles import (
    brute_sync_roots,
    reference_coupling_range,
    reference_critical_coupling,
    reference_solve_sync,
    reference_stability_factor,
    reference_state_on_curve,
    whole_grid_scan_roots,
)


def inter_problem(omega1=50.0, omega2=51.0, K=30.0, tau=0.1):
    return SyncProblem(omega1, omega2, K, tau, INTERMEDIATE)


def small_problem(omega1=62.8, omega2=62.8, K=2.0, tau=0.1, B=15.0, b=15.0):
    return SyncProblem(omega1, omega2, K, tau, SMALL_BUFFER, B=B, b=b)


def back_substitute(problem, st):
    """Raw residuals of the two locked-state relations."""
    d, s = problem.gains()
    ot = st.Omega * problem.tau
    freq = (
        problem.omega1
        + d * math.sin(ot)
        + s * math.sin(ot + st.phi0)
        - st.Omega
    )
    phase = 2.0 * s * math.sin(st.phi0) * math.cos(ot) - (problem.omega2 - problem.omega1)
    return abs(freq), abs(phase)


def test_intermediate_reference_case_residuals():
    p = inter_problem()
    states = solve_sync(p)
    assert states, "expected at least one locked state"
    for st in states:
        rf, rp = back_substitute(p, st)
        assert rf <= 1e-8
        assert rp <= 1e-8
        assert st.order_r == math.cos(st.phi0 / 2.0)


def test_equal_frequencies_inphase_root():
    p = inter_problem(omega2=50.0)
    states = solve_sync(p)
    inphase = [st for st in states if abs(st.phi0) < 1e-10]
    assert inphase
    st = inphase[0]
    # Omega solves Omega = omega + 2 K sin(Omega tau)
    assert st.Omega == pytest.approx(
        p.omega1 + 2.0 * p.K * math.sin(st.Omega * p.tau), rel=1e-12
    )


def test_zero_coupling():
    p = inter_problem(omega2=50.0, K=0.0)
    states = solve_sync(p)
    assert len(states) == 1
    assert states[0].Omega == pytest.approx(50.0)
    assert states[0].phi0 == 0.0
    assert not states[0].stable and states[0].marginal
    assert solve_sync(inter_problem(K=0.0)) == []


def test_swap_symmetry_negates_phase():
    p = inter_problem(omega1=48.0, omega2=52.0, K=40.0)
    q = inter_problem(omega1=52.0, omega2=48.0, K=40.0)
    sp_, sq = solve_sync(p), solve_sync(q)
    assert len(sp_) == len(sq) and sp_
    for a, b in zip(sp_, sq):
        assert a.Omega == pytest.approx(b.Omega, rel=1e-10, abs=1e-10)
        assert a.phi0 == pytest.approx(-b.phi0, rel=1e-9, abs=1e-10)


@pytest.mark.parametrize("field, value", [
    ("tau", 0.0), ("tau", -0.1), ("tau", math.nan), ("tau", math.inf),
    ("omega1", math.nan), ("omega2", math.inf), ("omega1", -math.inf),
    ("K", math.inf), ("K", math.nan), ("K", -1.0),
], ids=["zero-tau", "negative-tau", "nan-tau", "inf-tau", "nan-omega1", "inf-omega2",
        "minus-inf-omega1", "inf-K", "nan-K", "negative-K"])
def test_sync_problem_rejects_bad_inputs(field, value):
    """A delay that is not finite and positive, or a frequency or coupling
    that is not finite, is refused: such problems divided by zero, gave a
    K_c for a negative delay, or listed thousands of states at K = inf."""
    with pytest.raises(ValueError):
        replace(inter_problem(), **{field: value})


def test_detuned_below_critical_coupling_is_empty():
    # |sin phi0| = |detuning| / (2 K |cos|) > 1 for K this small
    p = inter_problem(omega1=50.0, omega2=53.0, K=0.4)
    assert solve_sync(p) == []


def test_subnormal_coupling_warns_nothing():
    """A coupling of 2.2e-309 overflows the scan's sin phi0 quotient; that
    infeasible grid point is dropped without a numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solve_sync(inter_problem(291.378, 291.803, 2.2e-309, 1.0 / 3.0)) == []


def test_degenerate_cosine_rejected():
    """Candidates where cos(Omega tau) = 0 cannot balance a nonzero
    detuning; the solver must not return them."""
    p = inter_problem(omega1=50.0, omega2=51.0, K=30.0)
    for st in solve_sync(p):
        assert abs(math.cos(st.Omega * p.tau)) > 1e-6


def test_solver_finds_all_brute_force_roots():
    """Every refined brute-force intersection must match a solver root, and
    vice versa."""
    p = inter_problem(omega1=50.0, omega2=51.0, K=30.0, tau=0.1)
    omega_max = max(4.0 * 50.5, 4.0 * math.pi / p.tau)
    states = solve_sync(p)
    brute = brute_sync_roots(p.omega1, p.omega2, *p.gains(), p.tau, omega_max)
    assert brute
    for om, ph in brute:
        assert any(
            abs(st.Omega - om) < 1e-5 * (1 + om) and abs(st.phi0 - ph) < 1e-5
            for st in states
        ), f"solver missed brute-force root Omega={om:.4f}, phi0={ph:.4f}"
    for st in states:
        assert any(
            abs(st.Omega - om) < 1e-5 * (1 + om) and abs(st.phi0 - ph) < 1e-5
            for om, ph in brute
        ), f"brute force missed solver root Omega={st.Omega:.4f}, phi0={st.phi0:.4f}"


def test_small_buffer_reference_case_and_residuals():
    p = small_problem(omega1=60.0, omega2=61.0, K=1.5, B=15.0, b=5.0)
    states = solve_sync(p)
    assert states
    for st in states:
        rf, rp = back_substitute(p, st)
        assert rf <= 1e-8
        assert rp <= 1e-8


def test_small_buffer_large_coupling_approaches_pi_over_tau():
    """With matched buffer ratios the self and cross terms cancel in pairs
    and the surviving antiphase branch pins Omega near pi/tau."""
    tau = 0.1
    target = math.pi / tau
    omegas = []
    for K in (5.0, 20.0, 80.0, 320.0):
        states = solve_sync(small_problem(K=K, tau=tau))
        assert states
        best = min(states, key=lambda st: abs(st.Omega - target))
        omegas.append(best.Omega)
    errs = [abs(om - target) / target for om in omegas]
    assert errs[-1] < 0.05
    assert errs[-1] < errs[0]


def test_stability_tagging_small_buffer():
    """Stability carries the sign of (B/n_c - b/n_e) cos(Omega tau)."""
    p = small_problem(omega1=28.0, omega2=28.0, K=3.0, B=20.0, b=5.0, tau=0.1)
    states = solve_sync(p)
    for st in states:
        factor = p.K * (p.B / p.n_c - p.b / p.n_e) * math.cos(st.Omega * p.tau)
        assert st.stable == (factor < 0.0)


def test_marginal_when_buffer_ratios_match():
    p = small_problem(omega1=62.8, omega2=62.8, K=10.0, B=15.0, b=15.0)
    states = solve_sync(p)
    assert states
    assert all(st.marginal and not st.stable for st in states)


@st.composite
def sync_problems(draw):
    """Equal-coupling problems of either regime; half the small-buffer ones
    match the buffer ratios B/n_c = b/n_e exactly (the marginal case)."""
    tau = draw(st.floats(0.01, 0.5))
    omega1 = draw(st.floats(1.0, 300.0))
    omega2 = omega1 * (1.0 + draw(st.floats(-0.05, 0.05)))
    K = draw(st.floats(0.0, 1000.0))
    if draw(st.booleans()):
        return SyncProblem(omega1, omega2, K, tau, INTERMEDIATE)
    B = draw(st.floats(1.0, 300.0))
    n_c = draw(st.floats(1.0, 8.0))
    tie = draw(st.sampled_from(["none", "same-burstiness", "smooth-edge"]))
    if tie == "same-burstiness":
        b, n_e = B, n_c
    elif tie == "smooth-edge":
        b, n_e = B / n_c, 1.0
    else:
        b, n_e = draw(st.floats(1.0, 300.0)), draw(st.floats(1.0, 8.0))
    return SyncProblem(omega1, omega2, K, tau, SMALL_BUFFER, B=B, b=b, n_c=n_c, n_e=n_e)


def coupling_bits(matrix):
    return [float(v).hex() for row in matrix for v in row]


@settings(max_examples=200)
@given(problem=sync_problems(), omegas=st.lists(st.floats(0.0, 200.0), min_size=1, max_size=4))
def test_equal_reduction_shared_by_phase_model_and_stability_rule(problem, omegas):
    """The phase model integrates the solver's gains, ((-D, -S), (-S, -D))
    bit for bit, and the one rule (D + S) cos(Omega tau) < 0 flags states
    exactly as the former per-regime rule did, at drawn frequencies and at
    the solver's roots."""
    d, s = problem.gains()
    want = coupling_bits(((-d, -s), (-s, -d)))
    assert coupling_bits(phase_model_equal(problem).coupling) == want
    p = problem
    if p.regime == INTERMEDIATE:
        named = phase_model_intermediate_equal(p.omega1, p.omega2, p.K, p.tau)
    else:
        named = phase_model_small_equal(p.omega1, p.omega2, p.K, p.tau,
                                        B=p.B, b=p.b, n_c=p.n_c, n_e=p.n_e)
    assert coupling_bits(named.coupling) == want
    for Omega in omegas:
        new, old = p.stability_factor(Omega), reference_stability_factor(p, Omega)
        assert (new < 0.0, new == 0.0) == (old < 0.0, old == 0.0), (Omega, new, old)
    for state in solve_sync(p):
        old = reference_stability_factor(p, state.Omega)
        assert (state.stable, state.marginal) == (old < 0.0, old == 0.0), state


def test_phi0_magnitude_shrinks_with_coupling():
    """Along the continued in-phase branch, the locked phase difference
    shrinks as the coupling grows."""
    prev = None
    for K in (8.0, 16.0, 32.0, 64.0):
        states = solve_sync(inter_problem(omega1=50.0, omega2=51.0, K=K))
        stable = [st for st in states if st.stable]
        assert stable
        st = min(stable, key=lambda s: abs(s.phi0))
        if prev is not None:
            assert abs(st.phi0) <= abs(prev) + 1e-12
        prev = st.phi0


def test_coupling_range_zero_detuning_starts_at_zero():
    p = inter_problem(omega1=50.0, omega2=50.0, K=0.0)
    k_c, _ = coupling_range(p, np.linspace(0.0, 40.0, 21))
    assert k_c == 0.0


def test_coupling_range_detuned_threshold():
    """Below K_c the detuned system has no locked state; the refined K_c
    sits where |sin phi0| = 1 first becomes satisfiable."""
    p = inter_problem(omega1=50.0, omega2=53.0, K=0.0)
    ks = np.linspace(0.05, 12.0, 60)
    k_c, k_u = coupling_range(p, ks)
    assert k_c is not None
    assert solve_sync(
        SyncProblem(50.0, 53.0, k_c * 0.9, 0.1, INTERMEDIATE)
    ) == []
    assert solve_sync(
        SyncProblem(50.0, 53.0, k_c * 1.1, 0.1, INTERMEDIATE)
    ) != []


def test_coupling_range_upper_edge_found():
    """Self-interaction outweighing the cross term (b/n_e > B/n_c) with
    cos(omega tau) < 0 leaves every early root in violation of the stability
    inequality, so the sweep resolves an upper edge right above K_c."""
    p = small_problem(omega1=22.0, omega2=22.0, K=0.0, B=10.0, b=12.0, tau=0.1)
    ks = np.linspace(0.0, 8.0, 33)
    k_c, k_u = coupling_range(p, ks)
    assert k_c == 0.0
    assert k_u == pytest.approx(0.25)
    states = solve_sync(
        SyncProblem(22.0, 22.0, 0.25, 0.1, SMALL_BUFFER, B=10.0, b=12.0)
    )
    assert states and not any(st.stable for st in states)


def test_coupling_range_upper_edge_open():
    """With cos(omega tau) < 0 an intermediate-regime stable root persists
    for every swept coupling: the upper endpoint is reported open."""
    p = inter_problem(omega1=50.0, omega2=50.0, K=0.0)
    _, k_u = coupling_range(p, np.linspace(0.0, 40.0, 21))
    assert k_u is None


def test_order_parameter_reference_points():
    r, _ = order_parameter(1.3, 1.3)
    assert r == pytest.approx(1.0)
    r, psi = order_parameter(0.0, math.pi)
    assert r == pytest.approx(0.0, abs=1e-12)
    assert math.isnan(psi)
    r, _ = order_parameter(0.0, math.pi / 3.0)
    assert r == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-12)


def test_order_parameter_arrays():
    t1 = np.array([0.0, 1.0, 2.0])
    t2 = np.array([0.0, 1.5, 2.0])
    r, psi = order_parameter(t1, t2)
    assert r.shape == (3,)
    assert r[0] == pytest.approx(1.0)
    assert r[1] == pytest.approx(math.cos(0.25), rel=1e-12)


def test_select_state_prefers_smallest_stable():
    p = inter_problem(omega1=50.0, omega2=50.5, K=35.0)
    states = solve_sync(p)
    sel = select_state(states)
    if sel is not None:
        assert sel.stable
        assert all(sel.Omega <= st.Omega for st in states if st.stable)


def _dimensioning(capacity_pkts, n_flows):
    return float(max(1, round(capacity_pkts * 0.250 / math.sqrt(n_flows))))


def analyze_problem(spec, regime, c_prime, factor, rtt1, rtt2, b, B):
    """The SyncProblem that ``tcpsync analyze`` builds, or None when a set
    has no intrinsic frequency."""
    fields = dict(c_prime=c_prime, b=b, C_tilde=factor * c_prime, B=B)
    omegas = []
    for tau in (rtt1, rtt2):
        net = NetworkParams(tau=tau, **fields)
        omega = intrinsic_frequency(spec, regime, net, solve_single(spec, regime, net))
        if not omega:
            return None
        omegas.append(omega)
    net = NetworkParams(tau=0.5 * (rtt1 + rtt2), **fields)
    K = coupling_strength(spec, regime, net, solve_single(spec, regime, net))
    return SyncProblem(omegas[0], omegas[1], K, net.tau, regime, B=B, b=b)


@st.composite
def analyze_problems(draw):
    """``analyze_problem`` over the parameter box of the analyze benchmark
    workload; infeasible draws are rejected."""
    spec = draw(st.sampled_from([ProtocolSpec.compound(), ProtocolSpec.reno(),
                                 ProtocolSpec.illinois()]))
    regime = draw(st.sampled_from([SMALL_BUFFER, INTERMEDIATE]))
    c_prime = draw(st.floats(50.0, 5000.0))
    factor = draw(st.floats(1.5, 1.97))
    rtt1 = draw(st.floats(0.02, 0.2))
    rtt2 = rtt1 * draw(st.floats(1.0, 1.1))
    if regime == SMALL_BUFFER:
        b, B = draw(st.floats(5.0, 30.0)), draw(st.floats(15.0, 60.0))
    else:
        b = _dimensioning(10.0 * c_prime, 10)
        B = _dimensioning(10.0 * factor * c_prime, 20)
    problem = analyze_problem(spec, regime, c_prime, factor, rtt1, rtt2, b, B)
    assume(problem is not None)
    return problem


def pair_residual(problem, state):
    """Larger steady-state pair residual at a state's reported Omega and phi0."""
    d, s = problem.gains()
    ot = state.Omega * problem.tau
    f1 = problem.omega1 + d * math.sin(ot) + s * math.sin(ot + state.phi0) - state.Omega
    f2 = problem.omega2 + d * math.sin(ot) + s * math.sin(ot - state.phi0) - state.Omega
    return max(abs(f1), abs(f2))


def frequency_scale(problem):
    d, s = problem.gains()
    return max(1.0, abs(problem.omega1), abs(problem.omega2), abs(s), abs(d))


def converged(problem, states):
    """The states whose steady-state pair holds to ``POLISH_RTOL`` of the
    frequency scale or to ``FLOOR_RTOL`` of the magnitudes of its terms, the
    sine terms' grown by Omega tau: the reference scan also keeps roots its
    polish left above both, which the solver does not list.  A repeat of a
    kept state is dropped too: the reference compared phases unwrapped, so it
    could list the antiphase state twice, at phi0 = pi and -pi + 1e-16."""
    d, s = problem.gains()
    kept = []
    for st in states:
        terms = (abs(st.Omega) + max(abs(problem.omega1), abs(problem.omega2))
                 + (abs(d) + abs(s)) * (1.0 + abs(st.Omega * problem.tau)))
        tol = max(POLISH_RTOL * frequency_scale(problem), FLOOR_RTOL * terms)
        repeat = any(abs(st.Omega - o.Omega) <= 1e-7 * (1.0 + abs(o.Omega))
                     and abs(_wrap(st.phi0 - o.phi0)) <= 1e-6 for o in kept)
        if pair_residual(problem, st) <= tol and not repeat:
            kept.append(st)
    return kept


#: tolerances on a root against the former 60-step bisection's: the largest
#: moves measured over 1,500 draws of the analyze box and the analyze jobs of
#: perfbench seeds 1061 and 1001-1010 were 7.4e-13 relative in Omega and
#: 2.0e-11 rad in phi0
OMEGA_RTOL = 1e-11
PHI0_ATOL = 1e-9


def assert_same_roots(states, ref):
    """The same number of roots, each within ``OMEGA_RTOL`` and ``PHI0_ATOL``
    of the reference's, with the same stable and marginal flags."""
    assert len(states) == len(ref)
    for got, want in zip(states, ref):
        assert got.Omega == pytest.approx(want.Omega, rel=OMEGA_RTOL, abs=0.0)
        assert abs(_wrap(got.phi0 - want.phi0)) <= PHI0_ATOL
        assert (got.stable, got.marginal) == (want.stable, want.marginal)


@settings(max_examples=60)
@given(problem=analyze_problems())
def test_solve_sync_matches_reference_scan(problem):
    """The scan's Brent-Dekker search per cell returns the root list of the
    former 60-step bisection, less the reference roots whose polish did not
    converge: the same roots and flags, to the measured tolerances."""
    assert_same_roots(solve_sync(problem), converged(problem, reference_solve_sync(problem)))


@settings(max_examples=60)
@given(problem=analyze_problems())
def test_no_locked_state_just_below_critical_coupling(problem):
    """Over the analyze box no state is listed at K_c (1 - 1e-5): no locked
    state exists below the curve's minimum, and only a converged polish
    lists one."""
    k_c = critical_coupling(problem)
    assume(0.0 < k_c < math.inf)
    assert solve_sync(replace(problem, K=k_c * (1.0 - 1e-5))) == []


def assert_window(problem, ks):
    """K_c is the oracle's curve minimum (to 1e-9 relative), or the sweep's
    first point when the minimum lies below it, or None above the sweep; K_u
    is that of the former eager ``refine`` closure, bit for bit."""
    k_c, k_u = coupling_range(problem, ks)
    k_min, _ = reference_critical_coupling(problem)
    want = max(ks[0], k_min) if k_min <= ks[-1] else None
    if want is None or want == 0.0:
        assert k_c == want
    else:
        assert k_c == pytest.approx(want, rel=1e-9, abs=0.0)
    assert repr(k_u) == repr(reference_coupling_range(problem, ks)[1])
    return k_c, k_u


@settings(max_examples=15)
@given(problem=analyze_problems())
def test_coupling_range_matches_reference_refine(problem):
    """Over a short version of the analyze sweep, K_c is the curve's minimum
    and K_u equals that of the former ``refine`` closure, bit for bit."""
    assert_window(problem, np.linspace(0.0, 40.0, 9))


def assert_curve_minimum(problem):
    """K_c equals the oracle's minimum of the locked-state curve (a dense
    grid, fine grids around the mean frequency and the nearby sin = 0 poles,
    scipy's bounded minimisation) to 1e-9 relative, and exactly 0 at zero
    detuning; and a state built from the curve at K_c (1 + 1e-6) solves the
    steady-state pair to 1e-10 of the frequency scale."""
    k_c = critical_coupling(problem)
    want, omega_c = reference_critical_coupling(problem)
    if want == 0.0:
        assert k_c == 0.0
        return
    assert k_c == pytest.approx(want, rel=1e-9, abs=0.0)
    k = k_c * (1.0 + 1e-6)
    state = reference_state_on_curve(problem, k, omega_c)
    assert state is not None, "no locked state just above K_c"
    p = replace(problem, K=k)
    d, s = p.gains()
    omega, phi = state
    ot = omega * p.tau
    f1 = p.omega1 + d * math.sin(ot) + s * math.sin(ot + phi) - omega
    f2 = p.omega2 + d * math.sin(ot) + s * math.sin(ot - phi) - omega
    scale = max(1.0, abs(p.omega1), abs(p.omega2), abs(s), abs(d))
    assert max(abs(f1), abs(f2)) <= 1e-10 * scale


@settings(max_examples=40)
@given(problem=analyze_problems())
def test_critical_coupling_is_the_curve_minimum(problem):
    """Over the analyze box, K_c is the curve's minimum and locks just above."""
    assert_curve_minimum(problem)


@settings(max_examples=15)
@given(problem=analyze_problems())
def test_lazy_verdict_matches_full_solve(problem):
    """At each K of a short analyze sweep the solve lists the reference scan's
    roots, and the verdict that stops at the first stable root says what the
    full root list says: whether a state locks, and whether one is stable."""
    for k in np.linspace(0.0, 40.0, 9):
        p = replace(problem, K=float(k))
        states = solve_sync(p)
        assert_same_roots(states, converged(p, reference_solve_sync(p)))
        assert _lock_verdict(p) == (bool(states), any(st.stable for st in states))


def assert_whole_grid_scan(problem):
    """``solve_sync`` lists the whole-grid scan's states bit for bit, and the
    verdict that stops early says what that scan's full list says."""
    ref = list(whole_grid_scan_roots(problem))
    assert solve_sync(problem) == sorted(ref, key=lambda st: (st.Omega, st.phi0))
    assert _lock_verdict(problem) == (bool(ref), any(st.stable for st in ref))


@settings(max_examples=30)
@given(problem=analyze_problems())
def test_two_piece_scan_matches_whole_grid_scan(problem):
    """Over the analyze box and every K of the analyze sweep, the scan split
    at 2 mean(omega) gives the states and verdicts of the whole-grid scan."""
    for k in np.linspace(0.0, 40.0, 80):
        assert_whole_grid_scan(replace(problem, K=float(k)))


#: a root in the cell that ends at the cut point 2 mean(omega) = 100.2: tau
#: puts sin(Omega tau) = 1 at Omega = 100.4, and K is the locked-state curve
#: at Omega = 100.19
ROOT_AT_CUT = SyncProblem(50.0, 50.2, 25.41824928985265, 0.07822690870492512, INTERMEDIATE)


def test_two_piece_scan_root_in_the_cell_ending_at_the_cut():
    grid = _scan_grid(_omega_max(ROOT_AT_CUT), ROOT_AT_CUT.tau)[0]
    cut = int(np.searchsorted(grid, ROOT_AT_CUT.omega1 + ROOT_AT_CUT.omega2))
    assert 0 < cut < len(grid) - 1
    assert any(grid[cut - 1] < st.Omega <= grid[cut] for st in solve_sync(ROOT_AT_CUT))
    assert_whole_grid_scan(ROOT_AT_CUT)


@pytest.mark.parametrize("omega_max", [80.0, 101.0], ids=["below", "at"])
def test_two_piece_scan_single_piece(omega_max):
    """With omega_max at or below 2 mean(omega) the grid is one piece."""
    problem = replace(inter_problem(omega1=50.0, omega2=51.0, K=30.0), omega_max=omega_max)
    assert solve_sync(problem)
    assert_whole_grid_scan(problem)


#: perfbench seed 1004 ``analyze`` job 28 (Reno, intermediate): a detuning of
#: 9e-4 rad/s puts K_c in a dip about |X| wide next to the mean frequency,
#: far narrower than one cell of the scan grid
NARROW_DIP = SyncProblem(1895.2735695550052, 1895.2726554822023, 0.0,
                         0.17412828931852903, INTERMEDIATE)


@pytest.mark.parametrize("problem, k_u", [
    # the README analyze config: K_u open
    (analyze_problem(ProtocolSpec.compound(), INTERMEDIATE, 300.0, 1.97, 0.1, 0.11,
                     50.0, 100.0), None),
    # detuned toy: K_c inside the step whose end is the unrefined K_u
    (inter_problem(omega1=50.0, omega2=51.0, K=0.0), 3.037974683544304),
    # zero detuning: K_c = 0, then every root unstable at the next point
    (inter_problem(omega1=50.0, omega2=50.0, K=0.0), 0.5063291139240507),
    # self-interaction outweighing the cross term (b/n_e > B/n_c)
    (small_problem(omega1=22.0, omega2=22.0, K=0.0, B=10.0, b=12.0, tau=0.1),
     0.5063291139240507),
], ids=["readme", "toy-detuned", "zero-detuning", "small-buffer-upper-edge"])
def test_coupling_range_full_sweep_matches_reference(problem, k_u):
    """Over the full analyze sweep K_c is the curve's minimum and the lazy
    verdicts give the K_u of the eager reference, bit for bit."""
    assert assert_window(problem, np.linspace(0.0, 40.0, 80))[1] == k_u


@pytest.mark.parametrize("problem", [
    inter_problem(omega1=50.0, omega2=51.0, K=0.0),
    NARROW_DIP,
    inter_problem(omega1=50.0, omega2=50.0, K=0.0),
    small_problem(omega1=22.0, omega2=22.4, K=0.0, B=10.0, b=12.0, tau=0.1),
], ids=["toy-detuned", "narrow-dip", "zero-detuning", "small-buffer-b-over-B"])
def test_critical_coupling_table(problem):
    """The toy's K_c, 2.7023542, lies below the first K at which the scan
    lists a root (2.7023869); the narrow dip's, 4.6247e-4, lies above
    K = 4.61e-4, where the scan once accepted a pseudo-root at a relative
    pair residual of 7.7e-10."""
    assert_curve_minimum(problem)


@pytest.mark.parametrize("k", [4.61e-4, 4.62e-4])
def test_narrow_dip_lists_no_state_below_critical_coupling(k):
    """Just below the narrow dip's K_c no polish converges, so no state is
    listed; the former 1e-9 acceptance listed one at both couplings."""
    assert critical_coupling(NARROW_DIP) > k
    assert solve_sync(replace(NARROW_DIP, K=k)) == []


#: a marginal small-buffer problem (B/n_c = b/n_e) of the random box whose
#: 195 roots reach Omega tau = 528
LARGE_PHASE = SyncProblem(280.6430056594457, 272.9028016114095, 225.37008002022762,
                          0.4835610301533196, SMALL_BUFFER,
                          B=101.9534305146268, b=101.9534305146268,
                          n_c=3.7452982288312335, n_e=3.7452982288312335)


def test_roots_at_large_phase_argument_are_kept():
    """Rounding alone leaves five true roots, at Omega 1026-1091 rad/s, with
    a pair residual of 1.0e-13 to 1.5e-13 of the frequency scale, above
    ``POLISH_RTOL``; each is still listed, and the list holds the reference
    scan's roots and flags."""
    states = solve_sync(LARGE_PHASE)
    assert_same_roots(states, reference_solve_sync(LARGE_PHASE))
    scale = frequency_scale(LARGE_PHASE)
    stalled = [st for st in states if pair_residual(LARGE_PHASE, st) > POLISH_RTOL * scale]
    assert len(stalled) == 5


def halving_root(f, a, b, fa, fb):
    """``find_root``'s contract met by plain halving, as the scan once
    searched its cells."""
    while a < 0.5 * (a + b) < b:
        mid = 0.5 * (a + b)
        if (f(mid) > 0.0) == (fa > 0.0):
            a = mid
        else:
            b = mid
    return a, b


@pytest.mark.parametrize("halving", [False, True], ids=["find_root", "halving"])
def test_antiphase_state_listed_once(halving, monkeypatch):
    """Without detuning the cos(phi0) < 0 branch holds the antiphase state at
    Omega = omega, and two scan cells polish onto it.  Whatever the per-cell
    search, it is listed once: under plain halving the polishes end at
    phi0 = pi and at -pi + 1e-16, which the former unwrapped comparison of
    phases listed as two states."""
    if halving:
        monkeypatch.setattr(sync_solver, "find_root", halving_root)
    p = inter_problem(omega1=73.35151097308197, omega2=73.35151097308197, K=10.0,
                      tau=0.078125)
    states = solve_sync(p)
    antiphase = [st for st in states if abs(abs(st.phi0) - math.pi) < 1e-6]
    assert len(antiphase) == 1
    assert antiphase[0].Omega == pytest.approx(p.omega1, rel=1e-14)
    assert len(states) == 2


def test_coupling_range_k_c_independent_of_sweep_density():
    """K_c comes from the curve, not from the sweep: a 10x denser sweep
    reports the same value, bit for bit."""
    p = inter_problem(omega1=50.0, omega2=51.0, K=0.0)
    coarse, _ = coupling_range(p, np.linspace(0.0, 40.0, 80))
    dense, _ = coupling_range(p, np.linspace(0.0, 40.0, 800))
    assert coarse == dense == critical_coupling(p)


def test_coupling_range_open_above_the_sweep():
    """A curve minimum above the sweep leaves both ends open, with no scan."""
    p = inter_problem(omega1=50.0, omega2=53.0, K=0.0)
    assert critical_coupling(p) > 1.0
    assert coupling_range(p, np.linspace(0.0, 1.0, 5)) == (None, None)
