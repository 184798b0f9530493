import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tcpsync.dde_sim import (
    W_FLOOR,
    DdeConfig,
    PhaseParams,
    _fluid_rhs,
    estimate_limit_cycle,
    heun_block,
    integrate_dde,
    measure_lock,
    phase_model_equal,
    phase_model_intermediate_equal,
    phase_model_small_equal,
    phase_model_small_general,
    simulate_fluid_coupled,
    simulate_fluid_linearized,
    simulate_fluid_single,
    simulate_phase_oscillators,
)
from tcpsync.equilibrium import solve_single
from tcpsync.errors import SimulationError, TcpSyncError
from tcpsync.linear_analysis import coupling_strength, delay_coefficients, intrinsic_frequency
from tcpsync.loss_models import INTERMEDIATE, SMALL_BUFFER, NetworkParams, core_loss_fn, edge_loss_fn
from tcpsync.protocols import ProtocolSpec, window_laws
from tcpsync.signals import analytic_phase, fit_frequency, local_maxima
from tcpsync.sync_solver import SyncProblem, order_parameter, solve_sync
from tcpsync.trace import Trace

from oracles import (
    count_rhp_roots,
    reference_heun_dde,
    reference_simulate_fluid_coupled,
    reference_simulate_fluid_linearized,
    reference_simulate_fluid_single,
    reference_simulate_phase_oscillators,
)

RENO = ProtocolSpec.reno()

# single-set small-buffer operating points (b = 15, tau = 0.1):
# the stability boundary sits at c'tau ~ 11.17 (located below by the
# argument-principle oracle); c'tau = 25 is comfortably stable
NET_STABLE = NetworkParams(c_prime=250.0, tau=0.1, b=15)


def boundary_ctau(b=15.0, tau=0.1, lo=9.0, hi=25.0):
    """Stability boundary in c'tau, located by the contour-count oracle."""

    def crosses(ct):
        net = NetworkParams(c_prime=ct / tau, tau=tau, b=b)
        eq = solve_single(RENO, SMALL_BUFFER, net)
        a, c = delay_coefficients(RENO, SMALL_BUFFER, net, eq)
        return count_rhp_roots(a, c, tau, n_pts=6000) > 0

    assert crosses(lo) and not crosses(hi)
    for _ in range(18):
        mid = 0.5 * (lo + hi)
        if crosses(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_equilibrium_history_is_fixed_point():
    eq = solve_single(RENO, SMALL_BUFFER, NET_STABLE)
    tr = simulate_fluid_single(RENO, SMALL_BUFFER, NET_STABLE, DdeConfig(horizon=10.0))
    drift = np.max(np.abs(tr.channel("w") - eq.w_star)) / eq.w_star
    assert drift <= 1e-6


def test_stable_point_decays_toward_equilibrium():
    eq = solve_single(RENO, SMALL_BUFFER, NET_STABLE)
    tr = simulate_fluid_single(RENO, SMALL_BUFFER, NET_STABLE, DdeConfig(horizon=20.0, kick=1.05))
    dev = np.abs(tr.channel("w") - eq.w_star)
    peaks = dev[local_maxima(dev)]
    assert len(peaks) > 10
    assert all(a > b for a, b in zip(peaks, peaks[1:]))
    assert dev[-1] < 1e-6 * eq.w_star


def test_unstable_point_oscillates_at_predicted_frequency():
    """~4% past the oracle-located boundary: sustained cycle within 10% of
    the linear intrinsic frequency."""
    ct = 0.96 * boundary_ctau()
    net = NetworkParams(c_prime=ct / 0.1, tau=0.1, b=15)
    eq = solve_single(RENO, SMALL_BUFFER, net)
    omega = intrinsic_frequency(RENO, SMALL_BUFFER, net, eq)
    tr = simulate_fluid_single(RENO, SMALL_BUFFER, net, DdeConfig(horizon=60.0, kick=1.05))
    est = estimate_limit_cycle(tr, "w")
    assert est["amplitude"] > 0.05
    assert est["frequency"] == pytest.approx(omega, rel=0.10)
    # sustained: the last quarter has not lost amplitude vs the one before
    w = tr.channel("w")
    q = len(w) // 4
    assert np.ptp(w[-q:]) > 0.9 * np.ptp(w[-2 * q : -q])


def test_step_halving_richardson_ratio():
    """Heun plus linear delayed interpolation is second order: halving dt
    divides the final-time error by ~4 on the smooth small-buffer model."""
    net = NET_STABLE
    finals = []
    for dt in (0.1 / 100, 0.1 / 200, 0.1 / 400):
        tr = simulate_fluid_single(
            RENO, SMALL_BUFFER, net, DdeConfig(horizon=2.0, dt=dt, kick=1.1)
        )
        finals.append(tr.channel("w")[-1])
    ratio = (finals[0] - finals[1]) / (finals[1] - finals[2])
    assert ratio == pytest.approx(4.0, rel=0.2)


def test_linearized_marginal_point_frequency():
    """At the oracle-located boundary the linearised model oscillates
    neutrally at the intrinsic frequency (within 1%)."""
    ct = boundary_ctau()
    net = NetworkParams(c_prime=ct / 0.1, tau=0.1, b=15)
    eq = solve_single(RENO, SMALL_BUFFER, net)
    omega = intrinsic_frequency(RENO, SMALL_BUFFER, net, eq)
    tr = simulate_fluid_linearized(RENO, SMALL_BUFFER, net, DdeConfig(horizon=60.0, kick=1.01))
    tail = tr.tail(0.25)["dw"]
    ph = analytic_phase(tail)
    k = len(ph) // 10
    measured = fit_frequency(ph[k:-k], tr.dt)
    assert measured == pytest.approx(omega, rel=0.01)


def test_floor_abort_diagnostic():
    """The continuous window stays positive, but an oversized step through a
    deep backoff overshoots below zero; the integrator aborts."""
    net = NetworkParams(c_prime=107.0, tau=0.1, b=15)
    with pytest.raises(SimulationError):
        simulate_fluid_single(
            RENO, SMALL_BUFFER, net, DdeConfig(horizon=5.0, dt=0.05, kick=50.0)
        )


def coupled_net(fac=1.18, cp=110.0, b=15.0, B=25.0, taum=0.1005):
    e0 = solve_single(RENO, SMALL_BUFFER, NetworkParams(c_prime=cp, tau=taum, b=b))
    c_tilde = (2.0 * e0.w_star / taum) * fac
    return NetworkParams(c_prime=cp, tau=taum, b=b, C_tilde=c_tilde, B=B), e0


def test_loss_channels_are_the_law_at_the_stored_windows():
    """Every loss sample of a small-buffer trace is the scalar Drop-Tail law
    that the integrator feeds back, at the stored window, bit for bit."""
    net = NET_STABLE
    tr = simulate_fluid_single(RENO, SMALL_BUFFER, net, DdeConfig(horizon=10.0, kick=1.05))
    edge = edge_loss_fn(SMALL_BUFFER, net.c_prime, net.tau, net.b, net.n_e)
    assert np.array_equal(tr.channel("p"), [edge(w) for w in tr.channel("w").tolist()])

    tau1, tau2 = 0.1, 0.101
    net, _ = coupled_net()
    tr = simulate_fluid_coupled(
        RENO, SMALL_BUFFER, net, tau1, tau2, DdeConfig(horizon=10.0, kick=(1.03, 0.98))
    )
    w1, w2 = tr.channel("w1").tolist(), tr.channel("w2").tolist()
    for name, tau, ws in (("p1", tau1, w1), ("p2", tau2, w2)):
        edge = edge_loss_fn(SMALL_BUFFER, net.c_prime, tau, net.b, net.n_e)
        assert np.array_equal(tr.channel(name), [edge(w) for w in ws])
    core = core_loss_fn(SMALL_BUFFER, net.C_tilde, net.B, net.n_c)
    rates = [a / tau1 + b / tau2 for a, b in zip(w1, w2)]
    assert np.array_equal(tr.channel("p_core"), [core(r) for r in rates])


def test_coupled_symmetric_stays_symmetric():
    net, _ = coupled_net()
    tr = simulate_fluid_coupled(
        RENO, SMALL_BUFFER, net, net.tau, net.tau, DdeConfig(horizon=5.0, kick=1.04)
    )
    assert np.array_equal(tr.channel("w1"), tr.channel("w2"))


def test_coupled_detuned_locks_near_predicted_frequency():
    """Weakly detuned sets inside the stable-sync window phase-lock, and the
    common frequency matches a stable locked-state root within 5%."""
    tau1, tau2 = 0.1, 0.101
    net, e0 = coupled_net()
    k_s = coupling_strength(RENO, SMALL_BUFFER, net, e0)

    def omega_of(tau):
        n = NetworkParams(c_prime=net.c_prime, tau=tau, b=net.b)
        return intrinsic_frequency(RENO, SMALL_BUFFER, n, solve_single(RENO, SMALL_BUFFER, n))

    problem = SyncProblem(
        omega_of(tau1), omega_of(tau2), k_s, net.tau, SMALL_BUFFER, B=net.B, b=net.b
    )
    stable = [st for st in solve_sync(problem) if st.stable]
    assert stable
    tr = simulate_fluid_coupled(
        RENO, SMALL_BUFFER, net, tau1, tau2, DdeConfig(horizon=120.0, kick=(1.03, 0.98))
    )
    k0 = int(len(tr) * 0.6)
    ph1 = analytic_phase(tr.channel("w1")[k0:])
    ph2 = analytic_phase(tr.channel("w2")[k0:])
    f1, f2 = fit_frequency(ph1, tr.dt), fit_frequency(ph2, tr.dt)
    assert abs(f1 - f2) < 1e-3 * f1  # locked
    f_common = 0.5 * (f1 + f2)
    assert min(abs(f_common - st.Omega) / st.Omega for st in stable) < 0.05


def test_coupled_below_critical_coupling_beats():
    """With the core nearly idle the coupling falls below critical for this
    detuning: no lock, and the order parameter keeps oscillating."""
    tau1, tau2 = 0.1, 0.104
    net, e0 = coupled_net(fac=2.2)
    tr = simulate_fluid_coupled(
        RENO, SMALL_BUFFER, net, tau1, tau2, DdeConfig(horizon=120.0, kick=(1.03, 0.98))
    )
    k0 = int(len(tr) * 0.6)
    ph1 = analytic_phase(tr.channel("w1")[k0:])
    ph2 = analytic_phase(tr.channel("w2")[k0:])
    f1, f2 = fit_frequency(ph1, tr.dt), fit_frequency(ph2, tr.dt)
    assert abs(f1 - f2) > 0.3  # distinct per-set frequencies persist
    r = order_parameter(ph1, ph2)[0]
    assert np.ptp(r) > 0.5  # coherence keeps swinging: beating, not lock


def test_phase_free_run_is_exact():
    params = phase_model_intermediate_equal(50.0, 51.0, 0.0, 0.1)
    cfg = DdeConfig(horizon=5.0)
    tr = simulate_phase_oscillators(params, cfg)
    t = tr.t
    assert np.max(np.abs(tr.channel("theta1") - 50.0 * t)) <= 1e-9 * 5.0
    assert np.max(np.abs(tr.channel("theta2") - 51.0 * t)) <= 1e-9 * 5.0


def test_phase_lock_matches_solver_root():
    om1, om2, K, tau = 50.0, 51.0, 30.0, 0.1
    states = solve_sync(SyncProblem(om1, om2, K, tau, INTERMEDIATE))
    stable = [s for s in states if s.stable]
    tr = simulate_phase_oscillators(
        phase_model_intermediate_equal(om1, om2, K, tau), DdeConfig(horizon=12.0)
    )
    lock = measure_lock(tr)
    assert lock["locked"]
    best = min(stable, key=lambda s: abs(s.Omega - lock["Omega"]))
    assert lock["Omega"] == pytest.approx(best.Omega, rel=0.01)
    assert lock["phi0"] == pytest.approx(best.phi0, abs=max(0.02 * abs(best.phi0), 0.0005))
    assert lock["r_mean"] == pytest.approx(math.cos(best.phi0 / 2.0), abs=0.01)


def test_phase_small_buffer_lock_matches_solver_root():
    om1, om2, K, tau, B, b = 60.0, 60.6, 1.2, 0.1, 25.0, 10.0
    states = solve_sync(SyncProblem(om1, om2, K, tau, SMALL_BUFFER, B=B, b=b))
    stable = [s for s in states if s.stable]
    assert stable
    tr = simulate_phase_oscillators(
        phase_model_small_equal(om1, om2, K, tau, B=B, b=b), DdeConfig(horizon=20.0)
    )
    lock = measure_lock(tr)
    assert lock["locked"]
    best = min(stable, key=lambda s: abs(s.Omega - lock["Omega"]))
    assert lock["Omega"] == pytest.approx(best.Omega, rel=0.01)
    assert lock["phi0"] == pytest.approx(best.phi0, abs=max(0.02 * abs(best.phi0), 0.0005))


def test_phase_unstable_lock_perturbation_grows():
    """A root violating the stability inequality (cos(Omega tau) > 0): a
    10 mrad phase offset from the lock grows by 10x within 50 periods."""
    om, K, tau = 10.0, 1.0, 0.1
    states = solve_sync(SyncProblem(om, om, K, tau, INTERMEDIATE))
    inphase = [s for s in states if abs(s.phi0) < 1e-9 and not s.stable]
    assert inphase
    root = inphase[0]
    assert math.cos(root.Omega * tau) > 0
    delta = 0.01
    horizon = 50.0 * 2.0 * math.pi / root.Omega
    tr = simulate_phase_oscillators(
        phase_model_intermediate_equal(om, om, K, tau),
        DdeConfig(
            horizon=horizon,
            history=lambda t: (root.Omega * t, root.Omega * t - root.phi0 + delta),
            transient_fraction=0.0,
        ),
    )
    phi = tr.channel("theta1") - tr.channel("theta2")
    growth = np.max(np.abs(phi - root.phi0)) / delta
    assert growth >= 10.0


def test_phase_general_reduces_to_equal_form():
    """The general reductions with identical sets must produce the
    equally-coupled coefficient matrices."""
    from tcpsync.dde_sim import phase_model_intermediate_general

    net, e0 = coupled_net()
    k_s = coupling_strength(RENO, SMALL_BUFFER, net, e0)
    om = 17.0
    eq_params = phase_model_small_equal(om, om, k_s, net.tau, B=net.B, b=net.b)
    gen_params = phase_model_small_general(
        RENO, net, e0, e0, net.tau, net.tau, om, om
    )
    assert np.allclose(gen_params.coupling, eq_params.coupling, rtol=1e-12)

    net_i = NetworkParams(c_prime=200.0, tau=0.1, b=50.0, C_tilde=394.0, B=100.0)
    eq_i = solve_single(RENO, INTERMEDIATE, net_i)
    k_i = coupling_strength(RENO, INTERMEDIATE, net_i, eq_i)
    from tcpsync.dde_sim import phase_model_intermediate_equal

    eq_params_i = phase_model_intermediate_equal(om, om, k_i, net_i.tau)
    gen_params_i = phase_model_intermediate_general(
        RENO, net_i, eq_i, eq_i, net_i.tau, net_i.tau, om, om
    )
    assert np.allclose(gen_params_i.coupling, eq_params_i.coupling, rtol=1e-12)


def zero_model(n_var):
    """The Heun block loop of y' = 0 in ``n_var`` variables."""
    return heun_block([lambda y, row: 0.0] * n_var, lambda lags: [lag.tolist() for lag in lags])


def test_integrator_rejects_oversized_step():
    with pytest.raises(SimulationError):
        integrate_dde(zero_model(1), [0.01], lambda t: (1.0,), 1.0, 0.02)


@pytest.mark.parametrize("delays, dt", [
    pytest.param([-0.1], -0.1 / 500, id="negative-delay"),
    pytest.param([0.1, 0.0], 0.01, id="zero-delay"),
    pytest.param([0.1], 0.0, id="zero-step"),
    pytest.param([float("nan")], 0.01, id="nan-delay"),
])
def test_integrator_rejects_non_positive_step_or_delay(delays, dt):
    n_var = len(delays)
    with pytest.raises(SimulationError):
        integrate_dde(zero_model(n_var), delays, lambda t: (1.0,) * n_var, 1.0, dt)


def ring_model(n_var):
    """Each variable relaxes and is driven by its neighbour's delayed value:
    y_i' = -0.8 y_i + sin(y_{i+1}(t - tau_{i+1})), in split form."""

    def terms(lags):
        return [list(map(math.sin, lags[(i + 1) % n_var].tolist())) for i in range(n_var)]

    return [lambda y, drive: -0.8 * y + drive] * n_var, terms


def floor_model(n_var):
    """The last variable falls as -50 y(t - tau); variable 0 (when there are
    two or more) is NaN after one step, and the others stay put."""

    def terms(lags):
        return [(-50.0 * lag).tolist() for lag in lags]

    head = [lambda y, row: float("nan")] if n_var > 1 else []
    return head + [lambda y, row: 0.0] * (n_var - 2) + [lambda y, row: row], terms


def whole_state_rhs(rhs, terms, dt, floor):
    """The split form as one rhs(t, y, ylag) for the per-step reference loop:
    each call builds one-sample rows from the delayed values, and with a
    floor a stage input at or below it aborts with the integrator's text."""

    def full(t, y, ylag):
        for i, v in enumerate(y):
            if floor is not None and v <= floor:
                raise SimulationError(
                    f"variable {i} hit the positivity floor at t={t:.6g}; "
                    f"the step dt={dt:g} is too large for this trajectory"
                )
        rows = terms([np.array([v]) for v in ylag])
        return tuple(f(v, row[0]) for f, v, row in zip(rhs, y, rows))

    return full


def run_both(model, delays, history, horizon, dt, floor=None):
    """Outcomes of integrate_dde and the reference loop: array or error text."""
    outcomes = []
    for run in (
        lambda: integrate_dde(heun_block(*model), delays, history, horizon, dt, floor=floor),
        lambda: reference_heun_dde(whole_state_rhs(*model, dt, floor), delays, history,
                                   horizon, dt, floor=floor),
    ):
        try:
            outcomes.append(run())
        except SimulationError as exc:
            outcomes.append(str(exc))
    return outcomes


@settings(max_examples=150)
@given(
    n_var=st.integers(1, 3),
    dt=st.sampled_from([0.01, 0.37, 1e-3]),
    offsets=st.lists(
        st.one_of(st.integers(1, 9).map(float), st.floats(1.0, 9.0)), min_size=3, max_size=3
    ),
    n_steps=st.integers(0, 40),
    off_grid=st.floats(0.0, 0.49),
    y0=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
    constant=st.booleans(),
    floor_gap=st.one_of(st.none(), st.floats(0.01, 1.0)),
)
def test_integrate_dde_matches_reference_loop(n_var, dt, offsets, n_steps, off_grid, y0,
                                              constant, floor_gap):
    """Bit-identical to the per-step loop for arities 1-3, integer, fractional
    and unequal delays (dt == tau gives one-step blocks), horizons off the
    block and step grids, empty runs, constant or ramped histories, and a
    floor (below the start) that the first crossing over (step, stage,
    variable) trips."""
    delays = [off * dt for off in offsets[:n_var]]
    if constant:
        history = lambda t: tuple(y0[:n_var])
    else:
        history = lambda t: tuple(v + (i + 1.5) * t for i, v in enumerate(y0[:n_var]))
    floor = None if floor_gap is None else min(y0[:n_var]) - floor_gap
    got, want = run_both(ring_model(n_var), delays, history, (n_steps + off_grid) * dt, dt,
                         floor=floor)
    if isinstance(want, str):
        assert got == want
        return
    assert got.shape == want.shape == (n_var, n_steps + 1)
    assert got.flags.c_contiguous
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n_var", [1, 2, 3])
def test_integrate_dde_floor_abort_matches_reference(n_var):
    """The last variable falls through the floor; a NaN in variable 0 does
    not trip it, so the message names the last variable, as the loop does."""
    got, want = run_both(floor_model(n_var), [0.02, 0.013, 0.01][:n_var],
                         lambda t: (1.0,) * n_var, 1.0, 0.005, floor=0.1)
    assert isinstance(want, str) and f"variable {n_var - 1} hit the positivity floor" in want
    assert got == want


def test_integrate_dde_rejects_start_at_floor():
    with pytest.raises(SimulationError, match="variable 1 starts at or below"):
        integrate_dde(zero_model(2), [0.1, 0.1], lambda t: (1.0, 0.0), 1.0, 0.01, floor=0.0)


def test_coupled_fluid_evaluates_each_loss_law_once_per_lag_sample():
    """Each edge closure and the core closure run once per sample of each
    block, N + (number of blocks) times over N steps, not twice per step."""
    net, eq = coupled_net()
    taus, dt, n_steps = (0.1005, 0.1032), 0.1005 / 60, 500
    calls = {}

    def counted(name, law):
        def wrapped(x):
            calls[name] = calls.get(name, 0) + 1
            return law(x)

        return wrapped

    edges = [counted(f"edge{m}", edge_loss_fn(SMALL_BUFFER, net.c_prime, tau, net.b, net.n_e))
             for m, tau in enumerate(taus)]
    core = counted("core", core_loss_fn(SMALL_BUFFER, net.C_tilde, net.B, net.n_c))
    rhs, terms = _fluid_rhs(window_laws(RENO).gain, edges, taus, core)
    ys = integrate_dde(heun_block(rhs, terms), taus, lambda t: (eq.w_star, eq.w_star),
                       n_steps * dt, dt, floor=W_FLOOR)
    assert ys.shape == (2, n_steps + 1)
    n_blocks = -(-n_steps // min(math.floor(tau / dt) for tau in taus))
    assert calls == {"edge0": n_steps + n_blocks, "edge1": n_steps + n_blocks,
                     "core": n_steps + n_blocks}


def sim_outcome(simulate, *args):
    """A simulator's trace, or its error: the type and, for an abort at a
    time, that time (the reference wiring words its floor aborts in its own
    text)."""
    try:
        return simulate(*args)
    except TcpSyncError as exc:
        at = re.search(r"at t=([^;\s]+)", str(exc))
        return type(exc).__name__, at.group(1) if at else str(exc)


SIMULATORS = {
    "single": (simulate_fluid_single, reference_simulate_fluid_single),
    "linearized": (simulate_fluid_linearized, reference_simulate_fluid_linearized),
    "coupled": (simulate_fluid_coupled, reference_simulate_fluid_coupled),
    "phase": (simulate_phase_oscillators, reference_simulate_phase_oscillators),
}


@pytest.mark.parametrize("model", sorted(SIMULATORS))
@pytest.mark.parametrize("kick", ["scalar", "tuple", "zero"])
@pytest.mark.parametrize("given_history", [False, True], ids=["default-history", "history"])
@settings(max_examples=5)
@given(
    spec=st.sampled_from([RENO, ProtocolSpec.compound(), ProtocolSpec.illinois()]),
    regime=st.sampled_from([SMALL_BUFFER, INTERMEDIATE]),
    c_prime=st.floats(80.0, 400.0),
    tau=st.floats(0.05, 0.2),
    ratio=st.floats(1.0, 1.1),
    explicit_dt=st.booleans(),
)
def test_simulators_match_reference_wiring(model, kick, given_history, spec, regime, c_prime,
                                           tau, ratio, explicit_dt):
    """The shared run path gives every simulator the trace its own wiring
    gave, bit for bit: samples and metadata, or an error of the same type at
    the same time.  A zero kick starts the fluid windows at 0, which leaves
    the model domain at t = 0."""
    taus = (tau, tau * ratio)
    n_var = 2 if model in ("coupled", "phase") else 1
    cfg = DdeConfig(
        horizon=3.0 * taus[1],
        dt=min(taus) / 97.0 if explicit_dt else None,
        history=(lambda t: tuple(3.0 + i + 2.0 * t for i in range(n_var))) if given_history else None,
        kick={"scalar": 1.05, "tuple": (1.03, 0.98)[:n_var], "zero": 0.0}[kick],
    )
    net = NetworkParams(c_prime=c_prime, tau=tau, b=15.0, C_tilde=1.97 * c_prime, B=30.0)
    if model == "phase":
        problem = SyncProblem(50.0, 50.0 * ratio, 30.0, tau, regime, B=30.0, b=15.0)
        args = (phase_model_equal(problem, tau2=taus[1]), cfg)
    elif model == "coupled":
        args = (spec, regime, net, *taus, cfg)
    else:
        args = (spec, regime, net, cfg)
    got, want = (sim_outcome(simulate, *args) for simulate in SIMULATORS[model])
    if isinstance(want, tuple):
        assert got == want
        return
    assert (got.t0, got.dt, got.meta) == (want.t0, want.dt, want.meta)
    assert got.data.keys() == want.data.keys()
    assert all(np.array_equal(got.data[k], want.data[k]) for k in want.data)


@settings(max_examples=250)
@given(
    omega=st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=2),
    coupling=st.lists(st.floats(-60.0, 60.0), min_size=4, max_size=4),
    dt=st.sampled_from([0.01, 3.7e-4, 1e-3]),
    offsets=st.lists(
        st.one_of(st.sampled_from([1.0, 2.0, 7.0]), st.floats(1.0, 9.0)), min_size=2, max_size=2
    ),
    short_delay=st.integers(0, 7),
    n_steps=st.integers(0, 40),
    off_grid=st.one_of(st.just(0.0), st.floats(0.01, 0.49)),
    history=st.one_of(st.none(), st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4)),
)
def test_phase_kernel_matches_reference(omega, coupling, dt, offsets, short_delay, n_steps,
                                        off_grid, history):
    """The phase block loop gives the per-step loop's trace bit for bit, or
    its error text: arbitrary 2x2 couplings (as the general reductions make),
    equal, unequal and fractional delays, dt == tau (one-step blocks),
    horizons off the step and block grids, zero steps, the default ramp or a
    given history, and (one draw in eight) a delay shorter than dt."""
    if short_delay == 0:
        offsets[0] = 0.5 + offsets[0] / 20.0
    horizon = (n_steps + off_grid) * dt
    assume(horizon > 0.0)
    if history is not None:
        h1, s1, h2, s2 = history
        history = lambda t: (h1 + s1 * t, h2 + s2 * t)
    params = PhaseParams("phase-test", tuple(omega), tuple(off * dt for off in offsets),
                         (tuple(coupling[:2]), tuple(coupling[2:])))
    cfg = DdeConfig(horizon=horizon, dt=dt, history=history)
    outcomes = []
    for simulate in (simulate_phase_oscillators, reference_simulate_phase_oscillators):
        try:
            outcomes.append(simulate(params, cfg))
        except SimulationError as exc:
            outcomes.append(str(exc))
    got, want = outcomes
    if isinstance(want, str):
        assert got == want and "exceeds the smallest delay" in want
        return
    assert (got.t0, got.dt, got.meta) == (want.t0, want.dt, want.meta)
    assert len(got) == n_steps + 1
    assert got.data.keys() == want.data.keys()
    assert all(np.array_equal(got.data[k], want.data[k]) for k in want.data)


@pytest.mark.parametrize("model", ["single", "coupled"])
@pytest.mark.parametrize("spec", [RENO, ProtocolSpec.compound(), ProtocolSpec.illinois()],
                         ids=["reno", "compound", "illinois"])
def test_simulators_abort_where_a_predictor_crosses_the_floor(model, spec):
    """A step of a full delay from a deep kick sends a predictor below zero,
    where Reno's 1/w would divide by zero and Compound's w**(k - 1) turn
    complex; both paths abort with a SimulationError at the same time, and
    the reference names it as a stage-input (predictor) check."""
    net = NetworkParams(c_prime=107.0, tau=0.1, b=15.0, C_tilde=1.97 * 107.0, B=30.0)
    cfg = DdeConfig(horizon=5.0, dt=0.1, kick=50.0)
    args = (spec, SMALL_BUFFER, net, *((0.1, 0.1) if model == "coupled" else ()), cfg)
    simulate, reference = SIMULATORS[model]
    got = sim_outcome(simulate, *args)
    with pytest.raises(SimulationError, match="window left the model domain"):
        reference(*args)
    assert got == sim_outcome(reference, *args)
    assert got[0] == "SimulationError"


def synthetic_trace(freqs, amps, dt=0.002, n=20000, names=("w1", "w2")):
    t = dt * np.arange(n)
    data = {nm: a * np.sin(f * t) for nm, f, a in zip(names, freqs, amps)}
    return Trace(0.0, dt, data, {"transient_fraction": 0.1})


def test_measure_lock_rejects_window_without_two_samples():
    tr = Trace(0.0, 0.01, {"theta1": np.zeros(1), "theta2": np.zeros(1)}, {})
    with pytest.raises(ValueError, match="at least 2"):
        measure_lock(tr)


def test_estimate_limit_cycle_constant_series():
    tr = Trace(0.0, 0.01, {"w": np.full(5000, 3.3)}, {})
    est = estimate_limit_cycle(tr, "w")
    assert est == {"amplitude": 0.0, "frequency": 0.0, "locked": False}


def test_estimate_limit_cycle_pure_sinusoid():
    tr = synthetic_trace([40.0, 40.0], [1.3, 1.3])
    est = estimate_limit_cycle(tr, "w1")
    assert est["amplitude"] == pytest.approx(2 * 1.3, rel=0.01)
    bin_width = 2 * math.pi / (len(tr.tail(0.1)["w1"]) * tr.dt)
    assert abs(est["frequency"] - 40.0) <= bin_width
    assert est["locked"]  # identical tones are trivially coherent


def test_estimate_limit_cycle_detuned_pair_not_locked():
    tr = synthetic_trace([40.0, 44.0], [1.0, 1.0])
    est = estimate_limit_cycle(tr, "w1")
    assert not est["locked"]


def test_estimate_limit_cycle_too_short_names_horizon():
    tr = synthetic_trace([4.0, 4.0], [1.0, 1.0], n=4000)  # ~5 cycles in the tail
    with pytest.raises(ValueError, match="horizon"):
        estimate_limit_cycle(tr, "w1")


@pytest.mark.parametrize("history", [1.0, (1.0, 2.0)])
def test_dde_config_history_must_be_callable(history):
    with pytest.raises(ValueError, match="history"):
        DdeConfig(horizon=1.0, history=history)
