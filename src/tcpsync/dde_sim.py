"""Fixed-step integration of the delayed fluid and phase-oscillator models.

The integrator is explicit second-order Heun with a constant step and a
stored sample history; delayed state is read by linear interpolation between
stored samples (exact when the delay is an integer number of steps).  The
right-hand sides have kinks where loss terms switch on, so higher-order
methods would buy nothing, and the constant step keeps every delayed lookup
O(1).

Delayed reads are made per block, as in the method of steps: with every
delay at least m = min_i floor(tau_i / dt) steps, the next m steps read only
samples already stored, so each variable's interpolated lag series for the
block is computed in one numpy expression before the block is stepped.  The
expression rounds exactly as a per-step read would, so block size never
changes a trace.  Every model here couples its variables only through
delayed values, and each model supplies the Heun loop that steps a block
from its lags.  The fluid and linearised models are given in split form and
share ``heun_block``: ``terms`` turns a block's lags into one row per sample
and variable (all the lag-only work, such as the fluid loss laws, done once
per sample), variable i's derivative ``rhs[i](y_i, row)`` reads only its own
current value, and each variable is stepped through the block on its own.
The phase models' derivative is written once, in ``_phase_block``, which
steps both oscillators straight from the two lag lists with no floor.
``integrate_dde`` keeps everything else: validation, the sample store, the
history, the lag interpolation and the floor-abort rule.

Systems covered, all with one delayed read per variable (variable i is read
back at t - tau_i):

* the nonlinear window model of a single set, and of two sets coupled
  through the shared core queue;
* the linearised single-set model (for stability-boundary checks);
* phase-oscillator reductions, both the general two-set forms and the
  equally-coupled forms whose locked states ``sync_solver`` predicts.

Default initial data: fluid models start on a constant history at the
solved equilibrium, optionally scaled by a multiplicative ``kick``; phase
models start on the free-running ramp theta_m(t) = omega_m * t.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import linear_analysis
from .equilibrium import solve_coupled, solve_single
from .errors import SimulationError
from .loss_models import (
    INTERMEDIATE,
    SMALL_BUFFER,
    core_loss,
    core_loss_fn,
    edge_loss,
    edge_loss_fn,
    loss_at,
)
from .protocols import decrease_fn, increase_fn, window_laws
from .signals import analytic_phase, dominant_frequency, fit_frequency
from .sync_solver import SyncProblem, order_parameter
from .trace import Trace

#: default steps per (smallest) delay
STEPS_PER_DELAY = 500
#: fluid windows at or below this many packets abort the run
W_FLOOR = 1e-9
#: cycles a trace tail must cover for ``estimate_limit_cycle``
MIN_CYCLE_PERIODS = 20


@dataclass(frozen=True)
class DdeConfig:
    """Integration settings.

    ``dt`` of None picks min(delay)/STEPS_PER_DELAY.  ``history`` is None,
    which selects the model's default, or a callable t -> state tuple with one
    entry per variable, read on t <= 0; anything else is a ValueError.
    ``kick`` scales the default fluid equilibrium history (scalar or per-set
    tuple) to inject a perturbation; it is ignored when a history is given.
    """

    horizon: float
    dt: float = None
    history: object = None
    kick: object = 1.0
    transient_fraction: float = 0.25

    def __post_init__(self):
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if self.dt is not None and not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.history is not None and not callable(self.history):
            raise ValueError("history must be None or a callable t -> state tuple")
        if not 0.0 <= self.transient_fraction < 1.0:
            raise ValueError("transient fraction must lie in [0, 1)")


def _kick_tuple(kick, n_var):
    if np.ndim(kick) == 0:
        return (float(kick),) * n_var
    vals = tuple(float(v) for v in kick)
    if len(vals) != n_var:
        raise ValueError(f"kick tuple must have {n_var} entries")
    return vals


def integrate_dde(block, delays, history, horizon, dt, floor=None):
    """Heun integration by the method of steps of a model whose variables
    couple only through the delayed values ylag_j = y_j(t - tau_j).

    The model is autonomous and supplies its Heun loop over a block as
    ``block(ys, lags, dt, bound) -> (outs, hits)``.  Per block of m steps from
    step n0, ``lags`` holds one array of m + 1 interpolated lags per variable,
    at t = (n0 .. n0 + m) * dt, and ``ys`` the current values, which the block
    advances in place; ``outs`` holds each variable's new samples, and
    ``hits`` one (k, stage, i) per variable i that stopped because its
    predictor (stage 0) or corrected value (stage 1) of step n0 + k was at or
    below ``bound`` (NaN without a floor).  ``heun_block`` builds the block
    of a split-form model; the phase models write their own.
    ``history`` is a callable t -> tuple for t <= 0.
    Requires 0 < dt <= min(tau).  Returns an array of shape (n_var, n_steps + 1)
    sampled on t = 0 .. horizon.  With a ``floor``, a variable at or below it at
    t = 0, in a predictor or after a step aborts the run at the earliest such
    (step, stage, variable).
    """
    if not dt > 0.0 or not all(tau > 0.0 for tau in delays):
        raise SimulationError(
            f"step dt={dt:g} and delays {list(delays)} must all be positive"
        )
    n_var = len(delays)
    offs = [tau / dt for tau in delays]
    if min(offs) < 1.0:
        raise SimulationError(
            f"step dt={dt:g} exceeds the smallest delay {min(delays):g}; "
            "delayed reads would need extrapolation"
        )
    try:
        joffs = [int(math.floor(off)) for off in offs]
        n_hist = max(joffs) + 2
        n_steps = int(round(horizon / dt))
        store = np.empty((n_var, n_hist + 1 + n_steps))
    except (OverflowError, ValueError, MemoryError) as exc:
        raise SimulationError(
            f"a horizon of {horizon:g} s at step dt={dt:g} with delays {list(delays)} "
            f"needs more samples than can be stored ({exc})"
        ) from None
    fracs = [off - j for off, j in zip(offs, joffs)]
    for k in range(n_hist + 1):
        vals = history((k - n_hist) * dt)
        store[:, k] = [float(vals[i]) for i in range(n_var)]

    bound = math.nan if floor is None else floor  # nothing compares <= NaN
    ys = store[:, n_hist].tolist()
    for i, y in enumerate(ys):
        if y <= bound:
            raise SimulationError(f"variable {i} starts at or below the positivity floor at t=0")
    block_len = min(joffs)
    for n0 in range(0, n_steps, block_len):
        m = min(block_len, n_steps - n0)
        # lags at t = (n0 .. n0 + m) * dt read only samples stored before n0
        lags = []
        for i in range(n_var):
            lo = n_hist + n0 - joffs[i]
            lag = store[i, lo : lo + m + 1]
            if fracs[i] != 0.0:
                lag = lag * (1.0 - fracs[i]) + store[i, lo - 1 : lo + m] * fracs[i]
            lags.append(lag)
        outs, hits = block(ys, lags, dt, bound)
        for i, out in enumerate(outs):
            store[i, n_hist + n0 + 1 : n_hist + n0 + 1 + len(out)] = out
        if hits:
            k, _, i = min(hits)
            raise SimulationError(
                f"variable {i} hit the positivity floor at t={(n0 + k) * dt + dt:.6g}; "
                f"the step dt={dt:g} is too large for this trajectory"
            )
    return np.ascontiguousarray(store[:, n_hist:])


def heun_block(rhs, terms):
    """The Heun block loop of a model in split form: y_i' = rhs[i](y_i, row),
    where ``terms(lags)`` turns a block's lags into one list of m + 1 rows per
    variable (row k serves the stage at step n0 + k), so variable i's
    derivative reads only its own current value and its row.  Each variable
    is stepped through the block on its own and stops at its first stage at
    or below the bound."""

    def block(ys, lags, dt, bound):
        half = 0.5 * dt
        outs, hits = [], []
        for i, (f, rows) in enumerate(zip(rhs, terms(lags))):
            y, out = ys[i], []
            rows = iter(rows)
            a = next(rows)
            for b in rows:
                k1 = f(y, a)
                pred = y + dt * k1
                if pred <= bound:
                    hits.append((len(out), 0, i))
                    break
                y = y + half * (k1 + f(pred, b))
                if y <= bound:
                    hits.append((len(out), 1, i))
                    break
                out.append(y)
                a = b
            ys[i] = y
            outs.append(out)
        return outs, hits

    return block


def _integrate(block, delays, default_history, cfg, floor=None):
    """Integrate the model's ``block`` loop under ``cfg``: dt is cfg.dt or
    min(delays)/STEPS_PER_DELAY and the history cfg.history or
    ``default_history``.  Returns the samples, dt and the metadata every
    simulated trace starts from."""
    dt = min(delays) / STEPS_PER_DELAY if cfg.dt is None else cfg.dt
    history = default_history if cfg.history is None else cfg.history
    ys = integrate_dde(block, delays, history, cfg.horizon, dt, floor=floor)
    return ys, dt, {"dt": dt, "horizon": cfg.horizon, "transient_fraction": cfg.transient_fraction}


def _fluid_rhs(gain, edges, taus, core):
    """The fluid window equation w_m' = (w_m(t - tau_m) / tau_m) * gain(w_m, p_m),
    the one place it is written: each set's right-hand side c * gain(w, p) on
    the rows (c, p) = (w_m(t - tau_m) / tau_m, p_m), and the terms that build
    the rows, so every loss law runs once per lag sample.  With ``core`` None
    it is one set behind its edge queue, p = edge(w(t - tau)); otherwise two
    sets whose edge queues feed the shared core,
    p_m = min(1, edge_m(w_m(t - tau_m)) + core(rate)) with
    rate = sum_m w_m(t - tau_m) / tau_m."""

    def rhs(w, row):
        c, p = row
        return c * gain(w, p)

    invs = [1.0 / tau for tau in taus]

    def terms(lags):
        rates = [lag * inv for lag, inv in zip(lags, invs)]
        ps = [map(loss, lag.tolist()) for loss, lag in zip(edges, lags)]
        if core is not None:
            pc = list(map(core, (rates[0] + rates[1]).tolist()))
            ps = [[min(1.0, e + q) for e, q in zip(p, pc)] for p in ps]
        return [list(zip(rate.tolist(), p)) for rate, p in zip(rates, ps)]

    return [rhs] * len(taus), terms


def _simulate_fluid(spec, regime, net, taus, w_stars, cfg, name):
    """Window trajectories of one set (one delay) or of two sets sharing the
    core (two delays), started on the equilibrium ``w_stars`` scaled by
    cfg.kick.  Returns the windows, their loss channels (one per edge, then
    the core's for two sets), dt and the run metadata."""
    edges = [edge_loss_fn(regime, net.c_prime, tau, net.b, net.n_e) for tau in taus]
    core = core_loss_fn(regime, net.C_tilde, net.B, net.n_c) if len(taus) == 2 else None
    w0 = tuple(w * k for w, k in zip(w_stars, _kick_tuple(cfg.kick, len(taus))))
    rhs, terms = _fluid_rhs(window_laws(spec).gain, edges, taus, core)
    ys, dt, run = _integrate(heun_block(rhs, terms), taus, lambda t: w0, cfg, floor=W_FLOOR)
    losses = [loss_at(loss, w) for loss, w in zip(edges, ys)]
    if core is not None:
        losses.append(loss_at(core, ys[0] / taus[0] + ys[1] / taus[1]))
    meta = {"model": f"fluid-{name}-{regime}", "protocol": asdict(spec), "network": asdict(net)}
    return ys, losses, dt, meta | run


def simulate_fluid_single(spec, regime, net, cfg):
    """Window trajectory of one set of flows behind its edge queue."""
    eq = solve_single(spec, regime, net)
    (w,), (p,), dt, meta = _simulate_fluid(
        spec, regime, net, [net.tau], [eq.w_star], cfg, "single")
    return Trace(0.0, dt, {"w": w, "p": p}, meta | {"w_star": eq.w_star})


def simulate_fluid_linearized(spec, regime, net, cfg):
    """Perturbation trajectory of the linearised single-set model."""
    eq = solve_single(spec, regime, net)
    a, c = linear_analysis.delay_coefficients(spec, regime, net, eq)
    kick = _kick_tuple(cfg.kick, 1)
    u0 = (kick[0] - 1.0) * eq.w_star
    if cfg.history is None and u0 == 0.0:
        u0 = 0.01 * eq.w_star  # a flat zero history would stay identically zero

    def rhs(u, lag_term):
        return -a * u - lag_term

    ys, dt, run = _integrate(heun_block([rhs], lambda lags: [(c * lags[0]).tolist()]),
                             [net.tau], lambda t: (u0,), cfg)
    meta = {"model": f"fluid-linearized-{regime}", "protocol": asdict(spec),
            "network": asdict(net), "a": a, "c": c, "w_star": eq.w_star}
    return Trace(0.0, dt, {"dw": ys[0]}, meta | run)


def simulate_fluid_coupled(spec, regime, net, tau1, tau2, cfg):
    """Window trajectories of two sets sharing the core queue."""
    eq1, eq2 = solve_coupled(spec, regime, net, tau1, tau2)
    (w1, w2), (p1, p2, pc), dt, meta = _simulate_fluid(
        spec, regime, net, [tau1, tau2], [eq1.w_star, eq2.w_star], cfg, "coupled")
    meta |= {"tau1": tau1, "tau2": tau2, "w_star": [eq1.w_star, eq2.w_star]}
    return Trace(0.0, dt, {"w1": w1, "w2": w2, "p1": p1, "p2": p2, "p_core": pc}, meta)


# --------------------------------------------------------------------------
# phase-oscillator reductions


@dataclass(frozen=True)
class PhaseParams:
    """Two delay-coupled phase oscillators.

    d theta_m/dt = omega_m + sum_i coupling[m][i] * sin(theta_i(t - tau_i) - theta_m(t)).
    """

    model: str
    omega: tuple
    tau: tuple
    coupling: tuple  # 2x2, row-major

    def __post_init__(self):
        if not all(t > 0 for t in self.tau):
            raise ValueError(f"delays must be positive, got {self.tau}")

    def as_meta(self):
        return {
            "model": self.model,
            "omega": list(self.omega),
            "tau": list(self.tau),
            "coupling": [list(row) for row in self.coupling],
        }


def phase_model_equal(problem, tau2=None):
    """Equal-form phase model of a sync problem: coupling ((-D, -S), (-S, -D))
    from the solver's gains, delays (problem.tau, tau2 or problem.tau)."""
    d, s = problem.gains()
    t2 = problem.tau if tau2 is None else tau2
    return PhaseParams(
        "phase-small-equal" if problem.regime == SMALL_BUFFER else "phase-intermediate-equal",
        (problem.omega1, problem.omega2),
        (problem.tau, t2),
        ((-d, -s), (-s, -d)),
    )


def phase_model_small_equal(omega1, omega2, K, tau, B, b, n_c=1.0, n_e=1.0):
    """Equally-coupled small-buffer reduction: cross gain K*B/(2 n_c) plus a
    delayed self-interaction b/n_e * K from the set's own edge queue."""
    problem = SyncProblem(omega1, omega2, K, tau, SMALL_BUFFER, B=B, b=b, n_c=n_c, n_e=n_e)
    return phase_model_equal(problem)


def phase_model_intermediate_equal(omega1, omega2, K, tau):
    """Equally-coupled intermediate-buffer reduction: pure -K sin coupling."""
    return phase_model_equal(SyncProblem(omega1, omega2, K, tau, INTERMEDIATE))


def phase_model_small_general(spec, net, eq1, eq2, tau1, tau2, omega1, omega2,
                              r1=1.0, r2=1.0):
    """General (unequal sets) small-buffer reduction."""
    net.require_core()
    ws = (eq1.w_star, eq2.w_star)
    taus = (tau1, tau2)
    rs = (r1, r2)
    rate_sum = ws[0] / tau1 + ws[1] / tau2
    p_core = core_loss(SMALL_BUFFER, ws[0], ws[1], net, tau1, tau2)
    rows = []
    for mdx in (0, 1):
        p_edge = edge_loss(SMALL_BUFFER, ws[mdx], net, tau=taus[mdx])
        atten = increase_fn(spec, ws[mdx]) / (1.0 + p_edge / p_core)
        q = net.B * (ws[mdx] / taus[mdx]) / (net.n_c * rate_sum)
        row = [-atten * q * rs[i] / (taus[i] * rs[mdx]) for i in (0, 1)]
        row[mdx] += atten * (net.b / net.n_e) / taus[mdx]
        rows.append(tuple(row))
    return PhaseParams("phase-small-general", (omega1, omega2), taus, tuple(rows))


def phase_model_intermediate_general(spec, net, eq1, eq2, tau1, tau2, omega1, omega2,
                                     r1=1.0, r2=1.0):
    """General (unequal sets) intermediate-buffer reduction."""
    net.require_core()
    ws = (eq1.w_star, eq2.w_star)
    taus = (tau1, tau2)
    rs = (r1, r2)
    rate_sum = ws[0] / tau1 + ws[1] / tau2
    rows = []
    for mdx in (0, 1):
        i_d = increase_fn(spec, ws[mdx]) + decrease_fn(spec, ws[mdx])
        amp = i_d * net.C_tilde**net.n_c * (ws[mdx] / taus[mdx]) / rate_sum ** (net.n_c + 1.0)
        rows.append(tuple(-amp * rs[i] / (taus[i] * rs[mdx]) for i in (0, 1)))
    return PhaseParams("phase-intermediate-general", (omega1, omega2), taus, tuple(rows))


def _phase_block(params):
    """The Heun block loop of a two-oscillator phase model, the one place its
    derivative om_m + c_m1 sin(l1 - theta_m) + c_m2 sin(l2 - theta_m) is
    written, with l_i = theta_i(t - tau_i).  Both oscillators step together
    through the block's lag lists; phase models have no floor, so the loop
    makes no bound compares and reports no hits."""

    def block(ys, lags, dt, bound):
        (om1, om2), ((m11, m12), (m21, m22)) = params.omega, params.coupling
        sin, half = math.sin, 0.5 * dt
        y1, y2 = ys
        l1, l2 = lags[0].tolist(), lags[1].tolist()
        out1, out2 = [], []
        a1, a2 = l1[0], l2[0]
        for b1, b2 in zip(l1[1:], l2[1:]):
            k1 = om1 + m11 * sin(a1 - y1) + m12 * sin(a2 - y1)
            pred = y1 + dt * k1
            y1 = y1 + half * (k1 + (om1 + m11 * sin(b1 - pred) + m12 * sin(b2 - pred)))
            k1 = om2 + m21 * sin(a1 - y2) + m22 * sin(a2 - y2)
            pred = y2 + dt * k1
            y2 = y2 + half * (k1 + (om2 + m21 * sin(b1 - pred) + m22 * sin(b2 - pred)))
            out1.append(y1)
            out2.append(y2)
            a1, a2 = b1, b2
        ys[:] = y1, y2
        return (out1, out2), ()

    return block


def simulate_phase_oscillators(params, cfg):
    """Integrate a two-oscillator phase model; returns unwrapped phases plus
    the order-parameter series r(t), psi(t)."""
    om1, om2 = params.omega
    ys, dt, run = _integrate(_phase_block(params), params.tau,
                             lambda t: (om1 * t, om2 * t), cfg)
    th1, th2 = ys
    r, psi = order_parameter(th1, th2)
    return Trace(0.0, dt, {"theta1": th1, "theta2": th2, "r": r, "psi": psi},
                 params.as_meta() | run)


def measure_lock(trace, tail_fraction=0.25):
    """Lock metrics of a phase trace over its trailing window.

    Returns dict with the fitted common frequency ``Omega``, circular-mean
    phase difference ``phi0`` (theta1 leading), mean order parameter
    ``r_mean``, the residual phase drift rate, and a ``locked`` verdict
    (drift below 1e-3 of Omega and phase-difference spread below 0.01 rad).
    Raises ValueError when the window holds fewer than two samples.
    """
    tail = trace.tail(1.0 - tail_fraction)
    th1, th2 = tail["theta1"], tail["theta2"]
    if len(th1) < 2:
        raise ValueError(
            f"lock window holds {len(th1)} sample(s); a frequency fit needs at least 2"
        )
    dt = trace.dt
    phi = th1 - th2
    omega = fit_frequency(0.5 * (th1 + th2), dt)
    drift = fit_frequency(phi, dt)
    phi0 = float(np.angle(np.mean(np.exp(1j * phi))))
    spread = float(np.std(phi - drift * dt * np.arange(len(phi))))
    r_mean = float(np.mean(tail["r"]))
    locked = abs(drift) < 1e-3 * max(abs(omega), 1e-12) and spread < 0.01
    return {
        "Omega": omega,
        "phi0": phi0,
        "r_mean": r_mean,
        "drift": drift,
        "spread": spread,
        "locked": locked,
    }


_PARTNERS = {"w1": "w2", "w2": "w1"}


def estimate_limit_cycle(trace, variable):
    """Amplitude/frequency of a (near-)periodic channel, plus a lock verdict.

    The leading ``transient_fraction`` of the trace (from its metadata,
    default 0.25) is discarded.  ``locked`` is True only when the channel has
    a partner set (w1/w2 of a coupled fluid trace) whose dominant frequency
    agrees within 1% and the mean order parameter of the two channels'
    analytic phases exceeds 0.95.
    Raises ValueError when the trace is too short to cover
    ``MIN_CYCLE_PERIODS`` of the detected cycle, naming the horizon that
    would suffice.
    """
    frac = float(trace.meta.get("transient_fraction", 0.25))
    tail = trace.tail(frac)
    x = tail[variable]
    scale = max(1.0, float(np.max(np.abs(x))))
    amplitude = float(np.ptp(x))
    if amplitude <= 1e-12 * scale:
        return {"amplitude": 0.0, "frequency": 0.0, "locked": False}
    freq = dominant_frequency(x, trace.dt)
    tail_duration = trace.dt * (len(x) - 1)
    if freq <= 0.0 or tail_duration * freq < MIN_CYCLE_PERIODS * 2.0 * math.pi:
        period = float("inf") if freq <= 0.0 else 2.0 * math.pi / freq
        needed = MIN_CYCLE_PERIODS * period / max(1.0 - frac, 1e-9)
        raise ValueError(
            f"trace covers too few cycles of {variable} for a limit-cycle "
            f"estimate; need a horizon of at least {needed:.3g} s"
        )
    locked = False
    partner = _PARTNERS.get(variable)
    if partner is not None and partner in tail:
        freq2 = dominant_frequency(tail[partner], trace.dt)
        if freq2 > 0.0 and abs(freq - freq2) <= 0.01 * max(freq, freq2):
            r = order_parameter(analytic_phase(x), analytic_phase(tail[partner]))[0]
            locked = float(np.mean(r)) > 0.95
    return {"amplitude": amplitude, "frequency": freq, "locked": locked}
