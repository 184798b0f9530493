"""Independent oracles used by the test suite.

Everything here is deliberately written from first principles, separate from
the package's own numerics: plain bisection, brute-force grid searches, an
argument-principle root counter for delay characteristic functions,
symbolic differentiation, the sync solver's former per-regime stability
rule, the per-step Heun loop the DDE integrator is held bit-identical to,
the block integrator as it stepped the whole state per call, the
one-row-at-a-time trace writers the streamed ones are held
byte-identical to, the packet event loop with explicit service events
that the Lindley routers are held to, run with the per-variant window
updates the packet simulator wrote out before it called
``protocols.window_laws``, and the hand-written bisection loops
of the equilibrium solvers, the sync scan and the coupling window that the
shared ``equilibrium.halve`` is held bit-identical to, and the four
simulators as each wired its own run before ``dde_sim`` gave them one run
path and one fluid right-hand side, and the critical coupling as the minimum
of the locked-state curve over a dense grid, refined by scipy.  Tests compare
package results against these.
"""

import cmath
import heapq
import json
import math
from collections import deque
from dataclasses import asdict, replace

import numpy as np

from tcpsync.dde_sim import STEPS_PER_DELAY, W_FLOOR, _kick_tuple
from tcpsync.equilibrium import BISECT_RTOL, EquilibriumState, solve_coupled, solve_single
from tcpsync.errors import NoRootError, SimulationError
from tcpsync.linear_analysis import delay_coefficients
from tcpsync.loss_models import core_loss_fn, edge_loss_fn, loss_at
from tcpsync.packet_sim import DUPACK_DETECT, ScenarioResult, _Flow
from tcpsync.protocols import ILLINOIS, RENO, window_laws
from tcpsync.sync_solver import POLISH_RTOL, SCAN_POINTS, SyncState, _wrap, order_parameter
from tcpsync.trace import Trace

#: the former acceptance of polished roots, relative to the frequency scale
ACCEPT_RTOL = 1e-9
#: the former bisection steps that sharpened the coupling window's K_u
REFINE_STEPS = 40


def plain_bisect(f, lo, hi, iters=200):
    """Textbook bisection; assumes a sign change on [lo, hi]."""
    flo, fhi = f(lo), f(hi)
    assert flo * fhi <= 0, "oracle bisection needs a bracketing interval"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def symbolic_g(variant, w_value, p_value, params):
    """g = (w d'/d - w i'/i) * d/(i+d) via sympy, with d/(i+d) -> (1-p)."""
    import sympy as sp

    w = sp.Symbol("w", positive=True)
    if variant == "compound":
        i = params["alpha"] * w ** (params["k"] - 1)
        d = params["beta"] * w
    elif variant == "reno":
        i = 1 / w
        d = w / 2
    else:
        i = params["alpha_max"] / w
        d = params["beta_min"] * w
    elas = w * sp.diff(d, w) / d - w * sp.diff(i, w) / i
    expr = elas * (1 - sp.Symbol("p"))
    val = expr.subs({w: w_value, sp.Symbol("p"): p_value})
    return float(val)


def char_function(a, c, tau):
    """Characteristic function of u' = -a u - c u(t - tau)."""

    def f(lam):
        return lam + a + c * cmath.exp(-lam * tau)

    return f


def count_rhp_roots(a, c, tau, radius=None, n_pts=40000):
    """Number of zeros of the characteristic function with Re(lambda) > 0.

    Winding number of f over a D-shaped contour (imaginary axis segment
    closed by a right half-circle), computed by tracking the continuous
    argument.  The radius default encloses every possible RHP root, which
    satisfies |lambda| <= a + c (since Re >= 0 implies |e^{-lam tau}| <= 1).
    """
    f = char_function(a, c, tau)
    if radius is None:
        radius = 2.0 * (a + c) + 1.0
    pts = []
    ts = np.linspace(radius, -radius, n_pts)
    pts.extend(complex(1e-9, t) for t in ts)  # down the (shifted) imaginary axis
    angles = np.linspace(-math.pi / 2, math.pi / 2, n_pts)
    pts.extend(radius * complex(math.cos(an), math.sin(an)) for an in angles)
    vals = [f(z) for z in pts]
    total = 0.0
    prev = cmath.phase(vals[0])
    for v in vals[1:]:
        cur = cmath.phase(v)
        d = cur - prev
        while d > math.pi:
            d -= 2 * math.pi
        while d < -math.pi:
            d += 2 * math.pi
        total += d
        prev = cur
    # close the contour back to the start
    d = cmath.phase(vals[0]) - prev
    while d > math.pi:
        d -= 2 * math.pi
    while d < -math.pi:
        d += 2 * math.pi
    total += d
    return int(round(total / (2 * math.pi)))


def brute_sync_roots(omega1, omega2, d_gain, s_gain, tau, omega_max, n_om=2500, n_ph=1500):
    """Brute-force locked-state search for the two-oscillator pair.

    Marching-squares style: a grid cell is a root candidate when both
    steady-state relations change sign across it (both zero-level curves pass
    through).  Candidates are clustered and refined by a local 2-D Newton so
    each returned (Omega, phi0) is an actual intersection, independent of the
    package's branch-following solver.
    """
    om = np.linspace(1e-6, omega_max, n_om)
    ph = np.linspace(-math.pi, math.pi, n_ph)
    omg, phg = np.meshgrid(om, ph, indexing="ij")
    ot = omg * tau
    f1 = omega1 + d_gain * np.sin(ot) + s_gain * np.sin(ot + phg) - omg
    f2 = omega2 + d_gain * np.sin(ot) + s_gain * np.sin(ot - phg) - omg

    def straddles(f):
        blocks = np.stack([f[:-1, :-1], f[1:, :-1], f[:-1, 1:], f[1:, 1:]])
        return (blocks.min(axis=0) < 0) & (blocks.max(axis=0) > 0)

    cand = np.argwhere(straddles(f1) & straddles(f2))

    def residuals(o, p):
        t = o * tau
        return (
            omega1 + d_gain * math.sin(t) + s_gain * math.sin(t + p) - o,
            omega2 + d_gain * math.sin(t) + s_gain * math.sin(t - p) - o,
        )

    roots = []
    for i, j in cand:
        o, p = 0.5 * (om[i] + om[i + 1]), 0.5 * (ph[j] + ph[j + 1])
        ok = True
        for _ in range(80):
            g1, g2 = residuals(o, p)
            if abs(g1) + abs(g2) < 1e-11 * max(1.0, abs(o)):
                break
            t = o * tau
            j11 = d_gain * tau * math.cos(t) + s_gain * tau * math.cos(t + p) - 1.0
            j12 = s_gain * math.cos(t + p)
            j21 = d_gain * tau * math.cos(t) + s_gain * tau * math.cos(t - p) - 1.0
            j22 = -s_gain * math.cos(t - p)
            det = j11 * j22 - j12 * j21
            if det == 0.0:
                ok = False
                break
            o -= (g1 * j22 - g2 * j12) / det
            p -= (j11 * g2 - j21 * g1) / det
        else:
            ok = False
        # keep only refinements that stayed near their seed cell
        if not ok or abs(o - om[i]) > 4 * (om[1] - om[0]) or o <= 0 or o > omega_max:
            continue
        p = (p + math.pi) % (2 * math.pi) - math.pi
        if p == -math.pi:
            p = math.pi
        if not any(abs(o - ro) < 1e-6 * (1 + abs(ro)) and abs(p - rp) < 1e-5 for ro, rp in roots):
            roots.append((o, p))
    roots.sort()
    return roots


def reference_stability_factor(problem, Omega):
    """The sync solver's former regime-branched stability rule: a locked
    state is stable iff this is negative, marginal iff it is zero.

        small buffers:        K (B/n_c - b/n_e) cos(Omega tau)
        intermediate buffers: 2 K cos(Omega tau)
    """
    if problem.regime == "small-buffer":
        gain = problem.K * (problem.B / problem.n_c - problem.b / problem.n_e)
    else:
        gain = 2.0 * problem.K
    return gain * math.cos(Omega * problem.tau)


def aimd_sawtooth_period(capacity, buffer_pkts, base_rtt):
    """Deterministic single-flow additive-increase/halving cycle oracle.

    The window grows by one packet per round-trip (round-trip includes the
    queueing delay once the pipe is full) until capacity*rtt + buffer
    overflows, then halves.  Returns (period_seconds, w_max_packets).
    """
    bdp = capacity * base_rtt
    w_max = bdp + buffer_pkts + 1.0
    w = w_max / 2.0
    t = 0.0
    while w < w_max:
        q = max(0.0, w - bdp)
        rtt = base_rtt + q / capacity
        t += rtt
        w += 1.0
    return t, w_max


def reference_heun_dde(rhs, delays, history, horizon, dt, floor=None):
    """Per-step Heun loop with scalar delayed reads, the reference for
    ``dde_sim.integrate_dde``: one rhs(t, y, ylag) for the whole state in
    place of the split rhs and terms, and otherwise the same arguments and
    the same operations in the same order, so the two agree bit for bit."""
    n_var = len(delays)
    offs = [tau / dt for tau in delays]
    if min(offs) < 1.0:
        raise SimulationError(
            f"step dt={dt:g} exceeds the smallest delay {min(delays):g}; "
            "delayed reads would need extrapolation"
        )
    joffs = [int(math.floor(off)) for off in offs]
    fracs = [off - j for off, j in zip(offs, joffs)]
    n_hist = max(joffs) + 2
    n_steps = int(round(horizon / dt))
    cols = [[0.0] * (n_hist + 1 + n_steps) for _ in range(n_var)]
    for k in range(n_hist + 1):
        vals = history((k - n_hist) * dt)
        for i in range(n_var):
            cols[i][k] = float(vals[i])

    base = n_hist
    idx_rng = range(n_var)
    y = tuple(cols[i][base] for i in idx_rng)
    half = 0.5 * dt
    for n in range(n_steps):
        t = n * dt
        idx = base + n
        lag1 = tuple(
            cols[i][idx - joffs[i]]
            if fracs[i] == 0.0
            else cols[i][idx - joffs[i]] * (1.0 - fracs[i]) + cols[i][idx - joffs[i] - 1] * fracs[i]
            for i in idx_rng
        )
        k1 = rhs(t, y, lag1)
        pred = tuple(y[i] + dt * k1[i] for i in idx_rng)
        lag2 = tuple(
            cols[i][idx + 1 - joffs[i]]
            if fracs[i] == 0.0
            else cols[i][idx + 1 - joffs[i]] * (1.0 - fracs[i]) + cols[i][idx - joffs[i]] * fracs[i]
            for i in idx_rng
        )
        k2 = rhs(t + dt, pred, lag2)
        y = tuple(y[i] + half * (k1[i] + k2[i]) for i in idx_rng)
        if floor is not None:
            for i in idx_rng:
                if y[i] <= floor:
                    raise SimulationError(
                        f"variable {i} hit the positivity floor at t={t + dt:.6g}; "
                        f"the step dt={dt:g} is too large for this trajectory"
                    )
        for i in idx_rng:
            cols[i][idx + 1] = y[i]
    return np.array([col[base:] for col in cols])


# --------------------------------------------------------------------------
# the block integrator as it stepped the whole state per call, with one
# rhs(t, y, ylag) and unrolled stage lambdas; the four reference simulators
# run on it, so their traces keep the wiring they had


def _reference_heun_stages(n_var, dt, floor):
    """Predictor y + dt*k1, corrector y + dt/2*(k1 + k2) and the floor test
    (None without a floor) on state tuples, unrolled for the one- and
    two-variable systems of this module."""
    half = 0.5 * dt
    if n_var == 1:
        return (
            lambda y, k: (y[0] + dt * k[0],),
            lambda y, k1, k2: (y[0] + half * (k1[0] + k2[0]),),
            None if floor is None else lambda y: y[0] <= floor,
        )
    if n_var == 2:
        return (
            lambda y, k: (y[0] + dt * k[0], y[1] + dt * k[1]),
            lambda y, k1, k2: (y[0] + half * (k1[0] + k2[0]), y[1] + half * (k1[1] + k2[1])),
            None if floor is None else lambda y: y[0] <= floor or y[1] <= floor,
        )
    rng = range(n_var)
    return (
        lambda y, k: tuple(y[i] + dt * k[i] for i in rng),
        lambda y, k1, k2: tuple(y[i] + half * (k1[i] + k2[i]) for i in rng),
        None if floor is None else lambda y: any(v <= floor for v in y),
    )


def reference_integrate_dde(rhs, delays, history, horizon, dt, floor=None):
    """Heun integration of y_i' = rhs(t, y, ylag)_i with ylag_i = y_i(t - tau_i).

    ``history`` is a callable t -> tuple for t <= 0.  Requires 0 < dt <= min(tau).
    Returns an array of shape (n_var, n_steps + 1) sampled on t = 0 .. horizon.
    A variable at or below ``floor`` (when given) after a step aborts the run.
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
        store = np.empty((n_hist + 1 + n_steps, n_var))
    except (OverflowError, ValueError, MemoryError) as exc:
        raise SimulationError(
            f"a horizon of {horizon:g} s at step dt={dt:g} with delays {list(delays)} "
            f"needs more samples than can be stored ({exc})"
        ) from None
    fracs = [off - j for off, j in zip(offs, joffs)]
    for k in range(n_hist + 1):
        vals = history((k - n_hist) * dt)
        store[k] = [float(vals[i]) for i in range(n_var)]

    predict, correct, below = _reference_heun_stages(n_var, dt, floor)
    y = tuple(store[n_hist].tolist())
    block = min(joffs)
    for n0 in range(0, n_steps, block):
        m = min(block, n_steps - n0)
        # lags at t = (n0 .. n0 + m) * dt read only rows stored before n0
        lags = []
        for i in range(n_var):
            lo = n_hist + n0 - joffs[i]
            lag = store[lo : lo + m + 1, i]
            if fracs[i] != 0.0:
                lag = lag * (1.0 - fracs[i]) + store[lo - 1 : lo + m, i] * fracs[i]
            lags.append(lag.tolist())
        series = zip(*lags)
        lag1 = next(series)
        rows = []
        for n, lag2 in enumerate(series, n0):
            t = n * dt
            k1 = rhs(t, y, lag1)
            k2 = rhs(t + dt, predict(y, k1), lag2)
            y = correct(y, k1, k2)
            if below is not None and below(y):
                i = next(i for i, v in enumerate(y) if v <= floor)
                raise SimulationError(
                    f"variable {i} hit the positivity floor at t={t + dt:.6g}; "
                    f"the step dt={dt:g} is too large for this trajectory"
                )
            rows.append(y)
            lag1 = lag2
        store[n_hist + n0 + 1 : n_hist + n0 + 1 + m] = rows
    return np.ascontiguousarray(store[n_hist:].T)


def reference_write_csv(trace, path):
    """One row at a time, one ``repr(float(...))`` per cell: the reference for
    ``Trace.write_csv``, which must write the same bytes."""
    names = sorted(trace.data)
    cols = [trace.data[n] for n in names]
    tvals = trace.t
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["t"] + names) + "\n")
        for k in range(len(trace)):
            row = [repr(float(tvals[k]))] + [repr(float(c[k])) for c in cols]
            fh.write(",".join(row) + "\n")


def reference_write_json(trace, path):
    """The whole trace as a dict of float lists through ``json.dump(indent=1)``:
    the reference for ``Trace.write_json``, which must write the same bytes."""
    obj = {
        "t0": trace.t0,
        "dt": trace.dt,
        "meta": trace.meta,
        "data": {name: [float(v) for v in arr] for name, arr in trace.data.items()},
    }
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def reference_on_ack(flow):
    """Per-ack window growth (flow.last_rtt/base_rtt already updated)."""
    if flow.variant == RENO:
        flow.cwnd += 1.0 / flow.cwnd
    elif flow.variant == ILLINOIS:
        flow.cwnd += flow.spec.alpha_max / flow.cwnd
    else:
        flow.cwnd += 1.0 / flow.cwnd
        flow.acks_in_round += 1
        if flow.acks_in_round >= flow.round_size:
            w = flow.window
            if math.isfinite(flow.last_rtt) and flow.last_rtt > 0:
                diff = (w / flow.base_rtt - w / flow.last_rtt) * flow.base_rtt
            else:
                diff = 0.0
            if diff < flow.spec.gamma:
                flow.dwnd += max(flow.spec.alpha * w**flow.spec.k - 1.0, 0.0)
            else:
                flow.dwnd = max(flow.dwnd - flow.spec.zeta * diff, 0.0)
            flow.acks_in_round = 0
            flow.round_size = max(int(flow.window), 1)


def reference_on_loss(flow):
    """Multiplicative backoff after a detected drop."""
    if flow.variant == RENO:
        flow.cwnd = max(flow.cwnd / 2.0, 1.0)
    elif flow.variant == ILLINOIS:
        flow.cwnd = max((1.0 - flow.spec.beta_min) * flow.cwnd, 1.0)
    else:
        w = flow.window
        flow.dwnd = max(w * (1.0 - flow.spec.beta) - flow.cwnd / 2.0, 0.0)
        flow.cwnd = max(flow.cwnd / 2.0, 1.0)


class _ReferenceRouter:
    __slots__ = ("name", "rate", "buffer", "queue", "count", "busy",
                 "drops", "served", "busy_time")

    def __init__(self, name, rate, buffer):
        self.name = name
        self.rate = rate
        self.buffer = buffer
        self.queue = deque()
        self.count = 0
        self.busy = False
        self.drops = 0
        self.served = 0
        self.busy_time = 0.0


def reference_run_scenario(topology, groups, duration, seed=0, sample_dt=0.02):
    """The event loop with one ``service`` event per packet and router, the
    reference for ``packet_sim.run_scenario``: same traces, drops and
    counters, and ``utilization`` up to its last bits (here it is the running
    sum of service times over the duration).

    Queue occupancy is sampled every ``sample_dt``; each set's mean window is
    sampled once per its base round-trip time.  Deterministic given the seed.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    rng = np.random.default_rng(seed)

    edges = [
        _ReferenceRouter("edge1", topology.edge_capacity[0], topology.edge_buffer[0]),
        _ReferenceRouter("edge2", topology.edge_capacity[1], topology.edge_buffer[1]),
    ]
    core = _ReferenceRouter("core", topology.core_capacity, topology.core_buffer)
    routers = edges + [core]

    flows = []
    set_rtts = {}
    for gi, grp in enumerate(groups):
        set_id = grp.edge if grp.edge is not None else f"cross{gi}"
        serial = 1.0 / grp.access_rate + 1.0 / topology.core_capacity
        if grp.edge is not None:
            serial += 1.0 / topology.edge_capacity[grp.edge]
            set_rtts.setdefault(grp.edge, grp.rtt)
        prop = max(grp.rtt - serial, 1e-6)
        for _ in range(grp.count):
            start = float(rng.uniform(0.0, grp.rtt))
            flows.append(
                _Flow(grp.protocol, grp.edge, prop, grp.access_rate, set_id, start)
            )

    heap = []
    counter = 0

    def push(t, kind, payload):
        nonlocal counter
        heapq.heappush(heap, (t, counter, kind, payload))
        counter += 1

    in_network = 0

    def maybe_send(flow, now):
        nonlocal in_network
        while flow.in_flight < int(flow.window):
            dep = max(now, flow.access_free) + 1.0 / flow.access_rate
            flow.access_free = dep
            push(dep, "arrive", (flow, flow.next_seq, now))
            flow.next_seq += 1
            flow.in_flight += 1
            flow.sent += 1
            in_network += 1

    def start_service(router, t):
        push(t + 1.0 / router.rate, "service", router)
        router.busy = True

    def arrive(router, pkt, t):
        nonlocal in_network
        if router.count >= router.buffer:
            router.drops += 1
            flow = pkt[0]
            flow.dropped += 1
            flow.dropped_pending.append([pkt[1], 0])
            in_network -= 1
            return
        router.count += 1
        router.queue.append(pkt)
        if not router.busy:
            start_service(router, t)

    def detect_losses(flow, acked_seq, now):
        """Count this delivery against older outstanding drops; apply at most
        one backoff per recovery window."""
        remaining = deque()
        for entry in flow.dropped_pending:
            seq, hits = entry
            if seq < acked_seq:
                hits += 1
                entry[1] = hits
            if hits >= DUPACK_DETECT:
                flow.in_flight -= 1
                flow.detected += 1
                if seq > flow.recovery_until:
                    reference_on_loss(flow)
                    flow.recovery_until = flow.next_seq - 1
            else:
                remaining.append(entry)
        flow.dropped_pending = remaining

    # sampling machinery
    n_qsamples = int(duration / sample_dt) + 1
    qseries = {r.name: np.zeros(n_qsamples) for r in routers}
    conservation = {
        "t": [], "sent": [], "delivered": [], "dropped": [], "in_network": [],
        "base_rtt": [],
    }
    for k in range(n_qsamples):
        push(k * sample_dt, "qsample", k)

    wseries = {}
    for set_id, rtt in set_rtts.items():
        n = int(duration / rtt) + 1
        wseries[set_id] = np.zeros(n)
        for k in range(n):
            push(k * rtt, "wsample", (set_id, k))

    for flow in flows:
        push(flow.start_time, "start", flow)

    while heap:
        t, _, kind, payload = heapq.heappop(heap)
        if t > duration:
            break
        if kind == "arrive":
            flow, seq, sent_t = payload
            router = core if flow.edge is None else edges[flow.edge]
            arrive(router, (flow, seq, sent_t), t)
        elif kind == "service":
            router = payload
            pkt = router.queue.popleft()
            router.count -= 1
            router.served += 1
            router.busy_time += 1.0 / router.rate
            if router.queue:
                push(t + 1.0 / router.rate, "service", router)
            else:
                router.busy = False
            if router is core:
                push(t + pkt[0].prop, "ack", pkt)
            else:
                arrive(core, pkt, t)
        elif kind == "ack":
            flow, seq, sent_t = payload
            in_network -= 1
            flow.delivered += 1
            flow.in_flight -= 1
            rtt = t - sent_t
            flow.last_rtt = rtt
            if rtt < flow.base_rtt:
                flow.base_rtt = rtt
            detect_losses(flow, seq, t)
            reference_on_ack(flow)
            maybe_send(flow, t)
        elif kind == "start":
            maybe_send(payload, t)
        elif kind == "qsample":
            for r in routers:
                qseries[r.name][payload] = r.count
            conservation["t"].append(t)
            conservation["sent"].append(sum(f.sent for f in flows))
            conservation["delivered"].append(sum(f.delivered for f in flows))
            conservation["dropped"].append(sum(f.dropped for f in flows))
            conservation["in_network"].append(in_network)
            conservation["base_rtt"].append([f.base_rtt for f in flows])
        elif kind == "wsample":
            set_id, k = payload
            members = [f.window for f in flows if f.set_id == set_id]
            wseries[set_id][k] = sum(members) / len(members)
        if not heap:
            # every flow stalled on undetected drops: without timeouts the
            # system would deadlock, so declare the oldest drop of each
            # stalled flow detected and resume
            progressed = False
            for flow in flows:
                if flow.dropped_pending and flow.in_flight >= int(flow.window):
                    seq, _ = flow.dropped_pending.popleft()
                    flow.in_flight -= 1
                    flow.detected += 1
                    if seq > flow.recovery_until:
                        reference_on_loss(flow)
                        flow.recovery_until = flow.next_seq - 1
                    maybe_send(flow, t)
                    progressed = True
            if not progressed:
                break

    meta = {
        "duration": duration,
        "seed": seed,
        "sample_dt": sample_dt,
        "n_flows": len(flows),
    }
    queue_traces = {
        name: Trace(0.0, sample_dt, {"occupancy": arr}, {**meta, "router": name})
        for name, arr in qseries.items()
    }
    window_traces = {
        f"set{set_id + 1}": Trace(
            0.0, set_rtts[set_id], {"w_mean": arr}, {**meta, "set": set_id + 1}
        )
        for set_id, arr in wseries.items()
    }
    utilization = {r.name: r.busy_time / duration for r in routers}
    drops = {r.name: r.drops for r in routers}
    counters = {
        "sent": sum(f.sent for f in flows),
        "delivered": sum(f.delivered for f in flows),
        "dropped": sum(f.dropped for f in flows),
        "in_network": in_network,
        "detected_losses": sum(f.detected for f in flows),
        "served": {r.name: r.served for r in routers},
        "min_base_rtt": min((f.base_rtt for f in flows), default=math.nan),
    }
    conservation = {k: np.asarray(v) for k, v in conservation.items()}
    return ScenarioResult(queue_traces, window_traces, utilization, drops,
                          counters, conservation, meta)


# --------------------------------------------------------------------------
# the equilibrium and sync-solver searches, each with its own halving loop


def reference_bisect(f, lo, hi):
    """Bisection on a decreasing residual; assumes f(lo) > 0 > f(hi)."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo < 0.0 or fhi > 0.0:
        raise NoRootError(
            f"residual does not change sign on ({lo:g}, {hi:g}): "
            f"f(lo)={flo:g}, f(hi)={fhi:g}",
            bracket=(lo, hi),
        )
    while hi - lo > BISECT_RTOL * hi:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # bracket at floating-point resolution
            break
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_solve_coupled(spec, regime, net, tau1, tau2):
    """``equilibrium.solve_coupled`` with its own outer and inner loops."""
    net.require_core()
    taus = (tau1, tau2)
    gain = window_laws(spec).gain
    edge = [edge_loss_fn(regime, net.c_prime, tau, net.b, net.n_e) for tau in taus]
    core = core_loss_fn(regime, net.C_tilde, net.B, net.n_c)

    def solve_set(m, p_core):
        loss = edge[m]
        return reference_bisect(
            lambda w: gain(w, loss(w) + p_core), 1e-6, 10.0 * net.c_prime * taus[m]
        )

    def windows(p_core):
        return [solve_set(m, p_core) for m in (0, 1)]

    def implied(ws):
        return core(ws[0] / tau1 + ws[1] / tau2)

    ws = windows(0.0)
    p_core = implied(ws)
    if p_core > 0.0:
        lo, hi = 0.0, p_core
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:  # bracket at floating-point resolution
                break
            if implied(windows(mid)) > mid:
                lo = mid
            else:
                hi = mid
        # report the core loss the solved windows actually produce
        p_core = implied(windows(0.5 * (lo + hi)))
        ws = windows(p_core)

    states = []
    for m in (0, 1):
        p_edge = edge[m](ws[m])
        states.append(EquilibriumState(ws[m], p_edge, p_core, gain(ws[m], p_edge + p_core)))
    return states[0], states[1]


def _reference_pair_residuals(problem, Omega, phi):
    d, s = problem.gains()
    ot = Omega * problem.tau
    f1 = problem.omega1 + d * math.sin(ot) + s * math.sin(ot + phi) - Omega
    f2 = problem.omega2 + d * math.sin(ot) + s * math.sin(ot - phi) - Omega
    return f1, f2


def _reference_newton_polish(problem, Omega, phi, scale):
    d, s = problem.gains()
    tau = problem.tau
    for _ in range(60):
        f1, f2 = _reference_pair_residuals(problem, Omega, phi)
        err = max(abs(f1), abs(f2))
        if err <= POLISH_RTOL * scale:
            break
        ot = Omega * tau
        c, cp, cm = math.cos(ot), math.cos(ot + phi), math.cos(ot - phi)
        j11 = d * tau * c + s * tau * cp - 1.0
        j12 = s * cp
        j21 = d * tau * c + s * tau * cm - 1.0
        j22 = -s * cm
        det = j11 * j22 - j12 * j21
        if det == 0.0:
            return None
        d_om = (f1 * j22 - f2 * j12) / det
        d_ph = (j11 * f2 - j21 * f1) / det
        step = 1.0
        for _ in range(25):
            om_n, ph_n = Omega - step * d_om, phi - step * d_ph
            g1, g2 = _reference_pair_residuals(problem, om_n, ph_n)
            if max(abs(g1), abs(g2)) <= err:
                break
            step *= 0.5
        Omega, phi = om_n, ph_n
    f1, f2 = _reference_pair_residuals(problem, Omega, phi)
    if max(abs(f1), abs(f2)) > ACCEPT_RTOL * scale:
        return None
    return Omega, _wrap(phi)


def _reference_make_state(problem, Omega, phi):
    f1, f2 = _reference_pair_residuals(problem, Omega, phi)
    detuning = problem.omega2 - problem.omega1
    _, s = problem.gains()
    phase_res = 2.0 * s * math.sin(phi) * math.cos(Omega * problem.tau) - detuning
    norm = 1.0 + abs(Omega)
    factor = problem.stability_factor(Omega)
    return SyncState(
        Omega=Omega,
        phi0=phi,
        stable=factor < 0.0,
        marginal=factor == 0.0,
        residual_freq=abs(f1) / norm,
        residual_phase=abs(phase_res) / norm,
        order_r=math.cos(phi / 2.0),
    )


def reference_scan_roots(problem, omega_max, n_grid):
    """``sync_solver._scan_roots`` with its 60-step per-cell bisection and its
    former acceptance of polished roots up to ``ACCEPT_RTOL``."""
    d, s = problem.gains()
    detuning = problem.omega2 - problem.omega1
    omega_bar = 0.5 * (problem.omega1 + problem.omega2)
    tau = problem.tau
    scale = max(1.0, abs(problem.omega1), abs(problem.omega2), abs(s), abs(d))

    grid = np.linspace(0.0, omega_max, n_grid + 1)[1:]
    cos_ot = np.cos(grid * tau)
    sin_ot = np.sin(grid * tau)
    with np.errstate(divide="ignore", invalid="ignore"):
        sin_phi = detuning / (2.0 * s * cos_ot)
    feasible = np.isfinite(sin_phi) & (np.abs(sin_phi) <= 1.0)
    sin_phi_cl = np.clip(np.nan_to_num(sin_phi, nan=2.0), -1.0, 1.0)
    cos_phi_mag = np.sqrt(1.0 - sin_phi_cl**2)

    def sin_phi0(om):
        sp = detuning / (2.0 * s * math.cos(om * tau))
        if not math.isfinite(sp):
            sp = 2.0
        return min(1.0, max(-1.0, sp))

    candidates = []
    for sign in (+1.0, -1.0):
        g = omega_bar + d * sin_ot + sign * s * sin_ot * cos_phi_mag - grid

        def g_at(om):
            sp = sin_phi0(om)
            cp = sign * math.sqrt(max(0.0, 1.0 - sp * sp))
            return omega_bar + d * math.sin(om * tau) + s * math.sin(om * tau) * cp - om

        ok = feasible[:-1] | feasible[1:]
        flip = ok & (np.sign(g[:-1]) != np.sign(g[1:]))
        for idx in np.nonzero(flip)[0]:
            lo, hi = grid[idx], grid[idx + 1]
            glo = g[idx]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                gm = g_at(mid)
                if (gm > 0.0) == (glo > 0.0):
                    lo, glo = mid, gm
                else:
                    hi = mid
            om = 0.5 * (lo + hi)
            asin_sp = math.asin(sin_phi0(om))
            phi = asin_sp if sign > 0 else _wrap(math.pi - asin_sp)
            candidates.append((om, phi))
    roots = []
    for om, phi in candidates:
        polished = _reference_newton_polish(problem, om, phi, scale)
        if polished is None:
            continue
        om, phi = polished
        if om <= 0.0 or om > omega_max * (1.0 + 1e-9):
            continue
        if any(abs(om - o) <= 1e-7 * (1.0 + abs(o)) and abs(phi - p) <= 1e-6 for o, p in roots):
            continue
        roots.append((om, phi))
    roots.sort()
    return [_reference_make_state(problem, om, phi) for om, phi in roots]


def reference_solve_sync(problem, n_grid=SCAN_POINTS):
    """``sync_solver.solve_sync`` over ``reference_scan_roots``, on the
    problem's ``omega_max`` range."""
    omega_bar = 0.5 * (problem.omega1 + problem.omega2)
    omega_max = problem.omega_max
    if omega_max is None:
        omega_max = max(4.0 * omega_bar, 4.0 * math.pi / problem.tau)
    if problem.K == 0.0:
        if problem.omega1 == problem.omega2:
            return [_reference_make_state(problem, problem.omega1, 0.0)]
        return []
    return reference_scan_roots(problem, omega_max, n_grid)


def reference_coupling_range(problem, k_values):
    """``sync_solver.coupling_range`` with its ``refine`` closure."""
    ks = sorted(float(k) for k in k_values)
    if not ks:
        raise ValueError("empty coupling sweep")

    def roots_at(k):
        return reference_solve_sync(replace(problem, K=k))

    def none_stable(states):
        return bool(states) and not any(st.stable for st in states)

    def refine(lo, hi, pred):
        for _ in range(REFINE_STEPS):
            mid = 0.5 * (lo + hi)
            if pred(mid):
                hi = mid
            else:
                lo = mid
        return hi

    k_c = None
    k_u = None
    prev_k = None
    prev_all_unstable = None
    for k in ks:
        states = roots_at(k)
        all_unstable = none_stable(states)
        if k_c is None and states:
            if prev_k is None:
                k_c = k
            else:
                k_c = refine(prev_k, k, lambda kk: bool(roots_at(kk)))
        if k_c is not None and k > k_c and k_u is None and all_unstable:
            if prev_all_unstable or prev_k is None or prev_k < k_c:
                k_u = k
            else:
                k_u = refine(prev_k, k, lambda kk: none_stable(roots_at(kk)))
        prev_k, prev_all_unstable = k, all_unstable
        if k_c is not None and k_u is not None:
            break
    return k_c, k_u


def _reference_curve(problem, offsets):
    """K on the locked-state curve at Omega = mean omega + offsets: the
    smallest non-negative root of (S^2 - D^2) K^2 + 2 D Y K - (X^2 + Y^2)
    with (D, S) the gains at K = 1, by the textbook stable quadratic; a large
    finite value where no root exists."""
    d, s = replace(problem, K=1.0).gains()
    offsets = np.asarray(offsets, dtype=float)
    omega_bar = 0.5 * (problem.omega1 + problem.omega2)
    a = (omega_bar + offsets) * problem.tau
    with np.errstate(all="ignore"):
        x = (problem.omega2 - problem.omega1) / (2.0 * np.cos(a))
        y = offsets / np.sin(a)
        qa, qb, qc = s * s - d * d, 2.0 * d * y, -(x * x + y * y)
        disc = qb * qb - 4.0 * qa * qc
        q = -0.5 * (qb + np.copysign(np.sqrt(disc), qb))
        roots = np.stack([q / qa, qc / q]) if qa != 0.0 else (qc / q)[None, :]
        roots = np.where((roots >= 0.0) & np.isfinite(roots), roots, np.inf)
    k = roots.min(axis=0)
    return np.where(np.isfinite(k), k, 1e300)


def _reference_polish(problem, offsets, k):
    """scipy's bounded minimisation of the curve between the sampled
    neighbours of the lowest sample; returns (K, offset)."""
    from scipy.optimize import minimize_scalar

    i = int(np.argmin(k))
    lo = offsets[max(i - 1, 0)]
    hi = offsets[min(i + 1, len(offsets) - 1)]
    centre = offsets[i]
    half = max(centre - lo, hi - centre)

    def f(u):  # u in [-1, 1], so the optimiser's relative tolerance is fine
        t = min(max(centre + u * half, lo), hi)
        return float(_reference_curve(problem, [t])[0])

    res = minimize_scalar(f, bounds=(-1.0, 1.0), method="bounded",
                          options={"xatol": 1e-12, "maxiter": 500})
    best = min((float(k[i]), centre), (float(res.fun), min(max(centre + res.x * half, lo), hi)))
    return best


def reference_critical_coupling(problem, n_dense=1_000_000):
    """(K_c, Omega_c): the minimum of the locked-state curve over
    (0, omega_max], from a dense grid, fine geometric grids on both sides of
    the mean frequency (where a dip about |X| wide sits) and of the
    sin(Omega tau) = 0 poles near it (where narrow bands sit when
    D^2 > S^2), and scipy's bounded minimisation around the best sample of
    each grid.  Zero detuning gives (0.0, mean omega)."""
    omega_bar = 0.5 * (problem.omega1 + problem.omega2)
    if problem.omega1 == problem.omega2:
        return 0.0, omega_bar
    omega_max = problem.omega_max
    if omega_max is None:
        omega_max = max(4.0 * omega_bar, 4.0 * math.pi / problem.tau)
    detuning = abs(problem.omega2 - problem.omega1)
    dense = np.linspace(0.0, omega_max, n_dense + 1)[1:] - omega_bar
    spacing = omega_max / n_dense
    side = np.geomspace(1e-7 * detuning, 4.0 * spacing, 100_001)
    grids = [dense, np.concatenate((-side[::-1], side))]
    period = math.pi / problem.tau
    d, s = replace(problem, K=1.0).gains()
    reach = 2.0 * period + 2.0 * abs(d / s) * detuning
    side = np.geomspace(1e-9 * period, period, 20_001)
    for n in range(max(1, math.ceil((omega_bar - reach) / period)),
                   math.floor(min(omega_bar + reach, omega_max) / period) + 1):
        grids.append(n * period - omega_bar + np.concatenate((-side[::-1], side)))
    # the dense grid lies inside by construction, its end at omega_max too
    grids[1:] = [g[(omega_bar + g > 0.0) & (omega_bar + g <= omega_max)] for g in grids[1:]]
    best = min(_reference_polish(problem, grid, _reference_curve(problem, grid))
               for grid in grids if len(grid))
    return best[0], omega_bar + best[1]


def reference_state_on_curve(problem, K, omega_c):
    """A locked state (Omega, phi0) at coupling K built from the curve: the
    crossing K(Omega) = K next to the curve's minimum at ``omega_c``, then
    phi0 from K S sin(phi0) = X and K (D + S cos(phi0)) = Y.  None when the
    curve stays above K there."""
    omega_bar = 0.5 * (problem.omega1 + problem.omega2)
    t_c = omega_c - omega_bar

    def excess(t):
        return float(_reference_curve(problem, [t])[0]) - K

    if excess(t_c) > 0.0:
        return None
    step = 1e-12 * (1.0 + abs(omega_c))
    while excess(t_c + step) <= 0.0:
        step *= 2.0
        if step > omega_c:
            return None
    t = plain_bisect(excess, t_c, t_c + step)
    omega = omega_bar + t
    a = omega * problem.tau
    d, s = replace(problem, K=K).gains()
    x = (problem.omega2 - problem.omega1) / (2.0 * math.cos(a))
    y = t / math.sin(a)
    return omega, math.atan2(x / s, (y - d) / s)


# --------------------------------------------------------------------------
# the four simulators as each wired its own step, history, window equation
# and metadata; ``dde_sim``'s shared run path is held to them bit for bit


def _reference_resolve_dt(cfg, delays):
    return min(delays) / STEPS_PER_DELAY if cfg.dt is None else cfg.dt


def _reference_history_fn(cfg, default_fn):
    return default_fn if cfg.history is None else cfg.history


def reference_simulate_fluid_single(spec, regime, net, cfg):
    """Window trajectory of one set of flows behind its edge queue."""
    eq = solve_single(spec, regime, net)
    dt = _reference_resolve_dt(cfg, [net.tau])
    kick = _kick_tuple(cfg.kick, 1)
    history = _reference_history_fn(cfg, lambda t: (eq.w_star * kick[0],))
    loss = edge_loss_fn(regime, net.c_prime, net.tau, net.b, net.n_e)
    gain = window_laws(spec).gain
    inv_tau = 1.0 / net.tau

    def rhs(t, y, ylag):
        if y[0] <= W_FLOOR:
            raise SimulationError(f"window left the model domain at t={t:.6g}")
        wl = ylag[0]
        return ((wl * inv_tau) * gain(y[0], loss(wl)),)

    ys = reference_integrate_dde(rhs, [net.tau], history, cfg.horizon, dt, floor=W_FLOOR)
    w = ys[0]
    p = loss_at(loss, w)
    meta = {
        "model": f"fluid-single-{regime}",
        "protocol": asdict(spec),
        "network": asdict(net),
        "w_star": eq.w_star,
        "dt": dt,
        "horizon": cfg.horizon,
        "transient_fraction": cfg.transient_fraction,
    }
    return Trace(0.0, dt, {"w": w, "p": p}, meta)


def reference_simulate_fluid_linearized(spec, regime, net, cfg):
    """Perturbation trajectory of the linearised single-set model."""
    eq = solve_single(spec, regime, net)
    a, c = delay_coefficients(spec, regime, net, eq)
    dt = _reference_resolve_dt(cfg, [net.tau])
    kick = _kick_tuple(cfg.kick, 1)
    u0 = (kick[0] - 1.0) * eq.w_star
    if cfg.history is None and u0 == 0.0:
        u0 = 0.01 * eq.w_star  # a flat zero history would stay identically zero
    history = _reference_history_fn(cfg, lambda t: (u0,))

    def rhs(t, y, ylag):
        return (-a * y[0] - c * ylag[0],)

    ys = reference_integrate_dde(rhs, [net.tau], history, cfg.horizon, dt)
    meta = {
        "model": f"fluid-linearized-{regime}",
        "protocol": asdict(spec),
        "network": asdict(net),
        "a": a,
        "c": c,
        "w_star": eq.w_star,
        "dt": dt,
        "horizon": cfg.horizon,
        "transient_fraction": cfg.transient_fraction,
    }
    return Trace(0.0, dt, {"dw": ys[0]}, meta)


def reference_simulate_fluid_coupled(spec, regime, net, tau1, tau2, cfg):
    """Window trajectories of two sets sharing the core queue."""
    eq1, eq2 = solve_coupled(spec, regime, net, tau1, tau2)
    dt = _reference_resolve_dt(cfg, [tau1, tau2])
    kick = _kick_tuple(cfg.kick, 2)
    history = _reference_history_fn(cfg, lambda t: (eq1.w_star * kick[0], eq2.w_star * kick[1]))
    net.require_core()
    loss1 = edge_loss_fn(regime, net.c_prime, tau1, net.b, net.n_e)
    loss2 = edge_loss_fn(regime, net.c_prime, tau2, net.b, net.n_e)
    core = core_loss_fn(regime, net.C_tilde, net.B, net.n_c)
    gain = window_laws(spec).gain
    inv1, inv2 = 1.0 / tau1, 1.0 / tau2

    def rhs(t, y, ylag):
        w1, w2 = y
        if w1 <= W_FLOOR or w2 <= W_FLOOR:
            raise SimulationError(f"window left the model domain at t={t:.6g}")
        w1l, w2l = ylag
        pc = core(w1l * inv1 + w2l * inv2)
        p1 = min(1.0, loss1(w1l) + pc)
        p2 = min(1.0, loss2(w2l) + pc)
        return ((w1l * inv1) * gain(w1, p1), (w2l * inv2) * gain(w2, p2))

    ys = reference_integrate_dde(rhs, [tau1, tau2], history, cfg.horizon, dt, floor=W_FLOOR)
    w1, w2 = ys
    p1 = loss_at(loss1, w1)
    p2 = loss_at(loss2, w2)
    pc = loss_at(core, w1 / tau1 + w2 / tau2)
    meta = {
        "model": f"fluid-coupled-{regime}",
        "protocol": asdict(spec),
        "network": asdict(net),
        "tau1": tau1,
        "tau2": tau2,
        "w_star": [eq1.w_star, eq2.w_star],
        "dt": dt,
        "horizon": cfg.horizon,
        "transient_fraction": cfg.transient_fraction,
    }
    return Trace(0.0, dt, {"w1": w1, "w2": w2, "p1": p1, "p2": p2, "p_core": pc}, meta)


def reference_simulate_phase_oscillators(params, cfg):
    """Integrate a two-oscillator phase model; returns unwrapped phases plus
    the order-parameter series r(t), psi(t)."""
    om1, om2 = params.omega
    dt = _reference_resolve_dt(cfg, params.tau)
    history = _reference_history_fn(cfg, lambda t: (om1 * t, om2 * t))
    (m11, m12), (m21, m22) = params.coupling

    def rhs(t, y, ylag):
        th1, th2 = y
        l1, l2 = ylag
        return (
            om1 + m11 * math.sin(l1 - th1) + m12 * math.sin(l2 - th1),
            om2 + m21 * math.sin(l1 - th2) + m22 * math.sin(l2 - th2),
        )

    ys = reference_integrate_dde(rhs, list(params.tau), history, cfg.horizon, dt)
    th1, th2 = ys
    r, psi = order_parameter(th1, th2)
    meta = params.as_meta() | {
        "dt": dt,
        "horizon": cfg.horizon,
        "transient_fraction": cfg.transient_fraction,
    }
    return Trace(0.0, dt, {"theta1": th1, "theta2": th2, "r": r, "psi": psi}, meta)
