"""Independent oracles used by the test suite.

Everything here is deliberately written from first principles, separate from
the package's own numerics: plain bisection, brute-force grid searches, an
argument-principle root counter for delay characteristic functions,
symbolic differentiation, the sync solver's former per-regime stability
rule, the per-step Heun loop the DDE integrator is held bit-identical to,
the one-row-at-a-time trace writers the streamed ones are held
byte-identical to, and the packet event loop with explicit service events
that the Lindley routers are held to.  Tests compare package results against
these.
"""

import cmath
import heapq
import json
import math
from collections import deque

import numpy as np

from tcpsync.errors import SimulationError
from tcpsync.packet_sim import DUPACK_DETECT, ScenarioResult, _Flow, _on_ack, _on_loss
from tcpsync.trace import Trace


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


def rightmost_crossing_frequency(a, c, tau, omega_hi=None, n=200001):
    """Imaginary parts where the characteristic function nearly vanishes on
    the imaginary axis (for marginal cases); brute scan refinement."""
    f = char_function(a, c, tau)
    if omega_hi is None:
        omega_hi = 2.0 * (a + c) + 1.0
    omegas = np.linspace(0.0, omega_hi, n)
    mags = np.array([abs(f(1j * om)) for om in omegas])
    k = int(np.argmin(mags))
    return omegas[k]


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
    ``dde_sim.integrate_dde``: same arguments, same operations in the same
    order, so the two agree bit for bit."""
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
                    _on_loss(flow)
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
            _on_ack(flow)
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
                        _on_loss(flow)
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
