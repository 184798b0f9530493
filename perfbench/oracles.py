"""Per-job output checks from independent oracles.

Nothing here imports tcpsync.  The model laws are restated from the paper's
formulas (and the README's parameter defaults) so that a wrong formula in
the program cannot also make its check pass.  Each check returns a list of
(check name, message) failures; an empty list means the output is correct.
Checks run in the parent process, after the worker has stopped the clock.
"""

import json
import math
from pathlib import Path

import numpy as np

from workloads import STEPS_PER_DELAY

#: default protocol parameters (README / ProtocolSpec defaults)
COMPOUND = {"alpha": 0.125, "beta": 0.5, "k": 0.75}
ILLINOIS = {"alpha_max": 10.0, "beta_min": 0.125}

RESIDUAL_TOL = 1e-10
ROOT_TOL = 1e-8
SUBSTITUTION_TOL = 1e-8


def increase(variant, w):
    if variant == "compound":
        return COMPOUND["alpha"] * w ** (COMPOUND["k"] - 1.0)
    if variant == "reno":
        return 1.0 / w
    return ILLINOIS["alpha_max"] / w


def decrease(variant, w):
    if variant == "compound":
        return COMPOUND["beta"] * w
    if variant == "reno":
        return 0.5 * w
    return ILLINOIS["beta_min"] * w


def balance(variant, w, p):
    return increase(variant, w) * (1.0 - p) - decrease(variant, w) * p


def edge_loss(regime, w, c_prime, tau, b):
    cap = c_prime * tau
    if regime == "small-buffer":
        return min(1.0, (w / cap) ** b)
    return (w - cap) / w if w > cap else 0.0


def core_loss(regime, w1, w2, tau1, tau2, c_tilde, big_b):
    agg = w1 / tau1 + w2 / tau2
    if regime == "small-buffer":
        return min(1.0, (agg / c_tilde) ** big_b)
    return (agg - c_tilde) / agg if agg > c_tilde else 0.0


# -------------------------------------------------------------------- analyze


def check_analyze(cfg, out):
    """Residuals, coupled windows against scipy.optimize.root, back-substitution
    of every locked state and the order-parameter identity."""
    from scipy.optimize import root

    fails = []
    rep = json.loads((Path(out) / "report.json").read_text())
    variant, regime = cfg["protocol"]["variant"], cfg["regime"]
    net = cfg["network"]
    cp = net["edge_capacity_per_flow_pkts_per_s"]
    c_tilde = net["core_capacity_factor"] * cp
    b, big_b = net["edge_buffer_pkts"], net["core_buffer_pkts"]
    taus = [r / 1000.0 for r in net["rtt_ms"]]

    for m, row in enumerate(rep["per_set"]):
        w = row["w_star_pkts"]
        res = balance(variant, w, edge_loss(regime, w, cp, taus[m], b))
        if not (abs(res) <= RESIDUAL_TOL and abs(row["residual"]) <= RESIDUAL_TOL):
            fails.append(("per_set_residual", f"set {m}: oracle {res:.3g}, "
                                              f"reported {row['residual']:.3g}"))

    ce = rep["coupled_equilibrium"]
    w_rep, p_core = ce["w_star_pkts"], ce["p_core"]
    for m in (0, 1):
        res = balance(variant, w_rep[m], edge_loss(regime, w_rep[m], cp, taus[m], b) + p_core)
        if not (abs(res) <= RESIDUAL_TOL and abs(ce["residuals"][m]) <= RESIDUAL_TOL):
            fails.append(("coupled_residual", f"set {m}: oracle {res:.3g}, "
                                              f"reported {ce['residuals'][m]:.3g}"))

    def system(x):
        w1, w2 = x[0] * w_rep[0], x[1] * w_rep[1]
        if w1 <= 0.0 or w2 <= 0.0:
            return [1.0, 1.0]
        pc = core_loss(regime, w1, w2, taus[0], taus[1], c_tilde, big_b)
        return [balance(variant, w, edge_loss(regime, w, cp, tau, b) + pc) / increase(variant, w)
                for w, tau in ((w1, taus[0]), (w2, taus[1]))]

    # started 1% off; hybr may stop at machine precision with success=False
    sol = root(system, [1.01, 0.99], method="hybr", options={"xtol": 1e-13})
    if any(abs(x - 1.0) > ROOT_TOL for x in sol.x):
        fails.append(("coupled_vs_scipy_root",
                      f"root {sol.x[0] * w_rep[0]!r}, {sol.x[1] * w_rep[1]!r} vs reported "
                      f"{w_rep[0]!r}, {w_rep[1]!r} ({sol.message})"))

    om1, om2 = (row["omega_rad_per_s"] for row in rep["per_set"])
    k = rep["coupling"]["K_per_s"]
    tau = 0.5 * (taus[0] + taus[1])
    if regime == "small-buffer":
        s_gain, d_gain = k * big_b / 2.0, k * (big_b / 2.0 - b)
    else:
        s_gain = d_gain = k
    scale = max(1.0, abs(om1), abs(om2), abs(s_gain), abs(d_gain))
    for st in rep["sync"]["roots"]:
        om, phi = st["Omega_rad_per_s"], st["phi0_rad"]
        f1 = om1 + d_gain * math.sin(om * tau) + s_gain * math.sin(om * tau + phi) - om
        f2 = om2 + d_gain * math.sin(om * tau) + s_gain * math.sin(om * tau - phi) - om
        if max(abs(f1), abs(f2)) > SUBSTITUTION_TOL * scale:
            fails.append(("root_back_substitution",
                          f"Omega={om!r} phi0={phi!r}: residuals {f1:.3g}, {f2:.3g}"))
    entries = list(rep["sync"]["roots"])
    entries += [e for e in (rep["sync"]["selected"], rep["sync"]["selected_inphase"]) if e]
    for st in entries:
        if st["order_r"] != math.cos(st["phi0_rad"] / 2.0):
            fails.append(("order_r_identity", f"order_r={st['order_r']!r} for "
                                              f"phi0={st['phi0_rad']!r}"))
    return fails, {}


# -------------------------------------------------------------------- refusals


def _edge_window(variant, regime, cp, tau, b):
    """Equilibrium window of one set under its edge loss alone."""
    from scipy.optimize import brentq

    def f(w):
        return balance(variant, w, edge_loss(regime, w, cp, tau, b))

    hi = 10.0 * cp * tau
    while f(hi) > 0.0:
        hi *= 2.0
    return brentq(f, 1e-9, hi, xtol=1e-15, rtol=1e-15, maxiter=500)


def _radicand(variant, regime, p, b):
    """The paper's closed-form frequency radicand of one set (smooth traffic)."""
    damping = (COMPOUND["k"] - 2.0) ** 2 if variant == "compound" else 4.0
    if regime == "small-buffer":
        return b * b - damping * (1.0 - p) ** 2
    return 1.0 - damping * p * p


def refusal_reason(cfg):
    """Why the program may refuse this analyze or simulate-fluid configuration
    with a typed numerical error (exit code 2), or None when it must not.

    Two classes are accepted, both decided from the model laws alone:
    ``infeasible_frequency``, where a set's radicand is not positive at its
    edge-only equilibrium, so it has no intrinsic frequency; and
    ``core_overload``, a coupled Compound solve where the two sets'
    edge-only windows would already lose half their packets or more at the
    core, which drives the Compound window towards zero.  Any other refusal
    counts as a wrong output.
    """
    variant, regime = cfg["protocol"]["variant"], cfg["regime"]
    net = cfg["network"]
    cp = net["edge_capacity_per_flow_pkts_per_s"]
    b, big_b = net["edge_buffer_pkts"], net["core_buffer_pkts"]
    taus = [r / 1000.0 for r in net["rtt_ms"]]
    ws = [_edge_window(variant, regime, cp, tau, b) for tau in taus]
    for w, tau in zip(ws, taus):
        if _radicand(variant, regime, edge_loss(regime, w, cp, tau, b), b) <= 0.0:
            return "infeasible_frequency"
    if variant != "compound" or cfg.get("model", "coupled") != "coupled":
        return None
    c_tilde = net["core_capacity_factor"] * cp
    if core_loss(regime, ws[0], ws[1], taus[0], taus[1], c_tilde, big_b) >= 0.5:
        return "core_overload"
    return None


# --------------------------------------------------------------- lock-ensemble


def check_lock(job, result):
    """Criterion 4: when a stable locked state is predicted, the simulated
    pair locks onto one (Omega within 1%, phi0 within 2% or 0.02 rad)."""
    stable = [r for r in result["roots"] if r["stable"]]
    lock = result["lock"]
    if not stable:
        return [], {}
    for st in stable:
        tol_phi = 0.02 * abs(st["phi0"]) if abs(st["phi0"]) >= 0.1 else 0.02
        if (lock["locked"] and abs(lock["Omega"] - st["Omega"]) <= 0.01 * st["Omega"]
                and abs(lock["phi0"] - st["phi0"]) <= tol_phi):
            return [], {}
    return [("criterion4_lock_match",
             f"measured Omega={lock['Omega']:.6g} phi0={lock['phi0']:.6g} "
             f"locked={lock['locked']} matches no stable root "
             f"{[(r['Omega'], r['phi0']) for r in stable]}")], {}


# ---------------------------------------------------------------- fluid-traces


def _read_trace(path):
    """Channel name -> array, from a CSV or JSON trace file."""
    if path.suffix == ".csv":
        with open(path) as fh:
            names = fh.readline().strip().split(",")
        arr = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        return {n: arr[:, i] for i, n in enumerate(names)}
    obj = json.loads(path.read_text())
    return {n: np.asarray(v, dtype=float) for n, v in obj["data"].items()}


def _expected_rows(horizon, tau_min):
    return int(round(horizon / (tau_min / STEPS_PER_DELAY))) + 1


def check_fluid(job, out):
    """Both traces parse back with n_steps + 1 rows; fluid windows are finite
    and positive (the linearised model's perturbation only finite)."""
    fails = []
    steps = 0
    out = Path(out)
    fluid, phase = job["calls"][0]["config"], job["calls"][1]["config"]
    fmt = job["calls"][0]["argv"][-1]
    model = fluid["model"]
    rtts = [r / 1000.0 for r in fluid["network"]["rtt_ms"]]
    tau_min = min(rtts) if model == "coupled" else rtts[0]
    channels = {"single": ["w"], "linearized": ["dw"], "coupled": ["w1", "w2"]}[model]
    for name, horizon, tmin, chans, positive in (
        (f"fluid-{model}.{fmt}", fluid["horizon_s"], tau_min, channels, model != "linearized"),
        (f"phase-{phase['model']}.{fmt}", phase["horizon_s"], phase["tau_s"],
         ["theta1", "theta2"], False),
    ):
        data = _read_trace(out / name)
        rows = _expected_rows(horizon, tmin)
        got = len(next(iter(data.values())))
        if got != rows:
            fails.append(("trace_rows", f"{name}: {got} rows, expected {rows}"))
        for ch in chans:
            x = data[ch]
            if not np.all(np.isfinite(x)) or (positive and not np.all(x > 0.0)):
                fails.append(("trace_windows", f"{name}: channel {ch} not finite and positive"))
        steps += got - 1
    return fails, {"steps": steps}


# --------------------------------------------------------------------- packets


def check_packets(job, reply, out):
    """sent = delivered + dropped + in_network at every conservation sample and
    at the end; every router's utilisation lies in [0, 1].  When the worker
    could not capture the samples, the per-sample check is reported missing
    and the end counters are still checked."""
    fails, missing = [], []
    cons = reply.get("conservation")
    if cons is None:
        missing.append("conservation_samples")
    else:
        bad = [k for k, (s, d, x, n) in enumerate(zip(cons["sent"], cons["delivered"],
                                                      cons["dropped"], cons["in_network"]))
               if s != d + x + n]
        if bad:
            fails.append(("conservation_samples",
                          f"{len(bad)} samples violate, first at {bad[0]}"))
    summary = json.loads((Path(out) / "summary.json").read_text())
    c = summary["counters"]
    if c["sent"] != c["delivered"] + c["dropped"] + c["in_network"]:
        fails.append(("conservation_end", f"counters {c}"))
    util = summary["utilization"]
    if not all(0.0 <= u <= 1.0 for u in util.values()):
        fails.append(("utilization_range", f"{util}"))
    facts = {"sent": int(c["sent"]), "sim_s": float(job["calls"][0]["config"]["duration_s"]),
             "missing_checks": missing}
    return fails, facts
