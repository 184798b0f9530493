"""Seed-driven job generators for the four benchmark workloads.

Nothing here imports tcpsync: every input is drawn from a documented
parameter box with numpy's PCG64 generator, so the same seed gives the same
job list and the program never chooses its own inputs.  Continuous
parameters are drawn by Latin-hypercube sampling over the whole job list and
categorical ones (variant, regime, model, buffer rule) cycle in fixed
blocks, so two seeds differ in where inside the box each job sits but never
in the mix of job kinds.  Configurations are never filtered after drawing.

A job is a JSON-serialisable dict.  ``kind`` selects how the worker runs it:

* ``cli``: one or more ``tcpsync.cli.main(argv)`` calls; each call carries
  the configuration it reads, which the worker writes before timing starts;
* ``lock``: ``solve_sync`` + ``simulate_phase_oscillators`` +
  ``measure_lock`` through the library.
"""

import math

import numpy as np

#: per-workload parameter boxes, recorded in every results record
BOXES = {
    "analyze": {
        "variant": "cycled over compound, reno, illinois",
        "regime": "cycled over small-buffer, intermediate",
        "edge_capacity_per_flow_pkts_per_s": "log-uniform 50..5000 (the fig1-coherence range)",
        "core_capacity_factor": "uniform 1.5..1.97",
        "rtt_ms": "rtt1 uniform 20..200, rtt2 = rtt1 * uniform 1..1.1 (weak detuning)",
        "small-buffer buffers": "edge uniform 5..30 pkts, core uniform 15..60 pkts (tens of packets)",
        "intermediate buffers": "capacity * 250 ms / sqrt(n) with 10 flows per set, 20 at the core",
        "coupling_sweep": "one job in six, once per variant x regime in every 36 jobs: "
                          "80 points over K = 0..40 per s",
        "why": "fig1 range for capacity; both regimes and all variants so every "
               "branch of the equilibrium and sync code runs",
    },
    "lock-ensemble": {
        "regime": "alternating intermediate-equal, small-equal reductions",
        "tau_s": "uniform 0.06..0.14",
        "omega": "uniform 0.55..0.9 * pi / tau (cos(omega tau) < 0: the stable side)",
        "K": "intermediate: uniform 0.08..0.25 * omega; small: cross gain "
             "K B / 2 = uniform 0.08..0.25 * omega",
        "core_buffer_pkts": "cycled over 15, 20, 25, 30 (small-equal only)",
        "edge_buffer_pkts": "uniform 2..0.45 B (small-equal only)",
        "detuning": "uniform -0.5..0.5 of the locking room 2 S |cos(omega tau)|",
        "dt": "tau / 400",
        "horizon": "1.2 * max(60 periods of the mean frequency, 16 / relaxation rate "
                   "evaluated at the mean frequency)",
        "why": "the criterion-4 box: short lock runs whose time is the per-step "
               "loop of integrate_dde",
    },
    "fluid-traces": {
        "model": "cycled over single, linearized, coupled",
        "regime": "small-buffer for the first three jobs of a block, intermediate after",
        "variant": "cycled over compound, reno, illinois, offset from the model",
        "edge_capacity_per_flow_pkts_per_s": "log-uniform 80..400 (spans both sides "
                                             "of the stability boundary at these delays)",
        "rtt_ms": "rtt1 uniform 50..200, rtt2 = rtt1 * uniform 1..1.1",
        "buffers": "as in analyze",
        "kick": "1.05 (a 5% perturbation of the equilibrium history)",
        "horizon": "200 smallest delays: 100000 steps at the default dt = tau_min / 500",
        "format": "alternating csv, json",
        "phase call": "one simulate-phase per job, lock-ensemble box, horizon 40 tau "
                      "(20000 steps at the default dt)",
        "why": "long single trajectories through the tuple path plus large trace files",
    },
    "packets": {
        "topology": "desk-scale two-edge/one-core preset geometry (16.7 Mbps edges, "
                    "32.8 Mbps core, 10 flows per set)",
        "rtt_ms": "cycled over the fig6..fig9 pairs 5/10, 50/55, 100/110, 180/200, "
                  "both scaled by uniform 0.9..1.1",
        "first job": "exactly fig6-queues/buf15: rtt 5/10 ms, 15-packet buffers, compound",
        "buffers": "cycled over 15, 100 and the dimensioning rule (edge 110, core 153)",
        "variant": "cycled over compound, reno, illinois",
        "duration_s": "10 simulated seconds",
        "seed": "start-time seed drawn uniformly from 0..2^31",
        "why": "the heap event loop of run_scenario at every preset buffer, including "
               "the fig6/buf15 point where flows die silently",
    },
}

WORKLOADS = tuple(BOXES)

#: jobs per block, and seconds one block takes at the baseline commit;
#: a list holds whole blocks so every seed runs the same mix of job kinds
BLOCK = {"analyze": 36, "lock-ensemble": 2, "fluid-traces": 6, "packets": 36}
BLOCK_SECONDS = {"analyze": 7.5, "lock-ensemble": 1.05, "fluid-traces": 9.0, "packets": 12.0}

VARIANTS = ("compound", "reno", "illinois")
SMALL, INTER = "small-buffer", "intermediate"


def list_size(workload, seconds, jobs=None):
    """Jobs in one list: ``jobs`` when given, else the whole blocks that fill
    ``seconds`` at the baseline commit (at least one)."""
    if jobs is not None:
        return max(1, jobs)
    return BLOCK[workload] * max(1, int(seconds / BLOCK_SECONDS[workload]))


def _lhs(rng, groups, names):
    """Latin-hypercube columns stratified within each group of jobs.

    ``groups[j]`` is job j's category; for every name the jobs of one
    category get one point in each of their strata of [0, 1), so every seed
    spreads each category over the whole box.
    """
    cols = {name: np.empty(len(groups)) for name in names}
    for g in dict.fromkeys(groups):
        idx = np.array([j for j, gj in enumerate(groups) if gj == g])
        for name in names:
            cols[name][idx] = (rng.permutation(len(idx)) + rng.random(len(idx))) / len(idx)
    return cols


def _log_uniform(u, lo, hi):
    return float(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))


def _uniform(u, lo, hi):
    return float(lo + u * (hi - lo))


def _dimensioning(capacity_pkts, n_flows, rtt=0.250):
    return float(max(1, round(capacity_pkts * rtt / math.sqrt(n_flows))))


def _network(regime, cp, fac, r1, r2, u_b, u_bc):
    if regime == SMALL:
        b, big_b = _uniform(u_b, 5.0, 30.0), _uniform(u_bc, 15.0, 60.0)
    else:
        b = _dimensioning(10.0 * cp, 10)
        big_b = _dimensioning(10.0 * fac * cp, 20)
    return {
        "edge_capacity_per_flow_pkts_per_s": cp,
        "core_capacity_factor": fac,
        "rtt_ms": [r1, r2],
        "edge_buffer_pkts": b,
        "core_buffer_pkts": big_b,
    }


def _has_sweep(j):
    # one job in six, and within each block of 36 once per variant x regime
    return (j // 6) % 6 == j % 6


def analyze_jobs(rng, n):
    groups = [(j % 6, _has_sweep(j)) for j in range(n)]
    cols = _lhs(rng, groups, ("cp", "fac", "r1", "ratio", "b", "B"))
    jobs = []
    for j in range(n):
        combo = j % 6
        regime = SMALL if combo < 3 else INTER
        r1 = _uniform(cols["r1"][j], 20.0, 200.0)
        cfg = {
            "protocol": {"variant": VARIANTS[combo % 3]},
            "regime": regime,
            "network": _network(
                regime,
                _log_uniform(cols["cp"][j], 50.0, 5000.0),
                _uniform(cols["fac"][j], 1.5, 1.97),
                r1, r1 * _uniform(cols["ratio"][j], 1.0, 1.1),
                cols["b"][j], cols["B"][j],
            ),
        }
        if _has_sweep(j):
            cfg["coupling_sweep"] = {"from": 0.0, "to": 40.0, "count": 80}
        jobs.append({"kind": "cli", "calls": [
            {"argv": ["analyze", "--config", "{config}", "--out", "{out}"], "config": cfg},
        ]})
    return jobs


def _phase_draw(regime, u):
    """One equal-coupling phase problem from the criterion-4 box.

    ``u`` holds six unit draws.  Returns the problem parameters plus the
    relaxation rate at the mean frequency, used only to size the horizon.
    """
    tau = _uniform(u[0], 0.06, 0.14)
    om = _uniform(u[1], 0.55, 0.9) * math.pi / tau
    frac = _uniform(u[2], 0.08, 0.25)
    if regime == INTER:
        big_b = b = None
        k = frac * om
        s_gain = k
        rate = 2.0 * k * abs(math.cos(om * tau))
    else:
        big_b = (15.0, 20.0, 25.0, 30.0)[min(3, int(u[3] * 4))]
        b = _uniform(u[4], 2.0, 0.45 * big_b)
        s_gain = frac * om
        k = 2.0 * s_gain / big_b
        rate = abs(k * (big_b - b) * math.cos(om * tau))
    room = 2.0 * s_gain * abs(math.cos(om * tau))
    delta = _uniform(u[5], -0.5, 0.5) * room
    return {
        "regime": regime, "omega1": om - delta / 2.0, "omega2": om + delta / 2.0,
        "K": k, "tau": tau, "B": big_b, "b": b,
    }, om, rate


def lock_jobs(rng, n):
    cols = _lhs(rng, [j % 2 for j in range(n)], range(6))
    jobs = []
    for j in range(n):
        regime = INTER if j % 2 == 0 else SMALL
        prob, om, rate = _phase_draw(regime, [cols[i][j] for i in range(6)])
        horizon = 1.2 * max(60.0 * 2.0 * math.pi / om, 16.0 / max(rate, 1e-6))
        jobs.append({"kind": "lock", "problem": prob, "horizon": horizon,
                     "dt": prob["tau"] / 400.0})
    return jobs


FLUID_STEPS = 100_000
PHASE_STEPS = 20_000
STEPS_PER_DELAY = 500


def fluid_jobs(rng, n):
    names = ("cp", "fac", "r1", "ratio", "b", "B") + tuple(f"p{i}" for i in range(6))
    cols = _lhs(rng, [j % 6 for j in range(n)], names)
    jobs = []
    for j in range(n):
        model = ("single", "linearized", "coupled")[j % 3]
        regime = SMALL if (j // 3) % 2 == 0 else INTER
        variant = VARIANTS[(j % 3 + j // 6) % 3]
        fmt = ("csv", "json")[j % 2]
        r1 = _uniform(cols["r1"][j], 50.0, 200.0)
        r2 = r1 * _uniform(cols["ratio"][j], 1.0, 1.1)
        tau_min = (min(r1, r2) if model == "coupled" else r1) / 1000.0
        fluid = {
            "model": model,
            "protocol": {"variant": variant},
            "regime": regime,
            "network": _network(
                regime,
                _log_uniform(cols["cp"][j], 80.0, 400.0),
                _uniform(cols["fac"][j], 1.5, 1.97),
                r1, r2, cols["b"][j], cols["B"][j],
            ),
            "horizon_s": FLUID_STEPS * tau_min / STEPS_PER_DELAY,
            "kick": 1.05,
        }
        prob, _, _ = _phase_draw(regime, [cols[f"p{i}"][j] for i in range(6)])
        phase = {
            "model": "small-equal" if regime == SMALL else "intermediate-equal",
            "omega_rad_per_s": [prob["omega1"], prob["omega2"]],
            "K_per_s": prob["K"],
            "tau_s": prob["tau"],
            "horizon_s": PHASE_STEPS * prob["tau"] / STEPS_PER_DELAY,
        }
        if regime == SMALL:
            phase["core_buffer_pkts"] = prob["B"]
            phase["edge_buffer_pkts"] = prob["b"]
        jobs.append({"kind": "cli", "calls": [
            {"argv": ["simulate-fluid", "--config", "{config}", "--out", "{out}",
                      "--format", fmt], "config": fluid},
            {"argv": ["simulate-phase", "--config", "{config}", "--out", "{out}",
                      "--format", fmt], "config": phase},
        ]})
    return jobs


#: desk-scale preset geometry (see tcpsync.presets), restated here so the
#: generator stays independent of the program
EDGE_MBPS = 100.0 / 6.0
CORE_MBPS = 197.0 / 6.0
FLOWS = 10
PACKET_DURATION_S = 10.0
#: round-trip pairs of the fig6..fig9 queue presets
PRESET_RTTS_MS = ((5.0, 10.0), (50.0, 55.0), (100.0, 110.0), (180.0, 200.0))


def _packet_config(rtts, edge_buf, core_buf, variant, seed):
    group = {"count": FLOWS, "protocol": {"variant": variant}, "access_mbps": 2.0}
    return {
        "kind": "packet",
        "topology": {
            "edge_capacity_mbps": [EDGE_MBPS, EDGE_MBPS],
            "core_capacity_mbps": CORE_MBPS,
            "edge_buffer_pkts": [edge_buf, edge_buf],
            "core_buffer_pkts": core_buf,
            "packet_bytes": 1500,
        },
        "groups": [dict(group, rtt_ms=rtts[0], edge=0), dict(group, rtt_ms=rtts[1], edge=1)],
        "duration_s": PACKET_DURATION_S,
        "seed": seed,
        "sample_dt_ms": 20.0,
    }


def packet_jobs(rng, n):
    edge_pkts = EDGE_MBPS * 1e6 / (8 * 1500)
    core_pkts = CORE_MBPS * 1e6 / (8 * 1500)
    rule = (_dimensioning(edge_pkts, FLOWS), _dimensioning(core_pkts, 2 * FLOWS))
    cols = _lhs(rng, [j % 4 for j in range(n)], ("scale",))
    seeds = rng.integers(0, 2**31, size=n)
    jobs = []
    for j in range(n):
        pair = PRESET_RTTS_MS[j % 4]
        # the first job is exactly the fig6-queues/buf15 point
        scale = 1.0 if j == 0 else _uniform(cols["scale"][j], 0.9, 1.1)
        bufs = ((15.0, 15.0), (100.0, 100.0), rule)[(j // 4) % 3]
        variant = VARIANTS[(j // 12) % 3]
        rtts = (pair[0] * scale, pair[1] * scale)
        cfg = _packet_config(rtts, bufs[0], bufs[1], variant, int(seeds[j]))
        jobs.append({"kind": "cli", "calls": [
            {"argv": ["simulate-packets", "--config", "{config}", "--out", "{out}"],
             "config": cfg},
        ]})
    return jobs


GENERATORS = {
    "analyze": analyze_jobs,
    "lock-ensemble": lock_jobs,
    "fluid-traces": fluid_jobs,
    "packets": packet_jobs,
}


def make_jobs(workload, seed, n):
    """The job list of one run: ``n`` jobs drawn from ``seed``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return GENERATORS[workload](rng, n)
