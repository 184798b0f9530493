"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is
pinned here; nothing defers to later calibration.
"""

import json
import math
import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
import numpy as np
import pytest

from tcpsync.dde_sim import (
    DdeConfig,
    estimate_limit_cycle,
    measure_lock,
    phase_model_equal,
    simulate_fluid_coupled,
    simulate_phase_oscillators,
)
from tcpsync.equilibrium import EquilibriumState, solve_coupled, solve_single
from tcpsync.linear_analysis import (
    closed_form_coupling,
    closed_form_frequency,
    coupled_symmetric_coefficients,
    coupling_strength,
    crossing_frequency,
    intrinsic_frequency,
)
from tcpsync.loss_models import INTERMEDIATE, SMALL_BUFFER, NetworkParams, core_loss, edge_loss
from tcpsync.packet_sim import queue_oscillation
from tcpsync.presets import get_preset
from tcpsync.protocols import ProtocolSpec, decrease_fn, increase_fn, window_laws
from tcpsync.sync_solver import SyncProblem, solve_sync
from tcpsync.cli import _build_scenario, cmd_sweep

from oracles import count_rhp_roots, plain_bisect

SPECS = [ProtocolSpec.compound(), ProtocolSpec.reno(), ProtocolSpec.illinois()]
REGIMES = [SMALL_BUFFER, INTERMEDIATE]


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def constructed_equilibrium(spec, regime, w_star, tau, b):
    """Exact equilibrium by inverting the smooth loss model at the balance
    probability p* = i/(i+d)."""
    i = increase_fn(spec, w_star)
    d = decrease_fn(spec, w_star)
    p_star = i / (i + d)
    if regime == SMALL_BUFFER:
        cap = w_star / p_star ** (1.0 / b)
    else:
        cap = w_star * (1.0 - p_star)
    net = NetworkParams(c_prime=cap / tau, tau=tau, b=b)
    return net, EquilibriumState(w_star, p_star, 0.0, 0.0)


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_closed_form_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for spec in SPECS:
        for regime in REGIMES:
            checked = 0
            while checked < 1000:
                w = float(rng.uniform(3.0, 80.0))
                tau = float(rng.uniform(0.02, 0.3))
                b = float(rng.uniform(3.0, 40.0))
                net, eq = constructed_equilibrium(spec, regime, w, tau, b)
                generic = intrinsic_frequency(spec, regime, net, eq)
                if not generic:
                    # both paths must agree on infeasibility; redraw
                    with pytest.raises(ValueError):
                        closed_form_frequency(spec, regime, w, eq.p_edge_star, tau, b=b)
                    continue
                closed = closed_form_frequency(spec, regime, w, eq.p_edge_star, tau, b=b)
                assert abs(generic - closed) <= 1e-9 * closed
                checked += 1
    for spec in SPECS:
        for _ in range(1000):
            w = float(rng.uniform(2.0, 120.0))
            tau = float(rng.uniform(0.02, 0.3))
            c_tilde = float(rng.uniform(100.0, 5000.0))
            net = NetworkParams(c_prime=100.0, tau=tau, b=10.0, C_tilde=c_tilde, B=50.0)
            eq = EquilibriumState(w, 0.01, 0.0, 0.0)
            generic = coupling_strength(spec, INTERMEDIATE, net, eq)
            closed = closed_form_coupling(spec, INTERMEDIATE, w, C_tilde=c_tilde)
            assert abs(generic - closed) <= 1e-12 * closed
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s (budget 1s)"
    report(1, f"closed forms match generic evaluation on 6x1000 + 3x1000 "
              f"random tuples in {elapsed:.2f}s")


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_equilibrium_residuals():
    from scipy import optimize

    t0 = time.perf_counter()
    for spec in SPECS:
        for regime in REGIMES:
            net = NetworkParams(c_prime=250.0, tau=0.1, b=15.0,
                                C_tilde=2 * 0.9 * 250.0, B=20.0)
            eq = solve_single(spec, regime, net)
            assert abs(eq.residual) <= 1e-10

            def f(w):
                return window_laws(spec).gain(w, edge_loss(regime, w, net))

            lo = net.bdp * (1 + 1e-9) if regime == INTERMEDIATE else 1e-6
            w_oracle = plain_bisect(f, lo, 10 * net.bdp)
            assert abs(eq.w_star - w_oracle) <= 1e-8 * w_oracle

            tau1, tau2 = 0.1, 0.11
            e1, e2 = solve_coupled(spec, regime, net, tau1, tau2)
            assert abs(e1.residual) <= 1e-10
            assert abs(e2.residual) <= 1e-10

            def system(ws):
                pc = core_loss(regime, ws[0], ws[1], net, tau1, tau2)
                return [
                    window_laws(spec).gain(
                        ws[0], edge_loss(regime, ws[0], net, tau=tau1) + pc
                    ),
                    window_laws(spec).gain(
                        ws[1], edge_loss(regime, ws[1], net, tau=tau2) + pc
                    ),
                ]

            sol = optimize.root(system, [e1.w_star * 1.05, e2.w_star * 0.95], tol=1e-13)
            assert sol.success
            assert abs(e1.w_star - sol.x[0]) <= 1e-8 * sol.x[0]
            assert abs(e2.w_star - sol.x[1]) <= 1e-8 * sol.x[1]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"criterion 2 took {elapsed:.2f}s (budget 1s)"
    report(2, f"single and coupled equilibria at residual <= 1e-10 and within "
              f"1e-8 of independent root finders in {elapsed:.2f}s")


# ---------------------------------------------------------------- criterion 3


def raw_residuals(problem, st):
    d, s = problem.gains()
    ot = st.Omega * problem.tau
    freq = problem.omega1 + d * math.sin(ot) + s * math.sin(ot + st.phi0) - st.Omega
    phase = 2.0 * s * math.sin(st.phi0) * math.cos(ot) - (problem.omega2 - problem.omega1)
    return abs(freq), abs(phase)


def test_criterion_3_back_substitution_and_swap():
    rng = np.random.default_rng(303)
    n_roots = 0
    for _ in range(40):
        tau = float(rng.uniform(0.05, 0.15))
        om = float(rng.uniform(0.5, 1.2)) * math.pi / tau
        delta = float(rng.uniform(-0.2, 0.2)) * om * 0.02
        if rng.random() < 0.5:
            k = float(rng.uniform(0.05, 0.3)) * om
            p = SyncProblem(om - delta / 2, om + delta / 2, k, tau, INTERMEDIATE)
        else:
            B = float(rng.uniform(10.0, 30.0))
            b = float(rng.uniform(2.0, 9.0))
            k = float(rng.uniform(0.05, 0.3)) * om * 2.0 / B
            p = SyncProblem(om - delta / 2, om + delta / 2, k, tau, SMALL_BUFFER, B=B, b=b)
        states = solve_sync(p)
        swapped = solve_sync(replace(p, omega1=p.omega2, omega2=p.omega1))
        assert len(states) == len(swapped)
        for st in states:
            rf, rp = raw_residuals(p, st)
            assert rf <= 1e-8, f"frequency relation residual {rf:.2e}"
            assert rp <= 1e-8, f"phase relation residual {rp:.2e}"
            assert any(
                abs(sw.Omega - st.Omega) <= 1e-8 * (1 + st.Omega)
                and abs(sw.phi0 + st.phi0) <= 1e-8
                for sw in swapped
            ), "swap must negate phi0 and preserve Omega"
            n_roots += 1
    assert n_roots >= 60
    report(3, f"{n_roots} locked states back-substitute to <= 1e-8 and swap "
              f"antisymmetry holds exactly")


# ---------------------------------------------------------------- criterion 4


def _stable_phase_configs(rng, regime, count):
    configs = []
    attempts = 0
    while len(configs) < count and attempts < 400:
        attempts += 1
        tau = float(rng.uniform(0.06, 0.14))
        om = float(rng.uniform(0.55, 0.9)) * math.pi / tau
        if regime == INTERMEDIATE:
            B = b = None
            k = float(rng.uniform(0.08, 0.25)) * om
            s_gain = k
        else:
            B = float(rng.choice([15.0, 20.0, 25.0, 30.0]))
            b = float(rng.uniform(2.0, 0.45 * B))
            s_gain = float(rng.uniform(0.08, 0.25)) * om
            k = 2.0 * s_gain / B
        room = 2.0 * s_gain * abs(math.cos(om * tau))
        delta = float(rng.uniform(-0.5, 0.5)) * room
        p = SyncProblem(om - delta / 2, om + delta / 2, k, tau, regime, B=B, b=b)
        stable = [st for st in solve_sync(p) if st.stable]
        if stable:
            configs.append((p, stable))
    assert len(configs) == count, f"could not build {count} stable configs"
    return configs


def _unstable_phase_configs(rng, regime, count):
    configs = []
    attempts = 0
    while len(configs) < count and attempts < 400:
        attempts += 1
        tau = float(rng.uniform(0.06, 0.14))
        om = float(rng.uniform(0.25, 0.4)) * math.pi / tau
        if regime == INTERMEDIATE:
            B = b = None
            k = float(rng.uniform(0.06, 0.14)) * om
        else:
            B = float(rng.choice([15.0, 20.0, 25.0]))
            b = float(rng.uniform(2.0, 0.45 * B))
            k = 2.0 * (float(rng.uniform(0.06, 0.14)) * om) / B
        p = SyncProblem(om, om, k, tau, regime, B=B, b=b)
        roots = [
            st for st in solve_sync(p)
            if abs(st.phi0) < 1e-9 and not st.stable and not st.marginal
            and math.cos(st.Omega * tau) > 0.3
        ]
        if roots:
            configs.append((p, roots[0]))
    assert len(configs) == count, f"could not build {count} unstable configs"
    return configs


def _run_lock(problem, stable_states):
    om_bar = 0.5 * (problem.omega1 + problem.omega2)
    rate = abs(problem.stability_factor(stable_states[0].Omega))
    horizon = max(60.0 * 2.0 * math.pi / om_bar, 16.0 / max(rate, 1e-6)) * 1.2
    trace = simulate_phase_oscillators(
        phase_model_equal(problem), DdeConfig(horizon=horizon, dt=problem.tau / 400.0)
    )
    return measure_lock(trace)


@pytest.fixture(scope="module")
def phase_lock_runs():
    rng = np.random.default_rng(404)
    runs = {}
    t0 = time.perf_counter()
    for regime in (INTERMEDIATE, SMALL_BUFFER):
        records = []
        for problem, stable in _stable_phase_configs(rng, regime, 20):
            lock = _run_lock(problem, stable)
            records.append((problem, stable, lock))
        runs[regime] = records
    runs["elapsed"] = time.perf_counter() - t0
    return runs


def test_criterion_4_locked_state_vs_dde(phase_lock_runs):
    t0 = time.perf_counter()
    for regime in (INTERMEDIATE, SMALL_BUFFER):
        for problem, stable, lock in phase_lock_runs[regime]:
            assert lock["locked"], f"{regime} config failed to lock: {problem}"
            match = False
            for st in stable:
                tol_phi = 0.02 * abs(st.phi0) if abs(st.phi0) >= 0.1 else 0.02
                if (
                    abs(lock["Omega"] - st.Omega) <= 0.01 * st.Omega
                    and abs(lock["phi0"] - st.phi0) <= tol_phi
                ):
                    match = True
                    break
            assert match, (
                f"{regime}: measured (Omega={lock['Omega']:.4f}, "
                f"phi0={lock['phi0']:.4f}) matches no stable root"
            )

    rng = np.random.default_rng(505)
    for regime in (INTERMEDIATE, SMALL_BUFFER):
        for problem, root in _unstable_phase_configs(rng, regime, 10):
            delta = 0.01
            horizon = 50.0 * 2.0 * math.pi / root.Omega
            trace = simulate_phase_oscillators(
                phase_model_equal(problem),
                DdeConfig(
                    horizon=horizon,
                    dt=problem.tau / 400.0,
                    history=lambda t, om=root.Omega, ph=root.phi0: (
                        om * t, om * t - ph + delta,
                    ),
                    transient_fraction=0.0,
                ),
            )
            phi = trace.channel("theta1") - trace.channel("theta2")
            growth = float(np.max(np.abs(phi - root.phi0))) / delta
            assert growth >= 10.0, f"perturbation grew only {growth:.1f}x"
    elapsed = time.perf_counter() - t0 + phase_lock_runs["elapsed"]
    assert elapsed < 60.0, f"criterion 4 took {elapsed:.1f}s (budget 60s)"
    report(4, f"2x20 stable locks match roots (Omega 1%, phi0 2%/0.02rad) and "
              f"2x10 unstable locks diverge 10x within 50 periods in {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_large_coupling_limit():
    tau, B, b = 0.1, 20.0, 5.0
    om1, om2 = 30.5, 29.5  # detuning signed so the locked phase lead is positive
    target = math.pi / tau
    ks = np.geomspace(0.2, 60.0, 25)
    prev_phi = None
    branch = []
    for k in ks:
        p = SyncProblem(om1, om2, float(k), tau, SMALL_BUFFER, B=B, b=b)
        stable = [st for st in solve_sync(p) if st.stable]
        if not stable:
            continue
        # follow the in-phase lock: the branch along which the coupling pulls
        # the phase difference toward zero
        st = min(stable, key=lambda s: abs(s.phi0))
        branch.append((float(k), st))
    assert len(branch) >= 15, "stable branch must persist through the sweep"
    for k, st in branch:
        if prev_phi is not None:
            assert st.phi0 <= prev_phi + 1e-9, "phi0 must not increase with K"
        prev_phi = st.phi0
    k_top, st_top = branch[-1]
    assert st_top.phi0 >= 0.0
    assert abs(st_top.Omega - target) <= 0.05 * target
    report(5, f"stable branch reaches Omega={st_top.Omega:.3f} vs pi/tau="
              f"{target:.3f} (within 5%) with non-increasing phi0")


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_order_parameter_identity(phase_lock_runs, tmp_path):
    # exact identity on solver outputs
    rng = np.random.default_rng(606)
    for _ in range(20):
        tau = float(rng.uniform(0.06, 0.14))
        om = float(rng.uniform(0.5, 0.9)) * math.pi / tau
        k = float(rng.uniform(0.05, 0.3)) * om
        p = SyncProblem(om * 0.995, om * 1.005, k, tau, INTERMEDIATE)
        for st in solve_sync(p):
            assert st.order_r == math.cos(st.phi0 / 2.0)  # bitwise identity

    # within 0.01 for simulated locks
    checked = 0
    for problem, stable, lock in phase_lock_runs[INTERMEDIATE][:8]:
        best = min(stable, key=lambda s: abs(s.Omega - lock["Omega"]))
        assert abs(lock["r_mean"] - math.cos(best.phi0 / 2.0)) <= 0.01
        checked += 1
    assert checked >= 5

    # capacity sweep of the coherent branch rises monotonically toward 1
    summary = cmd_sweep(get_preset("fig1-coherence"), tmp_path)
    rs = [row["order_r"] for row in summary["rows"]]
    assert all(b >= a - 1e-9 for a, b in zip(rs, rs[1:]))
    assert rs[-1] > 0.999
    assert rs[-1] <= 1.0
    report(6, f"r = cos(phi0/2) exact on solver roots, within 0.01 on {checked} "
              f"simulated locks; capacity sweep rises {rs[0]:.6f} -> {rs[-1]:.6f}")


# ---------------------------------------------------------------- criterion 7


def _coupled_family(c_prime):
    """Symmetric two-set family: core rate tied to the edge (bottleneck)."""
    return NetworkParams(c_prime=c_prime, tau=0.1, b=15.0,
                         C_tilde=1.97 * c_prime, B=25.0)


def _symmetric_mode(c_prime):
    spec = ProtocolSpec.reno()
    net = _coupled_family(c_prime)
    eq, _ = solve_coupled(spec, SMALL_BUFFER, net, net.tau, net.tau)
    a, c_self, c_cross = coupled_symmetric_coefficients(spec, SMALL_BUFFER, net, eq)
    return net, eq, a, c_self + c_cross, c_self - c_cross


def test_criterion_7_fluid_limit_cycles():
    t0 = time.perf_counter()
    spec = ProtocolSpec.reno()

    def unstable(c_prime):
        _, _, a, c_sym, _ = _symmetric_mode(c_prime)
        return count_rhp_roots(a, c_sym, 0.1, n_pts=6000) > 0

    lo, hi = 95.0, 220.0
    assert unstable(lo) and not unstable(hi)
    for _ in range(16):
        mid = 0.5 * (lo + hi)
        if unstable(mid):
            lo = mid
        else:
            hi = mid
    c_star = 0.5 * (lo + hi)

    # past the boundary: sustained cycle at the predicted crossing frequency
    c_past = 0.95 * c_star
    net, eq, a, c_sym, c_anti = _symmetric_mode(c_past)
    assert count_rhp_roots(a, c_sym, 0.1, n_pts=6000) == 2
    assert count_rhp_roots(a, c_anti, 0.1, n_pts=6000) == 0
    omega_pred = crossing_frequency(a, c_sym)
    tr = simulate_fluid_coupled(
        spec, SMALL_BUFFER, net, net.tau, net.tau,
        DdeConfig(horizon=70.0, kick=(1.04, 1.04)),
    )
    est = estimate_limit_cycle(tr, "w1")
    assert est["amplitude"] > 0.05
    assert abs(est["frequency"] - omega_pred) <= 0.10 * omega_pred
    w1 = tr.channel("w1")
    q = len(w1) // 4
    assert np.ptp(w1[-q:]) > 0.9 * np.ptp(w1[-2 * q: -q]), "cycle must be sustained"

    # below the boundary: monotone envelope decay
    c_below = 1.10 * c_star
    net_b, eq_b, a_b, c_sym_b, c_anti_b = _symmetric_mode(c_below)
    assert count_rhp_roots(a_b, c_sym_b, 0.1, n_pts=6000) == 0
    assert count_rhp_roots(a_b, c_anti_b, 0.1, n_pts=6000) == 0
    tr_b = simulate_fluid_coupled(
        spec, SMALL_BUFFER, net_b, net_b.tau, net_b.tau,
        DdeConfig(horizon=40.0, kick=(1.04, 1.04)),
    )
    dev = np.abs(tr_b.channel("w1") - eq_b.w_star)
    # envelope = per-cycle maxima (the rectified signal has two local maxima
    # per cycle); every cycle must shed amplitude
    period = 2.0 * math.pi / crossing_frequency(a_b, c_sym_b)
    block = max(1, int(round(period / tr_b.dt)))
    n_blocks = len(dev) // block
    env = dev[: n_blocks * block].reshape(n_blocks, block).max(axis=1)
    env = env[env > 1e-11]
    assert len(env) > 10
    assert all(x > y for x, y in zip(env, env[1:])), "envelope must decay monotonically"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"criterion 7 took {elapsed:.1f}s (budget 30s)"
    report(7, f"past boundary: sustained cycle at {est['frequency']:.3f} vs "
              f"predicted {omega_pred:.3f} rad/s (<=10%); below: monotone decay; "
              f"{elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 8


def _desk_run(job):
    """One criterion-8 scenario, its wall time measured inside its worker."""
    from tcpsync.packet_sim import run_scenario

    preset_name, variant = job
    topo, groups, duration, seed, sample_dt = _build_scenario(
        get_preset(preset_name)["variants"][variant]
    )
    t0 = time.perf_counter()
    result = run_scenario(topo, groups, duration, seed=seed, sample_dt=sample_dt)
    wall = time.perf_counter() - t0
    rtt_mean = float(np.mean([g.rtt for g in groups]))
    osc = queue_oscillation(result.queue_traces["core"], rtt_mean, topo.core_buffer)
    return {"osc": osc, "wall": wall}


@pytest.fixture(scope="module")
def desk_runs():
    jobs = [
        (preset_name, variant)
        for preset_name in ("fig6-queues", "fig8-queues", "fig9-queues")
        for variant in (("buf15", "buf100", "intermediate") if preset_name != "fig9-queues"
                        else ("buf100", "intermediate"))
    ]
    with ProcessPoolExecutor(max_workers=min(len(jobs), os.cpu_count() or 1)) as pool:
        return dict(zip(jobs, pool.map(_desk_run, jobs)))


def test_criterion_8_desk_scale_reproduction(desk_runs):
    for key, rec in desk_runs.items():
        assert rec["wall"] < 60.0, f"{key} took {rec['wall']:.1f}s (budget 60s)"
    osc = {k: v["osc"] for k, v in desk_runs.items()}

    # (a) 5/10 ms: no sustained core-queue cycle at any buffer preset
    for variant in ("buf15", "buf100", "intermediate"):
        assert not osc[("fig6-queues", variant)]["sustained"], (
            f"fig6 {variant} should not oscillate"
        )
    # (b) 100/110 ms: cycles at 100-pkt and intermediate, not at 15-pkt
    assert not osc[("fig8-queues", "buf15")]["sustained"]
    assert osc[("fig8-queues", "buf100")]["sustained"]
    assert osc[("fig8-queues", "intermediate")]["sustained"]
    # (c) 180/200 ms: strictly larger amplitude than (b)
    for variant in ("buf100", "intermediate"):
        assert osc[("fig9-queues", variant)]["sustained"]
        assert (
            osc[("fig9-queues", variant)]["amplitude"]
            > osc[("fig8-queues", variant)]["amplitude"]
        ), f"fig9 {variant} amplitude must exceed fig8"
    # (d) the oscillation period grows with the round-trip times
    for variant in ("buf100", "intermediate"):
        assert (
            osc[("fig9-queues", variant)]["period"]
            > osc[("fig8-queues", variant)]["period"]
        ), f"fig9 {variant} period must exceed fig8"
    amp8 = osc[("fig8-queues", "buf100")]["amplitude"]
    amp9 = osc[("fig9-queues", "buf100")]["amplitude"]
    per8 = osc[("fig8-queues", "buf100")]["period"]
    per9 = osc[("fig9-queues", "buf100")]["period"]
    report(8, f"5/10ms quiet everywhere; 100/110ms cycles only above 15 pkts "
              f"(amp {amp8:.0f}pkts, T {per8:.2f}s); 180/200ms larger and slower "
              f"(amp {amp9:.0f}pkts, T {per9:.2f}s)")


# ---------------------------------------------------------------- criterion 9


def _run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "tcpsync.cli", *args], capture_output=True, text=True
    )


def test_criterion_9_determinism(tmp_path):
    analyze_cfg = {
        "protocol": {"variant": "compound"},
        "regime": "intermediate",
        "network": {
            "edge_capacity_per_flow_pkts_per_s": 300.0,
            "core_capacity_factor": 1.97,
            "rtt_ms": [100.0, 110.0],
            "edge_buffer_pkts": 50.0,
            "core_buffer_pkts": 100.0,
        },
    }
    packet_cfg = json.loads(json.dumps(get_preset("fig6-queues")["variants"]["buf15"]))
    packet_cfg["duration_s"] = 5.0
    phase_cfg = {
        "model": "intermediate-equal",
        "omega_rad_per_s": [50.0, 51.0],
        "K_per_s": 30.0,
        "tau_s": 0.1,
        "horizon_s": 6.0,
    }
    jobs = [
        ("analyze", analyze_cfg, ["report.json"]),
        ("simulate-packets", packet_cfg,
         ["core.csv", "edge1.csv", "edge2.csv", "set1.csv", "set2.csv", "summary.json"]),
        ("simulate-phase", phase_cfg,
         ["phase-intermediate-equal.csv", "summary.json"]),
    ]
    for command, cfg, files in jobs:
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg))
        # only the packet simulator reads a seed
        seed = ["--seed", "5"] if command == "simulate-packets" else []
        outs = []
        for run in ("r1", "r2"):
            out = tmp_path / f"{command}-{run}"
            proc = _run_cli([command, "--config", str(cfg_path), "--out", str(out), *seed])
            assert proc.returncode == 0, proc.stderr
            outs.append(out)
        for fname in files:
            b1 = (outs[0] / fname).read_bytes()
            b2 = (outs[1] / fname).read_bytes()
            assert b1 == b2, f"{command}/{fname} differs between reruns"
    report(9, "analyze, simulate-packets and simulate-phase reruns are "
              "byte-identical for fixed config and seed")
