"""Command-line front end: analysis reports, simulations, sweeps, presets.

Subcommands
-----------
analyze            equilibrium + linear analysis + locked-state report (JSON)
simulate-fluid     delay-differential window simulation, trace + summary
simulate-phase     phase-oscillator simulation, trace + summary
simulate-packets   discrete-event run of a preset or config, traces + summary
sweep              repeat analyze over one swept parameter, CSV + JSON
preset             list or show built-in desk-scaled presets

All physical quantities in configuration files carry units in their key
names (``*_mbps``, ``*_pkts_per_s``, ``*_ms``, ``*_pkts``).  Reports embed
the fully resolved configuration; re-running a command on that embedded
configuration reproduces the report byte for byte.  Exit codes: 0 success,
1 configuration error, 2 numerical failure; errors are emitted as JSON on
stderr.
"""

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from .dde_sim import (
    DdeConfig,
    estimate_limit_cycle,
    measure_lock,
    phase_model_intermediate_equal,
    phase_model_small_equal,
    simulate_fluid_coupled,
    simulate_fluid_linearized,
    simulate_fluid_single,
    simulate_phase_oscillators,
)
from .equilibrium import solve_coupled, solve_single
from .errors import ConfigError, NoRootError, SimulationError, UnsupportedConfigError
from .linear_analysis import coupling_strength, intrinsic_frequency
from .loss_models import INTERMEDIATE, SMALL_BUFFER, NetworkParams
from .packet_sim import FlowGroup, Topology, queue_oscillation, run_scenario
from .presets import get_preset, preset_names
from .protocols import ProtocolSpec
from .sync_solver import SyncProblem, coupling_range, select_state, solve_sync
from .units import mbps_to_pkts_per_s, ms_to_s

NUMERICAL_ERRORS = (NoRootError, SimulationError, UnsupportedConfigError)


def _jsonable(obj):
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serialisable: {type(obj)}")


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, default=_jsonable)
        fh.write("\n")


def dump_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2, default=_jsonable)


# --------------------------------------------------------------------------
# configuration parsing


def _load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def _parse_protocol(d):
    if not isinstance(d, dict) or "variant" not in d:
        raise ConfigError("protocol must be an object with a 'variant' field")
    fields = {k: v for k, v in d.items() if k != "variant"}
    try:
        return ProtocolSpec(d["variant"], **fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad protocol: {exc}") from exc


def _parse_regime(s):
    if s not in (SMALL_BUFFER, INTERMEDIATE):
        raise ConfigError(
            f"regime must be {SMALL_BUFFER!r} or {INTERMEDIATE!r}, got {s!r}"
        )
    return s


def _rate(d, base, packet_bytes=1500, required=True):
    """Read a rate given as either <base>_mbps or <base>_pkts_per_s."""
    mbps_key, pkts_key = f"{base}_mbps", f"{base}_pkts_per_s"
    if mbps_key in d and pkts_key in d:
        raise ConfigError(f"give {mbps_key} or {pkts_key}, not both")
    if pkts_key in d:
        return float(d[pkts_key])
    if mbps_key in d:
        return mbps_to_pkts_per_s(float(d[mbps_key]), packet_bytes)
    if required:
        raise ConfigError(f"missing {mbps_key} or {pkts_key}")
    return None


def _parse_taus(d):
    rtt = d.get("rtt_ms")
    if rtt is None:
        raise ConfigError("network needs rtt_ms (scalar or [rtt1, rtt2])")
    if np.ndim(rtt) == 0:
        rtt = [float(rtt), float(rtt)]
    if len(rtt) != 2:
        raise ConfigError("rtt_ms must be a scalar or a two-element list")
    return ms_to_s(rtt[0]), ms_to_s(rtt[1])


def _parse_network(d, packet_bytes=1500):
    """Returns (NetworkParams at the mean rtt, tau1, tau2, resolved dict)."""
    if not isinstance(d, dict):
        raise ConfigError("network must be an object")
    c_prime = _rate(d, "edge_capacity_per_flow", packet_bytes)
    tau1, tau2 = _parse_taus(d)
    tau_bar = 0.5 * (tau1 + tau2)
    c_core = _rate(d, "core_capacity_per_flow", packet_bytes, required=False)
    if c_core is not None:
        c_tilde = 2.0 * c_core
    elif "core_capacity_factor" in d:
        c_tilde = float(d["core_capacity_factor"]) * c_prime
    else:
        c_tilde = None
    try:
        net = NetworkParams(
            c_prime=c_prime,
            tau=tau_bar,
            b=float(d.get("edge_buffer_pkts", 0.0)),
            C_tilde=c_tilde,
            B=float(d["core_buffer_pkts"]) if "core_buffer_pkts" in d else None,
            n_e=float(d.get("edge_burstiness", 1.0)),
            n_c=float(d.get("core_burstiness", 1.0)),
        )
    except ValueError as exc:
        raise ConfigError(f"bad network parameters: {exc}") from exc
    resolved = {
        "edge_capacity_per_flow_pkts_per_s": net.c_prime,
        "rtt_ms": [tau1 * 1000.0, tau2 * 1000.0],
        "edge_buffer_pkts": net.b,
        "edge_burstiness": net.n_e,
        "core_burstiness": net.n_c,
    }
    if net.C_tilde is not None:
        resolved["core_capacity_per_flow_pkts_per_s"] = net.C_tilde / 2.0
    if net.B is not None:
        resolved["core_buffer_pkts"] = net.B
    return net, tau1, tau2, resolved


# --------------------------------------------------------------------------
# analyze


def cmd_analyze(cfg):
    spec = _parse_protocol(cfg.get("protocol", {}))
    regime = _parse_regime(cfg.get("regime"))
    net, tau1, tau2, resolved_net = _parse_network(cfg.get("network", {}))

    per_set = []
    omegas = []
    for tau in (tau1, tau2):
        net_m = replace(net, tau=tau)
        eq = solve_single(spec, regime, net_m)
        summary = intrinsic_frequency(spec, regime, net_m, eq)
        if not summary.feasible or not summary.omega:
            raise UnsupportedConfigError(
                "intrinsic frequency infeasible: the radicand of the "
                "linearised model is not positive (buffer-per-batch ratio "
                "must exceed the equilibrium damping factor)"
            )
        omegas.append(summary.omega)
        per_set.append(
            {
                "rtt_ms": tau * 1000.0,
                "w_star_pkts": eq.w_star,
                "p_edge": eq.p_edge_star,
                "residual": eq.residual,
                "omega_rad_per_s": summary.omega,
            }
        )

    report = {
        "config": {
            "kind": "analyze",
            "protocol": {"variant": spec.variant, **_protocol_fields(spec)},
            "regime": regime,
            "network": resolved_net,
        },
        "per_set": per_set,
    }
    if "coupling_sweep" in cfg:
        report["config"]["coupling_sweep"] = cfg["coupling_sweep"]
    if "sync" in cfg:
        report["config"]["sync"] = cfg["sync"]

    if net.C_tilde is None or net.B is None:
        return report

    eq1, eq2 = solve_coupled(spec, regime, net, tau1, tau2)
    report["coupled_equilibrium"] = {
        "w_star_pkts": [eq1.w_star, eq2.w_star],
        "p_edge": [eq1.p_edge_star, eq2.p_edge_star],
        "p_core": eq1.p_core_star,
        "residuals": [eq1.residual, eq2.residual],
    }

    eq_bar = solve_single(spec, regime, net)
    k = coupling_strength(spec, regime, net, eq_bar).K
    report["coupling"] = {"K_per_s": k, "regime": regime}

    problem = SyncProblem(
        omegas[0], omegas[1], k, net.tau, regime,
        B=net.B, b=net.b, n_c=net.n_c, n_e=net.n_e,
    )
    omega_max = cfg.get("sync", {}).get("omega_max")
    states = solve_sync(problem, omega_max=omega_max)
    report["sync"] = {
        "roots": [
            {
                "Omega_rad_per_s": st.Omega,
                "phi0_rad": st.phi0,
                "stable": st.stable,
                "marginal": st.marginal,
                "order_r": st.order_r,
                "residual_freq": st.residual_freq,
                "residual_phase": st.residual_phase,
            }
            for st in states
        ],
    }
    sel = select_state(states)
    report["sync"]["selected"] = (
        None
        if sel is None
        else {
            "Omega_rad_per_s": sel.Omega,
            "phi0_rad": sel.phi0,
            "order_r": sel.order_r,
        }
    )
    # the coherent branch: the stable root continued from the in-phase lock,
    # which is the state coherence sweeps chart (the stability criterion is
    # derived for this branch)
    stable = [st for st in states if st.stable]
    inphase = min(stable, key=lambda st: abs(st.phi0), default=None)
    report["sync"]["selected_inphase"] = (
        None
        if inphase is None
        else {
            "Omega_rad_per_s": inphase.Omega,
            "phi0_rad": inphase.phi0,
            "order_r": inphase.order_r,
        }
    )

    if "coupling_sweep" in cfg:
        sw = cfg["coupling_sweep"]
        try:
            ks = np.linspace(float(sw["from"]), float(sw["to"]), int(sw["count"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad coupling_sweep: {exc}") from exc
        k_c, k_u = coupling_range(problem, ks)
        report["coupling_range"] = {"K_c": k_c, "K_u": k_u}
    return report


def _protocol_fields(spec):
    if spec.variant == "compound":
        return {"alpha": spec.alpha, "beta": spec.beta, "k": spec.k,
                "gamma": spec.gamma, "zeta": spec.zeta}
    if spec.variant == "illinois":
        return {"alpha_max": spec.alpha_max, "beta_min": spec.beta_min}
    return {}


# --------------------------------------------------------------------------
# simulations


def _write_trace(trace, outdir, name, fmt):
    fname = f"{name}.{fmt}"
    path = Path(outdir) / fname
    if fmt == "csv":
        trace.write_csv(path)
    else:
        trace.write_json(path)
    # summaries reference traces by bare name so reruns into different
    # directories stay byte-identical
    return fname


def _dde_config(cfg):
    try:
        return DdeConfig(
            horizon=float(cfg["horizon_s"]),
            dt=float(cfg["dt_s"]) if "dt_s" in cfg else None,
            kick=(
                tuple(float(v) for v in cfg["kick"])
                if isinstance(cfg.get("kick", 1.0), (list, tuple))
                else float(cfg.get("kick", 1.0))
            ),
            transient_fraction=float(cfg.get("transient_fraction", 0.25)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad simulation settings: {exc}") from exc


def cmd_simulate_fluid(cfg, outdir, fmt):
    spec = _parse_protocol(cfg.get("protocol", {}))
    regime = _parse_regime(cfg.get("regime"))
    net, tau1, tau2, resolved_net = _parse_network(cfg.get("network", {}))
    model = cfg.get("model", "single")
    sim_cfg = _dde_config(cfg)
    if model == "single":
        trace = simulate_fluid_single(spec, regime, replace(net, tau=tau1), sim_cfg)
        channel = "w"
    elif model == "linearized":
        trace = simulate_fluid_linearized(spec, regime, replace(net, tau=tau1), sim_cfg)
        channel = "dw"
    elif model == "coupled":
        trace = simulate_fluid_coupled(spec, regime, net, tau1, tau2, sim_cfg)
        channel = "w1"
    else:
        raise ConfigError(f"unknown fluid model {model!r}")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    trace_path = _write_trace(trace, outdir, f"fluid-{model}", fmt)
    summary = {
        "config": {**cfg, "network": resolved_net},
        "trace": trace_path,
        "limit_cycle": _or_error(estimate_limit_cycle, trace, channel),
    }
    write_json(outdir / "summary.json", summary)
    return summary


def _or_error(estimate, *args):
    """A trace estimate, or {"error": ...} when the trace is too short for it."""
    try:
        return estimate(*args)
    except ValueError as exc:
        return {"error": str(exc)}


def cmd_simulate_phase(cfg, outdir, fmt):
    model = cfg.get("model")
    try:
        om1, om2 = (float(v) for v in cfg["omega_rad_per_s"])
        k = float(cfg["K_per_s"])
        tau = cfg["tau_s"]
        tau1, tau2 = (
            (float(tau[0]), float(tau[1]))
            if isinstance(tau, (list, tuple))
            else (float(tau), float(tau))
        )
        n_c = float(cfg.get("core_burstiness", 1.0))
        n_e = float(cfg.get("edge_burstiness", 1.0))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad phase model parameters: {exc}") from exc
    if not (tau1 > 0 and tau2 > 0):
        raise ConfigError(f"tau_s must be positive, got {tau!r}")
    if not (n_c >= 1 and n_e >= 1):
        raise ConfigError(
            f"core_burstiness and edge_burstiness must be >= 1, got {n_c:g} and {n_e:g}"
        )
    if model == "small-equal":
        try:
            B, b = float(cfg["core_buffer_pkts"]), float(cfg["edge_buffer_pkts"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(
                f"small-equal model needs numeric core_buffer_pkts and edge_buffer_pkts: {exc}"
            ) from exc
        params = phase_model_small_equal(om1, om2, k, tau1, B=B, b=b, n_c=n_c, n_e=n_e, tau2=tau2)
        problem = SyncProblem(
            om1, om2, k, 0.5 * (tau1 + tau2), SMALL_BUFFER, B=B, b=b, n_c=n_c, n_e=n_e
        )
    elif model == "intermediate-equal":
        params = phase_model_intermediate_equal(om1, om2, k, tau1, tau2=tau2)
        problem = SyncProblem(om1, om2, k, 0.5 * (tau1 + tau2), INTERMEDIATE)
    else:
        raise ConfigError(f"unknown phase model {model!r}")
    sim_cfg = _dde_config(cfg)
    trace = simulate_phase_oscillators(params, sim_cfg)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    trace_path = _write_trace(trace, outdir, f"phase-{model}", fmt)
    states = solve_sync(problem)
    summary = {
        "config": cfg,
        "trace": trace_path,
        "measured": _or_error(measure_lock, trace, 1.0 - sim_cfg.transient_fraction),
        "predicted_roots": [
            {"Omega_rad_per_s": st.Omega, "phi0_rad": st.phi0, "stable": st.stable}
            for st in states
        ],
    }
    write_json(outdir / "summary.json", summary)
    return summary


def _build_scenario(cfg, seed_override=None):
    topo_cfg = cfg.get("topology", {})
    packet_bytes = int(topo_cfg.get("packet_bytes", 1500))
    groups = []
    try:
        for g in cfg["groups"]:
            groups.append(
                FlowGroup(
                    count=int(g["count"]),
                    protocol=_parse_protocol(g["protocol"]),
                    rtt=ms_to_s(g["rtt_ms"]),
                    edge=g.get("edge"),
                    access_rate=mbps_to_pkts_per_s(g.get("access_mbps", 2.0), packet_bytes),
                )
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad flow group: {exc}") from exc
    try:
        edges = topo_cfg["edge_capacity_mbps"]
        topo = Topology(
            edge_capacity=tuple(mbps_to_pkts_per_s(v, packet_bytes) for v in edges),
            core_capacity=mbps_to_pkts_per_s(topo_cfg["core_capacity_mbps"], packet_bytes),
            edge_buffer=tuple(float(v) for v in topo_cfg["edge_buffer_pkts"]),
            core_buffer=float(topo_cfg["core_buffer_pkts"]),
            packet_bytes=packet_bytes,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad topology: {exc}") from exc
    duration = float(cfg.get("duration_s", 60.0))
    seed = int(cfg.get("seed", 0)) if seed_override is None else int(seed_override)
    sample_dt = ms_to_s(cfg.get("sample_dt_ms", 20.0))
    return topo, groups, duration, seed, sample_dt


def cmd_simulate_packets(cfg, outdir, fmt, seed_override=None):
    topo, groups, duration, seed, sample_dt = _build_scenario(cfg, seed_override)
    result = run_scenario(topo, groups, duration, seed=seed, sample_dt=sample_dt)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, trace in {**result.queue_traces, **result.window_traces}.items():
        paths[name] = _write_trace(trace, outdir, name, fmt)
    edge_groups = [g for g in groups if g.edge is not None]
    rtt_mean = (
        float(np.mean([g.rtt for g in edge_groups])) if edge_groups else duration
    )
    osc = queue_oscillation(result.queue_traces["core"], rtt_mean, topo.core_buffer)
    summary = {
        "config": {**cfg, "seed": seed},
        "traces": paths,
        "utilization": result.utilization,
        "drops": result.drops,
        "counters": {
            k: v for k, v in result.counters.items() if not isinstance(v, dict)
        },
        "served": result.counters["served"],
        "core_oscillation": osc,
    }
    write_json(outdir / "summary.json", summary)
    return summary


# --------------------------------------------------------------------------
# sweep


def _set_by_path(cfg, path, value):
    keys = path.split(".")
    node = cfg
    for k in keys[:-1]:
        node = node.setdefault(k, {})
    node[keys[-1]] = value


def _sweep_point(args):
    base_json, path, value = args
    cfg = json.loads(base_json)
    _set_by_path(cfg, path, value)
    row = {"value": value}
    try:
        rep = cmd_analyze(cfg)
    except NUMERICAL_ERRORS as exc:
        row["error"] = str(exc)
        return row
    row["w_star1"] = rep["per_set"][0]["w_star_pkts"]
    row["w_star2"] = rep["per_set"][1]["w_star_pkts"]
    row["omega1"] = rep["per_set"][0]["omega_rad_per_s"]
    row["omega2"] = rep["per_set"][1]["omega_rad_per_s"]
    if "coupling" in rep:
        row["K"] = rep["coupling"]["K_per_s"]
        row["p_core"] = rep["coupled_equilibrium"]["p_core"]
    sel = rep.get("sync", {}).get("selected_inphase")
    if sel:
        row["Omega"] = sel["Omega_rad_per_s"]
        row["phi0"] = sel["phi0_rad"]
        row["order_r"] = sel["order_r"]
    return row


SWEEP_COLUMNS = [
    "value", "w_star1", "w_star2", "omega1", "omega2", "K", "p_core",
    "Omega", "phi0", "order_r", "error",
]


def cmd_sweep(cfg, outdir, workers=1):
    try:
        base = cfg["base"]
        path = cfg["param_path"]
        values = [float(v) for v in cfg["values"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad sweep config: {exc}") from exc
    base_json = json.dumps(base, sort_keys=True)
    jobs = [(base_json, path, v) for v in values]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point, jobs))
    else:
        rows = [_sweep_point(j) for j in jobs]
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / "sweep.csv"
    with open(csv_path, "w", newline="") as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\n")
        for row in rows:
            cells = []
            for col in SWEEP_COLUMNS:
                v = row.get(col, "")
                cells.append(repr(float(v)) if isinstance(v, (int, float)) else str(v))
            fh.write(",".join(cells) + "\n")
    summary = {"config": cfg, "rows": rows, "csv": csv_path.name}
    write_json(outdir / "sweep.json", summary)
    return summary


# --------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser():
    parser = _Parser(prog="tcpsync", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=False, help="JSON configuration file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="trace file format")

    common(sub.add_parser("analyze", help="equilibrium/linear/sync report"))
    common(sub.add_parser("simulate-fluid", help="fluid window simulation"))
    common(sub.add_parser("simulate-phase", help="phase-oscillator simulation"))
    p = sub.add_parser("simulate-packets", help="packet-level simulation")
    common(p)
    p.add_argument("--preset", help="built-in preset name")
    p.add_argument("--variant", help="run a single preset variant")
    p = sub.add_parser("sweep", help="repeat analyze over a swept parameter")
    common(p)
    p.add_argument("--workers", type=int, default=1)
    p = sub.add_parser("preset", help="list or show presets")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("name", nargs="?")
    return parser


def _require_config(args):
    if not args.config:
        raise ConfigError(f"{args.command} needs --config")
    return _load_config(args.config)


def _dispatch(args):
    if args.command == "preset":
        if args.action == "list":
            print("\n".join(preset_names()))
        else:
            if not args.name:
                raise ConfigError("preset show needs a name")
            try:
                print(dump_json(get_preset(args.name)))
            except KeyError as exc:
                raise ConfigError(str(exc)) from exc
        return

    if args.command == "analyze":
        report = cmd_analyze(_require_config(args))
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "report.json", report)
        print(dump_json(report))
        return

    if args.command == "simulate-fluid":
        cmd_simulate_fluid(_require_config(args), args.out, args.format)
        return

    if args.command == "simulate-phase":
        cmd_simulate_phase(_require_config(args), args.out, args.format)
        return

    if args.command == "simulate-packets":
        if args.preset and args.config:
            raise ConfigError("give --preset or --config, not both")
        if args.preset:
            try:
                preset = get_preset(args.preset)
            except KeyError as exc:
                raise ConfigError(str(exc)) from exc
            if preset.get("kind") == "sweep":
                raise ConfigError(
                    f"preset {args.preset!r} is an analysis sweep; run it with "
                    "the sweep subcommand"
                )
            variants = preset["variants"]
            if args.variant:
                if args.variant not in variants:
                    raise ConfigError(
                        f"unknown variant {args.variant!r}; known: "
                        f"{', '.join(sorted(variants))}"
                    )
                variants = {args.variant: variants[args.variant]}
            for name, cfg in variants.items():
                cmd_simulate_packets(
                    cfg, Path(args.out) / name, args.format, seed_override=args.seed
                )
        else:
            cfg = _require_config(args)
            cmd_simulate_packets(cfg, args.out, args.format, seed_override=args.seed)
        return

    if args.command == "sweep":
        cfg = _require_config(args)
        if cfg.get("kind") == "sweep" or "base" in cfg:
            cmd_sweep(cfg, args.out, workers=args.workers)
            return
        raise ConfigError("sweep config needs 'base', 'param_path' and 'values'")

    raise ConfigError(f"unknown command {args.command!r}")


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _dispatch(args)
        return 0
    except ConfigError as exc:
        sys.stderr.write(dump_json({"error": {"type": "config", "message": str(exc)}}) + "\n")
        return 1
    except NUMERICAL_ERRORS as exc:
        sys.stderr.write(
            dump_json({"error": {"type": "numerical", "message": str(exc)}}) + "\n"
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
