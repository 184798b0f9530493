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
configuration reproduces the report byte for byte.  Exit codes: 0 success;
1 configuration error, which includes any non-finite number or malformed
shape; 2 numerical failure.  Errors are emitted as JSON on stderr.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from .dde_sim import (
    DdeConfig,
    _kick_tuple,
    estimate_limit_cycle,
    measure_lock,
    phase_model_equal,
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
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()  # the matching Python scalar, or nested lists of them
    raise TypeError(f"not JSON serialisable: {type(obj)}")


def dump_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2, default=_jsonable)


def write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(dump_json(obj) + "\n")


# --------------------------------------------------------------------------
# configuration parsing
#
# Every command reads its fields through the helpers below and builds its
# domain objects before computing anything; the range rules live in those
# objects' constructors, which ``_checked`` turns into ConfigError.

_REQUIRED = object()


def _reject_constant(name):
    raise ConfigError(f"config holds the non-finite number {name}")


def _load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return cfg


def _checked(make, *args, **kwargs):
    """``make(*args, **kwargs)``, its ValueError/TypeError as a ConfigError."""
    try:
        return make(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {make.__name__}: {exc}") from exc


def _obj(d, key):
    """``d[key]`` as a JSON object; {} when absent."""
    value = d.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be an object, got {value!r}")
    return value


def _finite(value, name):
    try:
        # JSON true and false are not numbers, though Python's float takes them
        x = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not math.isfinite(x):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return x


def _num(d, key, default=_REQUIRED):
    """``d[key]`` as a finite float; ``default`` when absent, if one is given."""
    if key in d:
        return _finite(d[key], key)
    if default is _REQUIRED:
        raise ConfigError(f"missing {key}")
    return default


def _int(d, key, default=_REQUIRED):
    """``d[key]`` as an int; a float or numeric string must be whole."""
    value = d.get(key)
    x = value if type(value) is int else _num(d, key, default)
    if x != int(x):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(x)


def _pair(d, key):
    """A scalar or a two-element list as two finite floats."""
    value = d.get(key)
    if not isinstance(value, (list, tuple)):
        x = _num(d, key)
        return x, x
    if len(value) != 2:
        raise ConfigError(f"{key} must be a number or a two-element list, got {value!r}")
    return _finite(value[0], key), _finite(value[1], key)


def _parse_protocol(d):
    if not isinstance(d, dict) or "variant" not in d:
        raise ConfigError("protocol must be an object with a 'variant' field")
    fields = {k: v for k, v in d.items() if k != "variant"}
    for key, value in fields.items():
        # JSON numbers only, kept as given: reports echo the spec's fields
        if isinstance(value, str):
            raise ConfigError(f"protocol {key} must be a number, got {value!r}")
        _finite(value, key)
    return _checked(ProtocolSpec, d["variant"], **fields)


def _rate(d, base, required=True):
    """Read a rate given as either <base>_mbps or <base>_pkts_per_s."""
    mbps_key, pkts_key = f"{base}_mbps", f"{base}_pkts_per_s"
    if mbps_key in d and pkts_key in d:
        raise ConfigError(f"give {mbps_key} or {pkts_key}, not both")
    if pkts_key in d:
        return _num(d, pkts_key)
    if mbps_key in d:
        return mbps_to_pkts_per_s(_num(d, mbps_key))
    if required:
        raise ConfigError(f"missing {mbps_key} or {pkts_key}")
    return None


def _parse_model(cfg):
    """Protocol, regime, NetworkParams at the mean and at each set's rtt, resolved network."""
    spec = _parse_protocol(cfg.get("protocol", {}))
    regime = cfg.get("regime")
    if regime not in (SMALL_BUFFER, INTERMEDIATE):
        raise ConfigError(f"regime must be {SMALL_BUFFER!r} or {INTERMEDIATE!r}, got {regime!r}")
    d = _obj(cfg, "network")
    c_prime = _rate(d, "edge_capacity_per_flow")
    tau1, tau2 = (ms_to_s(rtt) for rtt in _pair(d, "rtt_ms"))
    c_core = _rate(d, "core_capacity_per_flow", required=False)
    if c_core is not None:
        c_tilde = 2.0 * c_core
    elif "core_capacity_factor" in d:
        c_tilde = _num(d, "core_capacity_factor") * c_prime
    else:
        c_tilde = None
    fields = dict(
        c_prime=c_prime,
        b=_num(d, "edge_buffer_pkts", 0.0),
        C_tilde=c_tilde,
        B=_num(d, "core_buffer_pkts", None),
        n_e=_num(d, "edge_burstiness", 1.0),
        n_c=_num(d, "core_burstiness", 1.0),
    )
    net, net1, net2 = (
        _checked(NetworkParams, tau=tau, **fields) for tau in (0.5 * (tau1 + tau2), tau1, tau2)
    )
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
    return spec, regime, net, (net1, net2), resolved


# --------------------------------------------------------------------------
# analyze


def cmd_analyze(cfg):
    spec, regime, net, set_nets, resolved_net = _parse_model(cfg)
    omega_max = _num(_obj(cfg, "sync"), "omega_max", None)
    ks = None
    if "coupling_sweep" in cfg:
        sw = _obj(cfg, "coupling_sweep")
        k_from, k_to, count = _num(sw, "from"), _num(sw, "to"), _int(sw, "count")
        if count < 1 or min(k_from, k_to) < 0:
            raise ConfigError("coupling_sweep needs count >= 1 and non-negative from and to")
        ks = np.linspace(k_from, k_to, count)

    per_set = []
    omegas = []
    for net_m in set_nets:
        eq = solve_single(spec, regime, net_m)
        omega = intrinsic_frequency(spec, regime, net_m, eq)
        if not omega:
            raise UnsupportedConfigError(
                "intrinsic frequency infeasible: the radicand of the "
                "linearised model is not positive (buffer-per-batch ratio "
                "must exceed the equilibrium damping factor)"
            )
        omegas.append(omega)
        per_set.append(
            {
                "rtt_ms": net_m.tau * 1000.0,
                "w_star_pkts": eq.w_star,
                "p_edge": eq.p_edge_star,
                "residual": eq.residual,
                "omega_rad_per_s": omega,
            }
        )

    report = {
        "config": {
            "kind": "analyze",
            "protocol": {"variant": spec.variant, **_protocol_fields(spec)},
            "regime": regime,
            "network": resolved_net,
            **{key: cfg[key] for key in ("coupling_sweep", "sync") if key in cfg},
        },
        "per_set": per_set,
    }

    if net.C_tilde is None or net.B is None:
        return report

    eq1, eq2 = solve_coupled(spec, regime, net, *(n.tau for n in set_nets))
    report["coupled_equilibrium"] = {
        "w_star_pkts": [eq1.w_star, eq2.w_star],
        "p_edge": [eq1.p_edge_star, eq2.p_edge_star],
        "p_core": eq1.p_core_star,
        "residuals": [eq1.residual, eq2.residual],
    }

    eq_bar = solve_single(spec, regime, net)
    k = coupling_strength(spec, regime, net, eq_bar)
    report["coupling"] = {"K_per_s": k, "regime": regime}

    problem = _checked(
        SyncProblem, omegas[0], omegas[1], k, net.tau, regime,
        B=net.B, b=net.b, n_c=net.n_c, n_e=net.n_e,
        omega_max=omega_max,
    )
    states = solve_sync(problem)
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
    report["sync"]["selected"] = _brief(select_state(states))
    # the coherent branch: the stable root continued from the in-phase lock,
    # which is the state coherence sweeps chart (the stability criterion is
    # derived for this branch)
    stable = [st for st in states if st.stable]
    inphase = min(stable, key=lambda st: abs(st.phi0), default=None)
    report["sync"]["selected_inphase"] = _brief(inphase)

    if ks is not None:
        k_c, k_u = coupling_range(problem, ks)
        report["coupling_range"] = {"K_c": k_c, "K_u": k_u}
    return report


def _brief(state):
    if state is None:
        return None
    return {"Omega_rad_per_s": state.Omega, "phi0_rad": state.phi0, "order_r": state.order_r}


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
    Path(outdir).mkdir(parents=True, exist_ok=True)
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
    kick = cfg.get("kick")
    return _checked(
        DdeConfig,
        horizon=_num(cfg, "horizon_s"),
        dt=_num(cfg, "dt_s", None),
        kick=(
            tuple(_finite(v, "kick") for v in kick)
            if isinstance(kick, (list, tuple))
            else _num(cfg, "kick", 1.0)
        ),
        transient_fraction=_num(cfg, "transient_fraction", 0.25),
    )


FLUID_CHANNELS = {"single": "w", "linearized": "dw", "coupled": "w1"}


def cmd_simulate_fluid(cfg, outdir, fmt):
    spec, regime, net, (net1, net2), resolved_net = _parse_model(cfg)
    model = cfg.get("model", "single")
    if not isinstance(model, str) or model not in FLUID_CHANNELS:
        raise ConfigError(f"unknown fluid model {model!r}")
    sim_cfg = _dde_config(cfg)
    if model == "coupled":
        _checked(net.require_core)
    _checked(_kick_tuple, sim_cfg.kick, 2 if model == "coupled" else 1)

    if model == "single":
        trace = simulate_fluid_single(spec, regime, net1, sim_cfg)
    elif model == "linearized":
        trace = simulate_fluid_linearized(spec, regime, net1, sim_cfg)
    else:
        trace = simulate_fluid_coupled(spec, regime, net, net1.tau, net2.tau, sim_cfg)
    trace_path = _write_trace(trace, outdir, f"fluid-{model}", fmt)
    summary = {
        "config": {**cfg, "network": resolved_net},
        "trace": trace_path,
        "limit_cycle": _or_error(estimate_limit_cycle, trace, FLUID_CHANNELS[model]),
    }
    write_json(Path(outdir) / "summary.json", summary)
    return summary


def _or_error(estimate, *args):
    """A trace estimate, or {"error": ...} when the trace is too short for it."""
    try:
        return estimate(*args)
    except ValueError as exc:
        return {"error": str(exc)}


def cmd_simulate_phase(cfg, outdir, fmt):
    model = cfg.get("model")
    om1, om2 = _pair(cfg, "omega_rad_per_s")
    k = _num(cfg, "K_per_s")
    tau1, tau2 = _pair(cfg, "tau_s")
    tau = 0.5 * (tau1 + tau2)
    if model == "small-equal":
        B, b = _num(cfg, "core_buffer_pkts"), _num(cfg, "edge_buffer_pkts")
        n_c, n_e = _num(cfg, "core_burstiness", 1.0), _num(cfg, "edge_burstiness", 1.0)
        problem = _checked(SyncProblem, om1, om2, k, tau, SMALL_BUFFER, B=B, b=b, n_c=n_c, n_e=n_e)
    elif model == "intermediate-equal":
        problem = _checked(SyncProblem, om1, om2, k, tau, INTERMEDIATE)
    else:
        raise ConfigError(f"unknown phase model {model!r}")
    params = _checked(phase_model_equal, _checked(replace, problem, tau=tau1), tau2=tau2)
    sim_cfg = _dde_config(cfg)
    trace = simulate_phase_oscillators(params, sim_cfg)
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
    write_json(Path(outdir) / "summary.json", summary)
    return summary


def _flow_group(g, to_pkts):
    if not isinstance(g, dict):
        raise ConfigError(f"a flow group must be an object, got {g!r}")
    edge = g.get("edge")
    if edge is not None:
        edge = _int(g, "edge")
        if edge not in (0, 1):
            raise ConfigError(f"edge must be null, 0 or 1, got {g['edge']!r}")
    return _checked(
        FlowGroup,
        count=_int(g, "count"),
        protocol=_parse_protocol(g.get("protocol")),
        rtt=ms_to_s(_num(g, "rtt_ms")),
        edge=edge,
        access_rate=to_pkts(_num(g, "access_mbps", 2.0)),
    )


def _build_scenario(cfg, seed_override=None):
    topo_cfg = _obj(cfg, "topology")
    packet_bytes = _int(topo_cfg, "packet_bytes", 1500)
    to_pkts = partial(_checked, mbps_to_pkts_per_s, packet_bytes=packet_bytes)
    groups = cfg.get("groups")
    if not isinstance(groups, list) or not groups:
        raise ConfigError("groups must be a non-empty list of flow groups")
    groups = [_flow_group(g, to_pkts) for g in groups]
    topo = _checked(
        Topology,
        edge_capacity=tuple(to_pkts(v) for v in _pair(topo_cfg, "edge_capacity_mbps")),
        core_capacity=to_pkts(_num(topo_cfg, "core_capacity_mbps")),
        edge_buffer=_pair(topo_cfg, "edge_buffer_pkts"),
        core_buffer=_num(topo_cfg, "core_buffer_pkts"),
    )
    duration = _num(cfg, "duration_s", 60.0)
    seed = _int(cfg, "seed", 0) if seed_override is None else int(seed_override)
    sample_dt = ms_to_s(_num(cfg, "sample_dt_ms", 20.0))
    if not (duration > 0 and sample_dt > 0 and seed >= 0):
        raise ConfigError("duration_s and sample_dt_ms must be positive and seed non-negative")
    return topo, groups, duration, seed, sample_dt


def cmd_simulate_packets(cfg, outdir, fmt, seed_override=None):
    topo, groups, duration, seed, sample_dt = _build_scenario(cfg, seed_override)
    result = run_scenario(topo, groups, duration, seed=seed, sample_dt=sample_dt)
    paths = {
        name: _write_trace(trace, outdir, name, fmt)
        for name, trace in {**result.queue_traces, **result.window_traces}.items()
    }
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
    write_json(Path(outdir) / "summary.json", summary)
    return summary


# --------------------------------------------------------------------------
# sweep


def _set_by_path(cfg, path, value):
    keys = path.split(".")
    node = cfg
    for k in keys[:-1]:
        node = node.setdefault(k, {})
        if not isinstance(node, dict):
            raise ConfigError(f"param_path {path!r} runs through {k!r}, which is not an object")
    node[keys[-1]] = value


def _sweep_point(base_json, path, value):
    cfg = json.loads(base_json)
    _set_by_path(cfg, path, value)
    row = {"value": value}
    try:
        rep = cmd_analyze(cfg)
    except NUMERICAL_ERRORS as exc:
        row["error"] = str(exc)
        return row
    set1, set2 = rep["per_set"]
    row.update(w_star1=set1["w_star_pkts"], w_star2=set2["w_star_pkts"],
               omega1=set1["omega_rad_per_s"], omega2=set2["omega_rad_per_s"])
    if "coupling" in rep:
        row["K"] = rep["coupling"]["K_per_s"]
        row["p_core"] = rep["coupled_equilibrium"]["p_core"]
    sel = rep.get("sync", {}).get("selected_inphase")
    if sel:
        row.update(Omega=sel["Omega_rad_per_s"], phi0=sel["phi0_rad"], order_r=sel["order_r"])
    return row


SWEEP_COLUMNS = [
    "value", "w_star1", "w_star2", "omega1", "omega2", "K", "p_core",
    "Omega", "phi0", "order_r", "error",
]


def cmd_sweep(cfg, outdir):
    base, path, values = cfg.get("base"), cfg.get("param_path"), cfg.get("values")
    if not (isinstance(base, dict) and isinstance(path, str) and isinstance(values, list)):
        raise ConfigError("sweep config needs a 'base' object, a 'param_path' string and a 'values' list")
    values = [_finite(v, "values") for v in values]
    base_json = json.dumps(base, sort_keys=True)
    _set_by_path(json.loads(base_json), path, 0.0)  # a bad path fails before any point runs
    rows = [_sweep_point(base_json, path, v) for v in values]
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

    def print_help(self, file=None):
        # argparse's own print_help swallows a failed write; main must see a
        # closed pipe, unbuffered stdout included
        (file or sys.stdout).write(self.format_help())


def build_parser():
    parser = _Parser(prog="tcpsync", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(name, text):
        """A subcommand reading a config and writing into a directory; the
        simulations also take the trace format."""
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=False, help="JSON configuration file")
        p.add_argument("--out", default=".", help="output directory")
        if name.startswith("simulate-"):
            p.add_argument("--format", choices=("csv", "json"), default="csv",
                           help="trace file format")
        return p

    common("analyze", "equilibrium/linear/sync report")
    common("simulate-fluid", "fluid window simulation")
    common("simulate-phase", "phase-oscillator simulation")
    p = common("simulate-packets", "packet-level simulation")
    p.add_argument("--seed", type=int, default=None, help="override the seed")
    p.add_argument("--preset", help="built-in preset name")
    p.add_argument("--variant", help="run a single preset variant")
    common("sweep", "repeat analyze over a swept parameter")
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
            print(dump_json(get_preset(args.name)))
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
            preset = get_preset(args.preset)
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
            cmd_simulate_packets(_require_config(args), args.out, args.format, seed_override=args.seed)
        return

    if args.command == "sweep":
        cmd_sweep(_require_config(args), args.out)
        return

    raise ConfigError(f"unknown command {args.command!r}")


def main(argv=None):
    parser = build_parser()
    try:
        try:
            _dispatch(parser.parse_args(argv))
        finally:
            # a closed pipe shows here, not at interpreter exit; that holds
            # too when argparse has printed --help and raised SystemExit
            sys.stdout.flush()
        return 0
    except BrokenPipeError:
        # the reader left early (``tcpsync preset list | head -1``): send the
        # rest of stdout to devnull, as in Python's signal docs, and fail quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ConfigError as exc:
        code, error = 1, {"type": "config", "message": str(exc)}
    except NUMERICAL_ERRORS as exc:
        code, error = 2, {"type": "numerical", "message": str(exc)}
    sys.stderr.write(dump_json({"error": error}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
