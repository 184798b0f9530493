"""Metric names, units and their computation from one run's measurements.

``END_TO_END`` and ``PER_LAYER`` are the metrics on the last stdout line
(untraced and traced runs); they match BENCHMARK.json.  Every workload
reports all of them, so a per-layer metric of a module the workload never
calls reads 0.  ``WORKLOAD_END_TO_END`` adds the metrics that only make
sense on some workloads; they appear in the table and the results record.
"""

import math
import statistics

import numpy as np

from tracer import TARGETS

END_TO_END = {
    "setup_s": "s",
    "cpu_norm_s": "s",
    "peak_rss_mb": "MB",
}

#: reference-kernel sample time of the nominal host that cpu_norm_s reads in
REF_NOMINAL_S = 0.020
#: d log(job CPU) / d log(reference CPU) under host drift: the median slope
#: of nine per-workload fits (r >= 0.79) over three ten-run sets on 2 shared
#: vCPUs.  The pure-Python reference kernel slows more than tcpsync's mixed
#: numpy/Python work, so dividing by it in full over-corrects.
REF_ELASTICITY = 0.6

_COMMON = {"cpu_s": "s", "wall_s": "s", "job_p50_s": "s", "ref_kernel_s": "s",
           "failed_frac": "ratio", "setup_wall_s": "s", "setup_cpu_s": "s",
           "numpy_import_cpu_s": "s"}
WORKLOAD_END_TO_END = {
    "analyze": {**_COMMON, "job_tail_s": "s", "analyses_per_s": "1/s"},
    "lock-ensemble": {**_COMMON, "job_tail_s": "s", "dde_steps_per_s": "steps/s"},
    "fluid-traces": {**_COMMON, "dde_steps_per_s": "steps/s"},
    "packets": {**_COMMON, "packets_per_s": "pkts/s", "sim_s_per_wall_s": "ratio"},
}

#: a tail percentile needs this many jobs beyond it
TAIL_BEYOND = 10


def _timed(span):
    return {f"{span}.calls": "count", f"{span}.self_s": "s"}


PER_LAYER = {
    "setup.import_total_s": "s",
    "setup.import_scipy_signal_s": "s",
    "setup.import_numpy_s": "s",
    "setup.import_tcpsync_self_s": "s",
    **_timed("cli.main"),
    **_timed("cli.write_json"),
    "cli.stdout_bytes": "bytes",
    "cli.exit_nonzero": "count",
    **_timed("equilibrium.solve_single"),
    **_timed("equilibrium.solve_coupled"),
    "equilibrium.max_abs_residual": "pkts",
    "loss_models.edge_loss.calls": "count",
    "loss_models.core_loss.calls": "count",
    "protocols.increase_fn.calls": "count",
    "protocols.decrease_fn.calls": "count",
    **_timed("linear_analysis.intrinsic_frequency"),
    **_timed("linear_analysis.coupling_strength"),
    **_timed("sync_solver.solve_sync"),
    "sync_solver.roots": "count",
    "sync_solver.stable_roots": "count",
    **_timed("sync_solver.coupling_range"),
    **_timed("dde_sim.integrate_dde"),
    "dde_sim.steps": "count",
    "dde_sim.steps_per_s": "steps/s",
    "dde_sim.simulate.self_s": "s",
    **_timed("dde_sim.measure_lock"),
    **_timed("dde_sim.estimate_limit_cycle"),
    "dde_sim.simulation_errors": "count",
    "signals.calls": "count",
    "signals.self_s": "s",
    **_timed("packet_sim.run_scenario"),
    "packet_sim.sent": "count",
    "packet_sim.delivered": "count",
    "packet_sim.dropped": "count",
    "packet_sim.detected_losses": "count",
    "packet_sim.delivered_ratio": "ratio",
    "packet_sim.packets_per_s": "pkts/s",
    **_timed("packet_sim.queue_oscillation"),
    **_timed("trace.write_csv"),
    **_timed("trace.write_json"),
    "trace.bytes": "bytes",
    "trace.mb_per_s": "MB/s",
    "trace.overhead_s": "s",
    "trace.uncovered_frac": "ratio",
}

#: metrics computed from a span's results, dropped with the span
DERIVED = {
    "sync_solver.solve_sync": ["sync_solver.roots", "sync_solver.stable_roots"],
    "dde_sim.integrate_dde": ["dde_sim.steps", "dde_sim.steps_per_s"],
    "packet_sim.run_scenario": ["packet_sim.sent", "packet_sim.delivered",
                                "packet_sim.dropped", "packet_sim.detected_losses",
                                "packet_sim.delivered_ratio", "packet_sim.packets_per_s"],
}


def _m(value, unit):
    return {"value": float(value), "unit": unit}


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def end_to_end_metrics(ctx):
    workload = ctx["workload"]
    execs = ctx["executions"]
    walls = [e["wall_s"] for e in execs]
    total = sum(walls)
    ok = [e for e in execs if not e["fails"]]
    ref = statistics.median(r for e in execs for r in e["ref_s"])
    cpu = statistics.median(p["cpu_s"] for p in ctx["passes"])
    out = {
        "cpu_norm_s": _m(cpu * (REF_NOMINAL_S / ref) ** REF_ELASTICITY, "s"),
        "ref_kernel_s": _m(ref, "s"),
        **{k: _m(v, "s") for k, v in ctx["setup"].items()},
        "cpu_s": _m(cpu, "s"),
        "wall_s": _m(statistics.median(p["wall_s"] for p in ctx["passes"]), "s"),
        "job_p50_s": _m(statistics.median(walls), "s"),
        "peak_rss_mb": _m(ctx["peak_rss_mb"], "MB"),
        "failed_frac": _m(_ratio(len(execs) - len(ok), len(execs)), "ratio"),
    }
    extra = WORKLOAD_END_TO_END[workload]
    n_list = len(ctx["jobs"])
    if "job_tail_s" in extra and n_list >= 2 * TAIL_BEYOND:
        pct = math.floor(100.0 * (1.0 - TAIL_BEYOND / n_list))
        out["job_tail_s"] = _m(np.percentile(walls, pct), "s")
        out["job_tail_s"]["percentile"] = pct
    if "analyses_per_s" in extra:
        out["analyses_per_s"] = _m(_ratio(len(ok), total), "1/s")
    if "dde_steps_per_s" in extra:
        steps = sum(e.get("steps", e["reply"].get("steps", 0)) for e in ok)
        out["dde_steps_per_s"] = _m(_ratio(steps, total), "steps/s")
    if "packets_per_s" in extra:
        out["packets_per_s"] = _m(_ratio(sum(e.get("sent", 0) for e in ok), total), "pkts/s")
        out["sim_s_per_wall_s"] = _m(_ratio(sum(e.get("sim_s", 0.0) for e in ok), total),
                                     "ratio")
    return out


def per_layer_metrics(ctx):
    """Per-layer metrics of the traced executions; returns (metrics, missing)."""
    tr = ctx["trace"]
    self_s, counts, maxima = tr["self_s"], tr["counts"], tr["maxima"]
    traced = ctx["traced"]
    values = dict(ctx["setup"])
    for name, unit in PER_LAYER.items():
        if name.endswith(".calls"):
            values[name] = counts.get(name, 0)
        elif name.endswith(".self_s") and name[: -len(".self_s")] in {t[2] for t in TARGETS}:
            values[name] = self_s.get(name[: -len(".self_s")], 0.0)
        elif unit == "count" or unit == "bytes":
            values.setdefault(name, counts.get(name, 0))
    values["equilibrium.max_abs_residual"] = maxima.get("equilibrium.max_abs_residual", 0.0)
    values["cli.stdout_bytes"] = sum(t["reply"]["stdout_bytes"] for t in traced)
    values["cli.exit_nonzero"] = sum(1 for t in traced if any(c != 0 for c in t["reply"]["codes"]))
    values["dde_sim.steps_per_s"] = _ratio(counts.get("dde_sim.steps", 0),
                                           self_s.get("dde_sim.integrate_dde", 0.0))
    values["packet_sim.delivered_ratio"] = _ratio(counts.get("packet_sim.delivered", 0),
                                                  counts.get("packet_sim.sent", 0))
    values["packet_sim.packets_per_s"] = _ratio(counts.get("packet_sim.sent", 0),
                                                self_s.get("packet_sim.run_scenario", 0.0))
    write_s = self_s.get("trace.write_csv", 0.0) + self_s.get("trace.write_json", 0.0)
    values["trace.mb_per_s"] = _ratio(counts.get("trace.bytes", 0) / 1e6, write_s)
    untraced = sum(ctx["executions"][k]["wall_s"] for k in range(len(traced)))
    values["trace.overhead_s"] = tr["traced_wall_s"] - untraced
    values["trace.uncovered_frac"] = _ratio(tr["traced_wall_s"] - tr["root_s"],
                                            tr["traced_wall_s"])

    missing_targets = set(tr["missing"])
    dropped = set()
    for span in {t[2] for t in TARGETS}:
        targets = [f"{m}.{a}" for m, a, s, _ in TARGETS if s == span]
        if all(t in missing_targets for t in targets):
            dropped |= {n for n in PER_LAYER if n.startswith(span + ".") or n == span}
            dropped |= set(DERIVED.get(span, ()))
    metrics = {name: _m(values[name], unit) for name, unit in PER_LAYER.items()
               if name not in dropped}
    return metrics, sorted(dropped)
