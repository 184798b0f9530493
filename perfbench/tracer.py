"""Span and counter recording around calls into tcpsync's public functions.

The tracer lives entirely in the benchmark: it replaces public functions by
wrappers in every loaded ``tcpsync`` namespace that binds them.  A
``from .x import y`` binds ``y`` at import time, so ``tcpsync.cli.solve_coupled``
is wrapped as well as ``tcpsync.equilibrium.solve_coupled``; replacing the
name only in its home module would miss those calls.  A target that no
longer exists is recorded as missing and otherwise ignored, so the
benchmark keeps running when a later change removes or renames a function.

Spans stay in memory as (name, start, end, parent index) tuples and are
aggregated when the run ends.  A span's self time is its duration minus the
time covered by its direct children.
"""

import os
import sys
import time
from collections import defaultdict

# (module, attribute, span name, timed).  Untimed targets are only counted:
# they sit in the innermost loops, where a span would cost more than the call.
TARGETS = [
    ("cli", "main", "cli.main", True),
    ("cli", "write_json", "cli.write_json", True),
    ("equilibrium", "solve_single", "equilibrium.solve_single", True),
    ("equilibrium", "solve_coupled", "equilibrium.solve_coupled", True),
    ("loss_models", "edge_loss", "loss_models.edge_loss", False),
    ("loss_models", "core_loss", "loss_models.core_loss", False),
    ("protocols", "increase_fn", "protocols.increase_fn", False),
    ("protocols", "decrease_fn", "protocols.decrease_fn", False),
    ("linear_analysis", "intrinsic_frequency", "linear_analysis.intrinsic_frequency", True),
    ("linear_analysis", "coupling_strength", "linear_analysis.coupling_strength", True),
    ("sync_solver", "solve_sync", "sync_solver.solve_sync", True),
    ("sync_solver", "coupling_range", "sync_solver.coupling_range", True),
    ("dde_sim", "integrate_dde", "dde_sim.integrate_dde", True),
    ("dde_sim", "simulate_fluid_single", "dde_sim.simulate", True),
    ("dde_sim", "simulate_fluid_linearized", "dde_sim.simulate", True),
    ("dde_sim", "simulate_fluid_coupled", "dde_sim.simulate", True),
    ("dde_sim", "simulate_phase_oscillators", "dde_sim.simulate", True),
    ("dde_sim", "measure_lock", "dde_sim.measure_lock", True),
    ("dde_sim", "estimate_limit_cycle", "dde_sim.estimate_limit_cycle", True),
    ("signals", "analytic_phase", "signals", True),
    ("signals", "fit_frequency", "signals", True),
    ("signals", "dominant_frequency", "signals", True),
    ("signals", "spectral_concentration", "signals", True),
    ("signals", "bandpass", "signals", True),
    ("signals", "autocorr_period", "signals", True),
    ("signals", "moving_average", "signals", True),
    ("signals", "local_maxima", "signals", True),
    ("packet_sim", "run_scenario", "packet_sim.run_scenario", True),
    ("packet_sim", "queue_oscillation", "packet_sim.queue_oscillation", True),
    ("trace", "Trace.write_csv", "trace.write_csv", True),
    ("trace", "Trace.write_json", "trace.write_json", True),
]


def _max_abs_residual(result):
    states = result if isinstance(result, tuple) else (result,)
    return max(abs(float(getattr(s, "residual", 0.0))) for s in states)


def _sync_roots(result):
    return {"sync_solver.roots": len(result),
            "sync_solver.stable_roots": sum(1 for st in result if st.stable)}


def _dde_steps(result):
    return {"dde_sim.steps": int(result.shape[-1]) - 1}


def _packet_counts(result):
    c = result.counters
    return {"packet_sim.sent": c["sent"], "packet_sim.delivered": c["delivered"],
            "packet_sim.dropped": c["dropped"],
            "packet_sim.detected_losses": c["detected_losses"]}


#: span name -> function of the return value giving counters to add
RESULT_COUNTERS = {
    "sync_solver.solve_sync": _sync_roots,
    "dde_sim.integrate_dde": _dde_steps,
    "packet_sim.run_scenario": _packet_counts,
}


def rebind(package, original, replacement):
    """Replace every binding of ``original`` in the loaded modules of
    ``package`` by ``replacement``; returns the (module, name, original)
    patches that ``restore`` undoes."""
    patches = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == package or name.startswith(package + ".")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                patches.append((mod, key, original))
                setattr(mod, key, replacement)
    return patches


def restore(patches):
    for owner, key, original in reversed(patches):
        setattr(owner, key, original)


class Tracer:
    """Installs wrappers on tcpsync targets; they record while installed."""

    package = "tcpsync"

    def __init__(self):
        self.spans = []  # (name, start, end, parent index)
        self.counts = defaultdict(int)
        self.maxima = {}
        self.missing = set()
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    # -- installation -------------------------------------------------------

    def install(self):
        for mod_name, attr, span, timed in TARGETS:
            home = sys.modules.get(f"{self.package}.{mod_name}")
            owner_name, _, leaf = attr.rpartition(".")
            owner = home
            if home is not None and owner_name:
                owner = getattr(home, owner_name, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.missing.add(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(original, span, timed)
            if owner_name:  # a method: patch the class once
                self._patches.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
                continue
            self._patches += rebind(self.package, original, wrapper)

    def uninstall(self):
        restore(self._patches)
        self._patches.clear()

    def _wrap(self, fn, span, timed):
        tracer = self
        on_result = RESULT_COUNTERS.get(span)
        is_write = span in ("trace.write_csv", "trace.write_json")

        if not timed:
            def counted(*args, **kwargs):
                tracer.counts[span + ".calls"] += 1
                return fn(*args, **kwargs)

            return counted

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # integrate_dde's errors surface through a simulate_* span
                if span == "dde_sim.simulate" and type(exc).__name__ == "SimulationError":
                    tracer.counts["dde_sim.simulation_errors"] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[idx] = (span, start, end, parent)
                tracer.counts[span + ".calls"] += 1
            if on_result is not None:
                for key, val in on_result(result).items():
                    tracer.counts[key] += val
            if span.startswith("equilibrium."):
                res = _max_abs_residual(result)
                tracer.maxima["equilibrium.max_abs_residual"] = max(
                    res, tracer.maxima.get("equilibrium.max_abs_residual", 0.0))
            if is_write:
                tracer.counts["trace.bytes"] += os.path.getsize(args[1])
            return result

        traced.__wrapped__ = fn
        return traced

    # -- results ------------------------------------------------------------

    def root_time(self):
        """Time covered by spans without a parent (the union of job spans)."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def summary(self):
        """Per span name: calls and self seconds, plus counters and maxima."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child_time[i]
        return {"self_s": dict(self_s), "counts": dict(self.counts),
                "maxima": dict(self.maxima), "missing": sorted(self.missing)}
