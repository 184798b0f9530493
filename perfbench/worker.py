"""Job runner: one child process that imports tcpsync and runs jobs on request.

The parent (run.py) sends one JSON request per line on stdin and reads one
JSON reply per line from this process's stdout:

    {"cmd": "run", "job": {...}, "out": dir, "trace": false, "ref_repeats": k}
        -> {"wall_s": ..., "cpu_s": ..., "codes": [...], "error": null,
            "stdout": ..., "ref_s": [k reference-kernel CPU times], ...}
    {"cmd": "finish", "spans": path}
        -> {"peak_rss_mb": ..., "trace": {...}}

Only the job itself is timed: configuration files are written before the
clock starts, the reference kernel runs after it stops, and nothing is
checked here.  The stdout and stderr that
``cli.main`` produces are captured in memory, so the bytes are still
produced but never reach a terminal.  While a traced job runs, the tracer's
wrappers are installed; they are removed again before the next job.
"""

import contextlib
import io
import json
import math
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, rebind, restore  # noqa: E402


def _import_tcpsync(src):
    sys.path.insert(0, src)
    import tcpsync.cli
    import tcpsync.dde_sim
    import tcpsync.sync_solver

    here = Path(tcpsync.__file__).resolve()
    if Path(src).resolve() not in here.parents:
        raise SystemExit(f"tcpsync imported from {here}, not from {src}")
    return tcpsync


class _Capture:
    """Keeps each ScenarioResult of a packets job so the parent can check
    conservation at every sample.  It wraps ``packet_sim.run_scenario`` in
    every tcpsync namespace that binds it, and adds one Python call per
    simulation.  When that function no longer exists nothing is installed and
    ``results`` stays empty; the parent then reports the per-sample check as
    missing."""

    def __init__(self, active):
        self.active = active
        self.results = []
        self._patches = []

    def __enter__(self):
        home = sys.modules.get("tcpsync.packet_sim")
        original = getattr(home, "run_scenario", None)
        if self.active and original is not None:
            def capture(*args, **kwargs):
                result = original(*args, **kwargs)
                self.results.append(result)
                return result

            self._patches = rebind("tcpsync", original, capture)
        return self

    def __exit__(self, *exc):
        restore(self._patches)

    def conservation(self):
        """The conservation samples of the job's one simulation, or None when
        there is not exactly one or it no longer has them."""
        if len(self.results) != 1:
            return None
        try:
            cons = self.results[0].conservation
            return {k: [float(v) for v in cons[k]]
                    for k in ("sent", "delivered", "dropped", "in_network")}
        except (AttributeError, KeyError, TypeError, ValueError):
            return None


class _Clock:
    """Wall and CPU seconds of a block; CPU counts this process (user + sys)
    plus any children it waited for, so work moved to subprocesses still
    shows."""

    def __enter__(self):
        self.c0 = time.process_time() + self._children()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self.t0
        self.cpu = time.process_time() + self._children() - self.c0

    @staticmethod
    def _children():
        ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        return ru.ru_utime + ru.ru_stime


def reference_kernel(n=30_000):
    """A fixed Heun-style loop over Python floats and lists, the kind of work
    tcpsync's integrator and solvers do.  Its CPU time, sampled between jobs,
    tracks the host's speed through the run."""
    cols = [0.0] * (n + 2)
    y, dt = 1.0, 1e-3

    def rhs(t, y, lag):
        return -0.5 * y + math.sin(lag) + 0.1 * t * dt

    for k in range(n):
        k1 = rhs(k, y, cols[k])
        pred = y + dt * k1
        k2 = rhs(k + 1, pred, cols[k + 1])
        y = y + 0.5 * dt * (k1 + k2)
        cols[k + 2] = y
    return y


def reference_samples(repeats):
    """CPU seconds of ``repeats`` reference-kernel runs."""
    samples = []
    for _ in range(repeats):
        start = time.process_time()
        reference_kernel()
        samples.append(time.process_time() - start)
    return samples


def _write_calls(job, out):
    """Materialise each call's configuration; returns the argv lists."""
    argvs = []
    for k, call in enumerate(job["calls"]):
        cfg_path = out / f"input{k}.json"
        cfg_path.write_text(json.dumps(call["config"], sort_keys=True))
        argvs.append([a.replace("{config}", str(cfg_path)).replace("{out}", str(out))
                      for a in call["argv"]])
    return argvs


def run_cli_job(tcpsync, job, out):
    argvs = _write_calls(job, out)
    stdout, stderr = io.StringIO(), io.StringIO()
    codes = []
    capture = _Capture(job["calls"][0]["argv"][0] == "simulate-packets")
    error = None
    with _Clock() as clock, capture, contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        try:
            for argv in argvs:
                codes.append(tcpsync.cli.main(argv))
        except Exception as exc:  # an escaped exception fails the job, not the run
            error = f"{type(exc).__name__}: {exc}"
    reply = {"wall_s": clock.wall, "cpu_s": clock.cpu, "codes": codes,
             "stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "error": error}
    if error is None and capture.active:
        reply["conservation"] = capture.conservation()
    return reply


def run_lock_job(tcpsync, job, out):
    dde_sim, sync_solver = tcpsync.dde_sim, tcpsync.sync_solver
    p = job["problem"]
    error = None
    with _Clock() as clock:
        try:
            problem = sync_solver.SyncProblem(p["omega1"], p["omega2"], p["K"], p["tau"],
                                              p["regime"], B=p["B"], b=p["b"])
            states = sync_solver.solve_sync(problem)
            if p["regime"] == "intermediate":
                params = dde_sim.phase_model_intermediate_equal(
                    p["omega1"], p["omega2"], p["K"], p["tau"])
            else:
                params = dde_sim.phase_model_small_equal(
                    p["omega1"], p["omega2"], p["K"], p["tau"], B=p["B"], b=p["b"])
            trace = dde_sim.simulate_phase_oscillators(
                params, dde_sim.DdeConfig(horizon=job["horizon"], dt=job["dt"]))
            lock = dde_sim.measure_lock(trace)
        except Exception as exc:  # an escaped exception fails the job, not the run
            error = f"{type(exc).__name__}: {exc}"
    if error is not None:
        return {"wall_s": clock.wall, "cpu_s": clock.cpu, "codes": [], "stdout": "",
                "stderr": "", "error": error}
    output = {
        "lock": lock,
        "roots": [{"Omega": st.Omega, "phi0": st.phi0, "stable": st.stable} for st in states],
        "samples": len(trace),
    }
    text = json.dumps(output, sort_keys=True, default=float)
    (out / "lock.json").write_text(text)
    return {"wall_s": clock.wall, "cpu_s": clock.cpu, "codes": [0], "stdout": "",
            "stderr": "", "error": None, "result": output, "steps": len(trace) - 1}


def main():
    src = sys.argv[1]
    tcpsync = _import_tcpsync(src)
    proto = sys.stdout
    tracer = Tracer()
    traced_wall = 0.0
    print(json.dumps({"ready": True}), file=proto, flush=True)
    for line in sys.stdin:
        req = json.loads(line)
        if req["cmd"] == "finish":
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            summary = tracer.summary()
            summary["root_s"] = tracer.root_time()
            summary["traced_wall_s"] = traced_wall
            if req.get("spans"):
                with open(req["spans"], "w") as fh:
                    json.dump(tracer.spans, fh)
            print(json.dumps({"peak_rss_mb": peak_kb / 1024.0, "trace": summary}),
                  file=proto, flush=True)
            return
        job, out = req["job"], Path(req["out"])
        out.mkdir(parents=True, exist_ok=True)
        runner = run_lock_job if job["kind"] == "lock" else run_cli_job
        if req["trace"]:
            tracer.install()
        try:
            reply = runner(tcpsync, job, out)
        finally:
            tracer.uninstall()
        if req["trace"]:
            traced_wall += reply["wall_s"]
        reply["ref_s"] = reference_samples(req.get("ref_repeats", 0))
        print(json.dumps(reply, default=float), file=proto, flush=True)


if __name__ == "__main__":
    main()
