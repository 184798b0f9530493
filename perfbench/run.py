"""tcpsync benchmark: four closed-loop workloads, one client each.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout; the program is imported from ``src/``.
A run draws one job list from ``--seed`` (see workloads.py), measures the
import cost of a fresh interpreter, then sends the jobs one after another
to a worker process and checks every output outside the timed region.
Whole passes over the list repeat while another one fits in ``--seconds``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics named
in BENCHMARK.json; with ``--trace 1`` it carries the per-layer metrics of a
traced run of the same list, in which every job runs untraced and then
traced so the tracing overhead is measured on identical work.  The lines
before it list every metric of the workload with its unit, and each run
writes a results record with its provenance to
``.perfbench/results/<workload>-seed<seed>-trace<t>.json``.

Exit codes: 0 measured (the result line says whether outputs were
correct), 2 the checkout has no ``src/tcpsync`` or the run broke down.
"""

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# pin native thread pools before numpy loads, here and in every child
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import workloads  # noqa: E402
from metrics import (  # noqa: E402
    END_TO_END, PER_LAYER, TAIL_BEYOND, WORKLOAD_END_TO_END, end_to_end_metrics,
    per_layer_metrics,
)

ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
#: fresh-interpreter imports per set-up measurement (the median is reported)
SETUP_REPEATS = 5
#: CPU seconds of a fresh interpreter importing numpy alone on the baseline
#: host (2 shared vCPUs, Python 3.11, numpy 2.4); set-up cost is scaled to it
NUMPY_IMPORT_NOMINAL_S = 0.17
#: modules each workload imports, as a command-line user or library caller would
SETUP_MODULES = {
    "analyze": "tcpsync.cli",
    "lock-ensemble": "tcpsync.sync_solver, tcpsync.dde_sim",
    "fluid-traces": "tcpsync.cli",
    "packets": "tcpsync.cli",
}
#: reference-kernel samples per run (about 25 ms each), spread over its jobs
REF_SAMPLES = 80
#: hard stop for one run: a run that hangs is killed and exits with code 2
RUN_DEADLINE_S = 170


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)  # carries the pinned thread variables
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


# ---------------------------------------------------------------- set-up cost


def _import_cmd(workload, extra=()):
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import {SETUP_MODULES[workload]}"
    return [sys.executable, *extra, "-c", code]


def _child_cost(cmd):
    """(wall, CPU) seconds of one child process; CPU is its user + sys time."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    subprocess.run(cmd, env=child_env(), check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return wall, (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)


def measure_setup(workload):
    """Import cost of a fresh interpreter loading the workload's modules.

    Each repeat times that import and, right after it, a fresh interpreter
    importing numpy alone, which reacts to the host's speed as the import
    does.  ``setup_s`` is the median CPU ratio of the pairs times
    NUMPY_IMPORT_NOMINAL_S; the raw medians are kept beside it."""
    walls, cpus, refs, ratios = [], [], [], []
    for _ in range(SETUP_REPEATS):
        wall, cpu = _child_cost(_import_cmd(workload))
        _, ref = _child_cost([sys.executable, "-c", "import numpy"])
        walls.append(wall)
        cpus.append(cpu)
        refs.append(ref)
        ratios.append(cpu / ref)
    return {
        "setup_s": statistics.median(ratios) * NUMPY_IMPORT_NOMINAL_S,
        "setup_wall_s": statistics.median(walls),
        "setup_cpu_s": statistics.median(cpus),
        "numpy_import_cpu_s": statistics.median(refs),
    }


def measure_importtime(workload):
    """Import breakdown from ``-X importtime``: total, scipy.signal and numpy
    cumulative, and tcpsync's own modules' self time, in seconds."""
    proc = subprocess.run(_import_cmd(workload, ("-X", "importtime")), env=child_env(),
                          check=True, capture_output=True, text=True)
    total = tcpsync_self = 0.0
    cumulative = {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        name = name.strip()
        total += int(self_us)
        cumulative.setdefault(name, int(cum_us))
        if name == "tcpsync" or name.startswith("tcpsync."):
            tcpsync_self += int(self_us)
    return {
        "setup.import_total_s": total / 1e6,
        "setup.import_scipy_signal_s": cumulative.get("scipy.signal", 0) / 1e6,
        "setup.import_numpy_s": cumulative.get("numpy", 0) / 1e6,
        "setup.import_tcpsync_self_s": tcpsync_self / 1e6,
    }


# ---------------------------------------------------------------------- worker


class Worker:
    """The child process that runs jobs (worker.py), driven line by line."""

    def __init__(self, work):
        self.stderr = open(work / "worker.stderr", "w+")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(SRC)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.stderr,
            text=True, env=child_env(), cwd=str(work),
        )
        self._read()

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            self.stderr.seek(0)
            raise BenchError("worker exited: " + self.stderr.read()[-2000:])
        return json.loads(line)

    def request(self, **req):
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.stderr.close()


# ---------------------------------------------------------------------- checks


#: workloads whose first call may be refused for a reason refusal_reason accepts
REFUSABLE = ("analyze", "fluid-traces")


def check_job(workload, job, reply, out):
    """(failures, facts) for one execution.  A job that raised or exited
    non-zero fails without further checks.  Only a typed numerical refusal
    (exit code 2) of the first call, on a configuration the oracle says may
    be refused, is named ``refused_<reason>``; every other failure is a wrong
    output."""
    if reply["error"] is not None:
        return [("raised", reply["error"])], {}
    codes = reply["codes"]
    if any(code != 0 for code in codes):
        msg = reply["stderr"].strip().replace("\n", " ")
        reason = None
        if workload in REFUSABLE and codes[0] == 2 and not any(codes[1:]):
            reason = oracles.refusal_reason(job["calls"][0]["config"])
        check = f"refused_{reason}" if reason else "exit_nonzero"
        return [(check, f"codes {codes}: {msg[:300]}")], {}
    try:
        if workload == "analyze":
            return oracles.check_analyze(job["calls"][0]["config"], out)
        if workload == "lock-ensemble":
            return oracles.check_lock(job, reply["result"])
        if workload == "fluid-traces":
            return oracles.check_fluid(job, out)
        return oracles.check_packets(job, reply, out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [("unreadable_output", f"{type(exc).__name__}: {exc}")], {}


def output_bytes(out, reply):
    files = {p.name: p.read_bytes() for p in sorted(Path(out).iterdir()) if p.is_file()}
    files["<stdout>"] = reply["stdout"].encode()
    files["<stderr>"] = reply["stderr"].encode()
    return files


# ------------------------------------------------------------------------- run


def run(workload, seed, seconds, trace, jobs_override=None):
    n = workloads.list_size(workload, seconds, jobs_override)
    jobs = workloads.make_jobs(workload, seed, n)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    work = STATE / "work" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    worker = Worker(work)
    try:
        if trace:
            setup = measure_importtime(workload)
        else:
            setup = measure_setup(workload)

        executions = []  # one record per timed untraced execution
        traced = []  # traced twins (trace mode)
        passes = []
        first = None  # job 0's first output, kept for the determinism check
        ref_repeats = max(1, round(REF_SAMPLES / len(jobs)))
        started = time.perf_counter()
        while True:
            pass_wall = pass_cpu = 0.0
            for i, job in enumerate(jobs):
                out = work / f"job{i}-{len(passes)}"
                reply = worker.request(cmd="run", job=job, out=str(out), trace=False,
                                       ref_repeats=ref_repeats)
                fails, facts = check_job(workload, job, reply, out)
                if first is None:
                    first = output_bytes(out, reply)
                shutil.rmtree(out)
                executions.append({"job": i, "wall_s": reply["wall_s"], "cpu_s": reply["cpu_s"],
                                   "ref_s": reply["ref_s"], "fails": fails,
                                   "reply": _slim(reply), **facts})
                pass_wall += reply["wall_s"]
                pass_cpu += reply["cpu_s"]
                if trace:
                    tout = work / f"job{i}-traced"
                    treply = worker.request(cmd="run", job=job, out=str(tout), trace=True)
                    shutil.rmtree(tout)
                    traced.append({"job": i, "wall_s": treply["wall_s"],
                                   "reply": _slim(treply)})
            passes.append({"wall_s": pass_wall, "cpu_s": pass_cpu})
            elapsed = time.perf_counter() - started
            if trace or elapsed + elapsed / len(passes) > seconds:
                break

        # determinism: the first job again, into another directory, byte for byte
        again = work / "again"
        reply = worker.request(cmd="run", job=jobs[0], out=str(again), trace=False)
        same = output_bytes(again, reply) == first
        rerun = {"job": 0, "identical": same}
        final = worker.request(cmd="finish", spans=str(work / "spans.json") if trace else None)
        if trace:
            spans_path = STATE / "results" / f"{tag}.spans.json"
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            shutil.move(str(work / "spans.json"), spans_path)
    finally:
        worker.close()
        shutil.rmtree(work, ignore_errors=True)

    if not same:
        executions[0]["fails"] = executions[0]["fails"] + [("rerun_bytes", "outputs differ")]
    ctx = {"workload": workload, "jobs": jobs, "executions": executions, "passes": passes,
           "peak_rss_mb": final["peak_rss_mb"], "setup": setup, "traced": traced,
           "trace": final["trace"]}
    return ctx, rerun


def _slim(reply):
    """What the metrics need from a reply (drops outputs already checked)."""
    keep = ("codes", "error", "steps")
    slim = {k: reply[k] for k in keep if k in reply}
    slim["stdout_bytes"] = len(reply["stdout"].encode())
    return slim


# ------------------------------------------------------------------ provenance


def provenance(workload, seed, seconds, trace, n_jobs):
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "jobs_per_list": n_jobs,
        "box": workloads.BOXES[workload],
        "thread_env": {var: "1" for var in THREAD_VARS},
    }


def _git_commit():
    """HEAD's commit read from .git without running git; "unknown" outside a
    repository (the benchmark may run in an exported checkout)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.exists():
                return ref_path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


# ------------------------------------------------------------------------ main


def measure(workload, seed, seconds, trace, jobs_override=None):
    """One run: returns (result line dict, results record)."""
    ctx, rerun = run(workload, seed, seconds, trace, jobs_override)
    if trace:
        metrics, missing = per_layer_metrics(ctx)
        contract = PER_LAYER
    else:
        metrics, missing = end_to_end_metrics(ctx), []
        contract = END_TO_END
    failures = [{"job": e["job"], "check": name, "message": msg}
                for e in ctx["executions"] for name, msg in e["fails"]]
    attempted = len(ctx["executions"])
    failed = sum(1 for e in ctx["executions"] if e["fails"])
    # an accepted refusal is a failed job, not a wrong output
    wrong = [f for f in failures if not f["check"].startswith("refused_")]
    line = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: metrics[name] for name in contract if name in metrics},
    }
    record = {
        "provenance": provenance(workload, seed, seconds, trace, len(ctx["jobs"])),
        "result": line,
        "all_metrics": metrics,
        "missing_metrics": missing,
        "missing_targets": ctx["trace"]["missing"],
        "missing_checks": sorted({c for e in ctx["executions"]
                                  for c in e.get("missing_checks", ())}),
        "failures": failures,
        "rerun": rerun,
        "passes_s": ctx["passes"],
        "job_walls_s": [e["wall_s"] for e in ctx["executions"]],
        "job_cpus_s": [e["cpu_s"] for e in ctx["executions"]],
    }
    return line, record


def self_test():
    """Every workload with a handful of jobs, both modes: every metric named
    in metrics.py is emitted with its unit and the result line is well formed."""
    problems = []
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            line, record = measure(workload, 1, 1, trace, jobs_override=2)
            spec = PER_LAYER if trace else END_TO_END
            for name, unit in spec.items():
                got = record["all_metrics"].get(name)
                if got is None or got["unit"] != unit or not isinstance(got["value"], float):
                    problems.append(f"{workload} trace={int(trace)}: {name} missing or bad: {got}")
            for name, unit in ({} if trace else WORKLOAD_END_TO_END[workload]).items():
                got = record["all_metrics"].get(name)
                if name == "job_tail_s" and record["provenance"]["jobs_per_list"] < 2 * TAIL_BEYOND:
                    continue  # omitted by definition on short lists
                if got is None or got["unit"] != unit:
                    problems.append(f"{workload} trace={int(trace)}: {name} missing or bad: {got}")
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload}: result keys {sorted(line)}")
            if not line["correct"]:
                problems.append(f"{workload} trace={int(trace)}: {record['failures']}")
            print(f"self-test {workload} trace={int(trace)}: {len(record['all_metrics'])} "
                  f"metrics, {line['attempted']} attempted, {line['failed']} failed")
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


def print_table(record):
    for name, m in sorted(record["all_metrics"].items()):
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}")
    for f in record["failures"]:
        print(f"  failed job {f['job']}: {f['check']}: {f['message'][:200]}")
    if record["missing_targets"]:
        print("  not found, not traced: " + ", ".join(record["missing_targets"]))
    if record["missing_checks"]:
        print("  checks not made, their input is missing: "
              + ", ".join(record["missing_checks"]))
    if record["missing_metrics"]:
        print("  missing metrics: " + ", ".join(record["missing_metrics"]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "tcpsync" / "__init__.py").is_file():
        sys.stderr.write(f"no tcpsync sources under {SRC}; run from a checkout\n")
        return 2
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(RUN_DEADLINE_S if not args.self_test else 900)
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        line, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        sys.stderr.write(f"benchmark run failed: {exc}\n")
        return 2
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"{args.workload} seed={args.seed} trace={args.trace} record={path.relative_to(ROOT)}")
    print_table(record)
    print(json.dumps(line, sort_keys=True))
    return 0


def _deadline(signum, frame):
    raise BenchError(f"run exceeded {RUN_DEADLINE_S} s")


if __name__ == "__main__":
    sys.exit(main())
