import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tcpsync.cli import cmd_analyze, cmd_simulate_packets, cmd_sweep, main
from tcpsync.loss_models import INTERMEDIATE
from tcpsync.presets import get_preset, preset_names
from tcpsync.sync_solver import SyncProblem
from tcpsync.units import mbps_to_pkts_per_s, ms_to_s

from oracles import reference_coupling_range, reference_critical_coupling


def analyze_config(**over):
    cfg = {
        "kind": "analyze",
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
    cfg.update(over)
    return cfg


def run_cli(args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "tcpsync.cli", *args],
        capture_output=True, text=True, cwd=cwd,
    )


def test_unit_conversion_reference():
    assert mbps_to_pkts_per_s(100.0) == pytest.approx(8333.333333333334, abs=0)
    # exact rational: 100e6 / 12000 = 25000/3
    assert mbps_to_pkts_per_s(100.0) == 25000.0 / 3.0


def test_analyze_report_structure_and_table_row():
    """Symmetric Compound intermediate report carries the closed-form
    coupling K = (alpha w^(k-2) + beta) C~/4."""
    rep = cmd_analyze(analyze_config())
    assert {"config", "per_set", "coupled_equilibrium", "coupling", "sync"} <= set(rep)
    spec_alpha, spec_beta, spec_k = 0.125, 0.5, 0.75
    from tcpsync.equilibrium import solve_single
    from tcpsync.loss_models import INTERMEDIATE, NetworkParams

    net = NetworkParams(c_prime=300.0, tau=0.105, b=50.0,
                        C_tilde=1.97 * 300.0, B=100.0)
    w = solve_single(__import__("tcpsync").ProtocolSpec.compound(), INTERMEDIATE, net).w_star
    expected = (spec_alpha * w ** (spec_k - 2) + spec_beta) * 1.97 * 300.0 / 4.0
    assert rep["coupling"]["K_per_s"] == pytest.approx(expected, rel=1e-12)


def test_analyze_zero_detuning_inphase_root():
    cfg = analyze_config()
    cfg["network"]["rtt_ms"] = [100.0, 100.0]
    rep = cmd_analyze(cfg)
    sel = rep["sync"]["selected_inphase"]
    assert sel is not None
    assert sel["phi0_rad"] == pytest.approx(0.0, abs=1e-12)
    assert sel["order_r"] == pytest.approx(1.0, abs=1e-12)


def test_analyze_report_roundtrip():
    """Re-running on the embedded resolved config reproduces the report."""
    rep1 = cmd_analyze(analyze_config())
    rep2 = cmd_analyze(json.loads(json.dumps(rep1["config"])))
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)


def test_analyze_coupling_window_scans_the_configured_range():
    """``sync.omega_max`` bounds the coupling-window scans and the curve
    minimum as it bounds the root list.  Over (0, 100] rad/s the README
    config has no locked state below K of about 28.7; the default range would
    give K_c = 0.0297.  K_c is the oracle's curve minimum over that range, K_u
    that of the eager reference, bit for bit."""
    rep = cmd_analyze({**README_ANALYZE, "sync": {"omega_max": 100.0}})
    assert all(r["Omega_rad_per_s"] <= 100.0 for r in rep["sync"]["roots"])
    assert rep["coupling_range"]["K_c"] > 28.0
    om1, om2 = (s["omega_rad_per_s"] for s in rep["per_set"])
    tau = 0.5 * (ms_to_s(100.0) + ms_to_s(110.0))
    problem = SyncProblem(om1, om2, rep["coupling"]["K_per_s"], tau, INTERMEDIATE,
                          B=100.0, b=50.0, omega_max=100.0)
    _, k_u = reference_coupling_range(problem, np.linspace(0.0, 40.0, 80))
    k_c, _ = reference_critical_coupling(problem)
    assert rep["coupling_range"]["K_c"] == pytest.approx(k_c, rel=1e-9, abs=0.0)
    assert repr(rep["coupling_range"]["K_u"]) == repr(k_u)


def test_sweep_coherence_monotone(tmp_path):
    summary = cmd_sweep(get_preset("fig1-coherence"), tmp_path)
    rows = summary["rows"]
    rs = [r["order_r"] for r in rows]
    assert all(b >= a - 1e-9 for a, b in zip(rs, rs[1:]))
    assert rs[-1] > 0.999
    assert (tmp_path / "sweep.csv").exists()


def test_preset_listing():
    names = preset_names()
    for expected in ("fig4-sync-smallbuf", "fig5-sync-interbuf", "fig6-queues",
                     "fig7-queues", "fig8-queues", "fig9-queues"):
        assert expected in names
    preset = get_preset("fig8-queues")
    assert set(preset["variants"]) == {"buf15", "buf100", "intermediate"}
    inter = preset["variants"]["intermediate"]
    assert inter["topology"]["core_buffer_pkts"] == 153


def test_intermediate_buffer_rule_full_scale():
    """The dimensioning rule at full scale: 197 Mbps, 120 flows, 250 ms."""
    from tcpsync.presets import intermediate_buffer

    assert intermediate_buffer(mbps_to_pkts_per_s(197.0), 120) == 375


@pytest.mark.parametrize("argv", [
    ["analyze", "--seed", "5"],
    ["analyze", "--format", "json"],
    ["sweep", "--seed", "5"],
    ["sweep", "--format", "csv"],
    ["simulate-fluid", "--seed", "5"],
    ["simulate-phase", "--seed", "5"],
    ["sweep", "--workers", "2"],
])
def test_cli_rejects_options_a_command_does_not_read(argv, capsys):
    """Each subcommand takes only the options it reads: ``--seed`` belongs to
    ``simulate-packets`` alone, ``--format`` to the simulations, and ``sweep``
    runs its points in one process, with no ``--workers``."""
    assert main(argv + ["--config", "unused.json"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "config"
    assert "unrecognized arguments" in err["error"]["message"]


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = run_cli(["analyze", "--config", str(bad), "--out", str(tmp_path)])
    assert proc.returncode == 1
    err = json.loads(proc.stderr)
    assert err["error"]["type"] == "config"

    # infeasible radicand: tiny buffer-per-batch ratio -> numerical failure
    cfg = analyze_config()
    cfg["regime"] = "small-buffer"
    cfg["network"]["edge_buffer_pkts"] = 1.0
    path = tmp_path / "infeasible.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(["analyze", "--config", str(path), "--out", str(tmp_path)])
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert err["error"]["type"] == "numerical"

    proc = run_cli(["preset", "list"])
    assert proc.returncode == 0
    assert "fig8-queues" in proc.stdout


def test_cli_analyze_writes_report(tmp_path):
    """``analyze`` writes its report and prints exactly the same bytes."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(analyze_config()))
    proc = run_cli(["analyze", "--config", str(path), "--out", str(tmp_path)])
    assert proc.returncode == 0
    assert proc.stdout.encode() == (tmp_path / "report.json").read_bytes()
    report = json.loads(proc.stdout)
    assert report["sync"]["roots"]


def packet_config():
    cfg = json.loads(json.dumps(get_preset("fig6-queues")["variants"]["buf15"]))
    cfg["duration_s"] = 5.0
    return cfg


def test_simulate_packets_outputs(tmp_path):
    summary = cmd_simulate_packets(packet_config(), tmp_path, "csv")
    assert (tmp_path / "core.csv").exists()
    assert (tmp_path / "set1.csv").exists()
    assert (tmp_path / "summary.json").exists()
    assert 0.0 < summary["utilization"]["core"] <= 1.0
    assert "sustained" in summary["core_oscillation"]


def test_sync_presets_runnable(tmp_path):
    """The window-synchronisation presets execute end to end."""
    for preset_name, variant in (("fig4-sync-smallbuf", "buf100"),
                                 ("fig5-sync-interbuf", "cap2x")):
        cfg = json.loads(json.dumps(get_preset(preset_name)["variants"][variant]))
        cfg["duration_s"] = 4.0
        summary = cmd_simulate_packets(cfg, tmp_path / preset_name, "csv")
        assert summary["utilization"]["core"] > 0.3
        assert (tmp_path / preset_name / "set1.csv").exists()


def test_cli_determinism_byte_identical(tmp_path):
    """Identical config + seed must produce byte-identical outputs."""
    cfgp = tmp_path / "pkt.json"
    cfgp.write_text(json.dumps(packet_config()))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        proc = run_cli([
            "simulate-packets", "--config", str(cfgp), "--out", str(out),
            "--seed", "5", "--format", "csv",
        ])
        assert proc.returncode == 0, proc.stderr
    for name in ("core.csv", "edge1.csv", "edge2.csv", "set1.csv", "set2.csv",
                 "summary.json"):
        a = (out1 / name).read_bytes()
        b = (out2 / name).read_bytes()
        assert a == b, f"{name} differs between reruns"


def test_preset_show_and_unknown(tmp_path):
    proc = run_cli(["preset", "show", "fig8-queues"])
    assert proc.returncode == 0
    shown = json.loads(proc.stdout)
    assert "variants" in shown
    proc = run_cli(["preset", "show", "no-such-preset"])
    assert proc.returncode == 1


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_cli_closed_stdout_pipe_exits_quietly(unbuffered):
    """A reader that leaves early (``tcpsync preset list | head -1``) gets
    exit code 1 and nothing on stderr, whether stdout is buffered or not,
    also when argparse prints the help and exits."""
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    for argv in (["preset", "list"], ["--help"]):
        proc = subprocess.Popen([sys.executable, "-m", "tcpsync.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1, argv
        assert b"Traceback" not in err
        assert err == b"", argv


def test_cli_main_reuses_its_parser_without_changing_output(tmp_path, monkeypatch):
    """Several ``main`` calls in one process share one parser; each gives the
    stdout, stderr and exit code of the same command in a fresh process."""
    monkeypatch.setenv("COLUMNS", "80")  # one help width in both processes
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(analyze_config()))
    calls = [
        ["analyze", "--config", str(cfg), "--out", str(tmp_path / "out")],
        ["analyze", "--seed", "5", "--config", str(cfg)],
        ["--help"],
        ["preset", "list"],
    ]
    fresh = [run_cli(argv) for argv in calls]
    for _ in range(2):
        for argv, want in zip(calls, fresh):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert (code, out.getvalue(), err.getvalue()) == (
                want.returncode, want.stdout, want.stderr), argv


def test_cli_phase_simulation(tmp_path):
    cfg = {
        "model": "intermediate-equal",
        "omega_rad_per_s": [50.0, 51.0],
        "K_per_s": 30.0,
        "tau_s": 0.1,
        "horizon_s": 8.0,
    }
    path = tmp_path / "phase.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(["simulate-phase", "--config", str(path), "--out", str(tmp_path),
                    "--format", "json"])
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["measured"]["locked"]
    assert any(r["stable"] for r in summary["predicted_roots"])


PHASE_CONFIG = {
    "model": "small-equal",
    "omega_rad_per_s": [50.0, 51.0],
    "K_per_s": 30.0,
    "tau_s": 0.1,
    "core_buffer_pkts": 25.0,
    "edge_buffer_pkts": 15.0,
    "horizon_s": 1.0,
}


def run_phase_config(tmp_path, **over):
    path = tmp_path / "phase.json"
    path.write_text(json.dumps({**PHASE_CONFIG, **over}))
    return run_cli(["simulate-phase", "--config", str(path), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("over", [
    pytest.param({"tau_s": -0.1}, id="negative-tau"),
    pytest.param({"tau_s": [0.1, 0.0]}, id="zero-tau2"),
    pytest.param({"tau_s": [0.0, 0.1]}, id="zero-tau1"),
    pytest.param({"edge_burstiness": "abc"}, id="edge-burstiness-not-a-number"),
    pytest.param({"core_burstiness": 0.5}, id="core-burstiness-below-1"),
])
def test_cli_phase_rejects_bad_delay_or_burstiness(tmp_path, over):
    proc = run_phase_config(tmp_path, **over)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stderr)["error"]["type"] == "config"


# the configuration of each command that the rejection table and the fuzz
# property mutate; the README's analyze config and short runs of the others
README_ANALYZE = {**analyze_config(), "coupling_sweep": {"from": 0.0, "to": 40.0, "count": 80}}
FLUID_CONFIG = {
    "protocol": {"variant": "reno"},
    "regime": "small-buffer",
    "model": "single",
    "network": {
        "edge_capacity_per_flow_pkts_per_s": 107.0,
        "rtt_ms": 100.0,
        "edge_buffer_pkts": 15.0,
    },
    "horizon_s": 2.0,
    "kick": 1.05,
}
PACKET_CONFIG = {**get_preset("fig6-queues")["variants"]["buf15"], "duration_s": 0.5}
SWEEP_CONFIG = {
    "base": analyze_config(),
    "param_path": "network.edge_capacity_per_flow_pkts_per_s",
    "values": [300.0],
}
BASE_CONFIGS = {
    "analyze": README_ANALYZE,
    "simulate-phase": PHASE_CONFIG,
    "simulate-fluid": FLUID_CONFIG,
    "simulate-packets": PACKET_CONFIG,
    "sweep": SWEEP_CONFIG,
}
DROP = object()


def mutated(cfg, path, value):
    """A deep copy of ``cfg`` with the entry at ``path`` replaced (or dropped)."""
    if not path:
        return value
    cfg = json.loads(json.dumps(cfg))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return cfg


def run_main(command, cfg, out):
    """cli.main on ``cfg`` in-process: (exit code, stdout, stderr)."""
    path = out / "input.json"
    path.write_text(json.dumps(cfg))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([command, "--config", str(path), "--out", str(out / "run")])
    return code, stdout.getvalue(), stderr.getvalue()


def reject(name):
    raise ValueError(f"non-finite number {name} in output")


REJECTED = [
    ("simulate-phase", ("omega_rad_per_s",), [50.0, "nan"], "phase-omega-nan"),
    ("simulate-phase", ("K_per_s",), "inf", "phase-coupling-infinite"),
    ("analyze", ("network", "edge_capacity_per_flow_pkts_per_s"), "abc", "edge-capacity-not-a-number"),
    ("analyze", ("network", "edge_capacity_per_flow_pkts_per_s"), None, "edge-capacity-null"),
    ("analyze", ("network", "core_capacity_factor"), "x", "core-factor-not-a-number"),
    ("analyze", ("network", "rtt_ms"), "abc", "rtt-not-a-number"),
    ("analyze", ("network", "rtt_ms"), ["a", 1], "rtt-pair-not-numbers"),
    ("analyze", ("network", "rtt_ms"), {}, "rtt-object"),
    ("analyze", ("network", "rtt_ms"), [100, -5], "rtt-second-negative"),
    ("analyze", (), [README_ANALYZE], "config-is-a-list"),
    ("analyze", ("sync",), 3, "sync-not-an-object"),
    ("analyze", ("sync",), {"omega_max": "x"}, "omega-max-not-a-number"),
    ("analyze", ("sync",), {"omega_max": 0}, "omega-max-zero"),
    ("analyze", ("sync",), {"omega_max": -1}, "omega-max-negative"),
    ("analyze", ("coupling_sweep", "count"), 0, "coupling-sweep-count-zero"),
    ("analyze", ("network", "edge_buffer_pkts"), "inf", "edge-buffer-infinite"),
    ("analyze", ("coupling_sweep", "to"), "nan", "coupling-sweep-to-nan"),
    ("simulate-fluid", ("model",), "coupled", "coupled-without-core"),
    ("simulate-packets", ("duration_s",), "x", "duration-not-a-number"),
    ("simulate-packets", ("duration_s",), -1, "duration-negative"),
    ("simulate-packets", ("duration_s",), "nan", "duration-nan"),
    ("simulate-packets", ("seed",), "x", "seed-not-a-number"),
    ("simulate-packets", ("sample_dt_ms",), 0, "sample-dt-zero"),
    ("simulate-packets", ("sample_dt_ms",), "x", "sample-dt-not-a-number"),
    ("simulate-packets", ("topology", "packet_bytes"), "x", "packet-bytes-not-a-number"),
    ("simulate-packets", ("groups", 0, "rtt_ms"), "nan", "group-rtt-nan"),
    ("simulate-packets", ("groups", 0, "edge"), 5, "group-edge-out-of-range"),
    ("simulate-packets", ("groups", 0, "edge"), "a", "group-edge-not-a-number"),
    ("simulate-packets", ("topology", "edge_capacity_mbps"), [16.0], "one-edge-capacity"),
    ("simulate-packets", ("topology", "core_buffer_pkts"), "nan", "core-buffer-nan"),
    ("simulate-packets", ("groups",), [], "no-groups"),
    ("sweep", ("param_path",), 3, "param-path-not-a-string"),
    ("sweep", ("param_path",), "network.rtt_ms.x", "param-path-through-a-number"),
    ("sweep", ("base",), [1], "base-not-an-object"),
    # JSON booleans are not numbers, though Python's float and int take them
    ("analyze", ("network", "core_buffer_pkts"), True, "core-buffer-boolean"),
    ("analyze", ("protocol", "alpha"), True, "protocol-alpha-boolean"),
    ("simulate-fluid", ("horizon_s",), True, "horizon-boolean"),
    ("simulate-packets", ("groups", 0, "count"), True, "group-count-boolean"),
]


@pytest.mark.parametrize("command, path, value", [
    pytest.param(command, path, value, id=name) for command, path, value, name in REJECTED
])
def test_cli_rejects_malformed_config(tmp_path, command, path, value):
    """Each malformed field exits 1 with a JSON config error, no traceback."""
    code, _, err = run_main(command, mutated(BASE_CONFIGS[command], path, value), tmp_path)
    assert code == 1, err
    assert json.loads(err)["error"]["type"] == "config"


# runs too large to store (numpy refuses each size before it allocates) and
# burstiness that takes the linearisation out of float range
REFUSED = [
    ("simulate-fluid", ("horizon_s",), 1e15, "fluid-horizon-too-long"),
    ("simulate-fluid", ("dt_s",), 1e-320, "fluid-step-subnormal"),
    ("simulate-phase", ("horizon_s",), 1e300, "phase-horizon-too-long"),
    ("simulate-packets", ("sample_dt_ms",), 1e-320, "packets-sample-step-subnormal"),
    ("simulate-packets", ("duration_s",), 1e300, "packets-duration-too-long"),
    ("analyze", ("network", "edge_burstiness"), 130, "edge-burstiness-overflows"),
    # c'**n stays finite but (i + d) * c'**n does not: the report held Infinity
    ("analyze", ("network", "edge_burstiness"), 124, "edge-burstiness-product-overflows"),
    ("analyze", ("network", "core_burstiness"), 150, "core-burstiness-overflows"),
]


@pytest.mark.parametrize("command, path, value", [
    pytest.param(command, path, value, id=name) for command, path, value, name in REFUSED
])
def test_cli_refuses_oversized_run_or_overflowing_burstiness(tmp_path, command, path, value):
    """Each exits 2 with a JSON numerical error, no traceback."""
    code, _, err = run_main(command, mutated(BASE_CONFIGS[command], path, value), tmp_path)
    assert code == 2, err
    assert json.loads(err)["error"]["type"] == "numerical"


def test_sweep_writes_error_row_for_overflowing_burstiness(tmp_path):
    cfg = {"base": analyze_config(), "param_path": "network.edge_burstiness",
           "values": [1.0, 150.0]}
    code, _, err = run_main("sweep", cfg, tmp_path)
    assert code == 0, err
    smooth, bursty = csv.DictReader((tmp_path / "run" / "sweep.csv").read_text().splitlines())
    assert smooth["error"] == "" and float(smooth["Omega"]) > 0.0
    assert "edge burstiness 150" in bursty["error"] and bursty["Omega"] == ""


def config_paths(node, prefix=()):
    """Every key path and list index path into a JSON config."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from config_paths(value, prefix + (key,))


FUZZ_CASES = [
    (command, path)
    for command in ("analyze", "simulate-phase", "simulate-fluid", "simulate-packets")
    for path in config_paths(BASE_CONFIGS[command])
]
FUZZ_MUTATIONS = [DROP, "abc", [], [1], {}, None, "nan", "inf", -1, 0]


@settings(max_examples=300)
@given(case=st.sampled_from(FUZZ_CASES), value=st.sampled_from(FUZZ_MUTATIONS))
def test_cli_mutated_config_exits_cleanly(case, value):
    """A one-field mutation of a working config either runs and writes strict
    JSON (no NaN or Infinity) or exits 1 or 2 with a JSON error."""
    command, path = case
    # dropping duration_s falls back to a 60 s packet run, too long for a fuzz case
    assume(not (path == ("duration_s",) and value is DROP))
    if value is DROP and not isinstance(path[-1], str):
        value = None  # list entries are replaced, not dropped
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        code, stdout, err = run_main(command, mutated(BASE_CONFIGS[command], path, value), out)
        if code == 0:
            if stdout:
                json.loads(stdout, parse_constant=reject)
            for f in (out / "run").glob("*.json"):
                json.loads(f.read_text(), parse_constant=reject)
        else:
            assert code in (1, 2), err
            assert json.loads(err)["error"]["type"] in ("config", "numerical")


def test_cli_phase_horizon_shorter_than_a_step(tmp_path):
    """A one-sample trace is written; the lock measurement reports an error."""
    proc = run_phase_config(tmp_path, horizon_s=1e-6)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert "error" in summary["measured"]
    assert summary["predicted_roots"]


def test_cli_fluid_simulation(tmp_path):
    cfg = {
        "protocol": {"variant": "reno"},
        "regime": "small-buffer",
        "model": "single",
        "network": {
            "edge_capacity_per_flow_pkts_per_s": 107.0,
            "rtt_ms": 100.0,
            "edge_buffer_pkts": 15.0,
        },
        "horizon_s": 40.0,
        "kick": 1.05,
    }
    path = tmp_path / "fluid.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(["simulate-fluid", "--config", str(path), "--out", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["limit_cycle"]["amplitude"] > 0
    assert (tmp_path / "fluid-single.csv").exists()


def test_cli_fluid_large_small_buffer_does_not_overflow(tmp_path):
    """A kicked window far above c'tau with b = 400 overflows (w/c'tau)**b;
    the loss must saturate at 1, leaving a clean exit or a typed refusal."""
    cfg = {
        "protocol": {"variant": "reno"},
        "regime": "small-buffer",
        "model": "single",
        "network": {
            "edge_capacity_per_flow_pkts_per_s": 200.0,
            "rtt_ms": 100.0,
            "edge_buffer_pkts": 400.0,
        },
        "horizon_s": 2.0,
        "kick": 20.0,
    }
    path = tmp_path / "fluid.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(["simulate-fluid", "--config", str(path), "--out", str(tmp_path)])
    assert proc.returncode in (0, 2), proc.stderr
    if proc.returncode == 2:
        assert json.loads(proc.stderr)["error"]["type"] == "numerical"
