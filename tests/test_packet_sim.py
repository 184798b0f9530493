import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcpsync import packet_sim
from tcpsync.packet_sim import (
    OSC_MIN_AMPLITUDE,
    FlowGroup,
    Topology,
    _Flow,
    _on_ack,
    _on_loss,
    queue_oscillation,
    run_scenario,
)
from tcpsync.protocols import COMPOUND, ProtocolSpec, window_laws
from tcpsync.signals import autocorr_period, bandpass, local_maxima
from tcpsync.trace import Trace

import oracles
from oracles import (
    aimd_sawtooth_period,
    heap_run_scenario,
    reference_on_ack,
    reference_on_loss,
    reference_run_scenario,
)


def make_flow(spec):
    return _Flow(spec, 0, 0.05, 200.0, 0, 0.0)


def test_reno_window_update_reference_points():
    f = make_flow(ProtocolSpec.reno())
    f.cwnd = 10.0
    _on_ack(f)
    assert f.window == pytest.approx(10.1)
    f.cwnd = 10.0
    _on_loss(f)
    assert f.window == pytest.approx(5.0)
    f.cwnd = 1.0
    _on_loss(f)
    assert f.window == 1.0  # floored


def test_illinois_window_update_reference_points():
    f = make_flow(ProtocolSpec.illinois())
    f.cwnd = 10.0
    _on_ack(f)
    assert f.window == pytest.approx(11.0)
    f.cwnd = 16.0
    _on_loss(f)
    assert f.window == pytest.approx(14.0)
    f.cwnd = 1.0
    _on_loss(f)
    assert f.window == 1.0


def test_compound_loss_branch_reference_point():
    f = make_flow(ProtocolSpec.compound())
    f.cwnd, f.dwnd = 12.0, 8.0  # w = 20
    _on_loss(f)
    assert f.dwnd == pytest.approx(4.0)  # (20*0.5 - 12/2)+
    assert f.cwnd == pytest.approx(6.0)


def test_compound_underutilised_branch_aggregates_per_window():
    """dwnd gains (alpha w^k - 1)+ once per window's worth of acks when the
    backlog estimate sits below the threshold."""
    f = make_flow(ProtocolSpec.compound())
    f.cwnd, f.dwnd = 30.0, 10.0  # w = 40: alpha*40^0.75 - 1 = 0.9882... > 0
    f.base_rtt = f.last_rtt = 0.05  # diff = 0 < gamma
    f.acks_in_round = 0
    f.round_size = 3
    dwnd0 = f.dwnd
    _on_ack(f)
    _on_ack(f)
    assert f.dwnd == dwnd0  # not yet a full window of acks
    # the round update runs after this ack's growth, so compute the expected
    # gain at the post-growth window
    w_at_update = f.cwnd + 1.0 / f.cwnd + f.dwnd
    gain_expected = max(0.125 * w_at_update**0.75 - 1.0, 0.0)
    _on_ack(f)
    assert f.dwnd == pytest.approx(dwnd0 + gain_expected, rel=1e-12)
    assert f.round_size == int(f.window)


def test_compound_backlog_threshold_inclusive():
    """diff exactly at the threshold takes the reduction branch."""
    spec = ProtocolSpec.compound()
    f = make_flow(spec)
    f.cwnd, f.dwnd = 50.0, 50.0  # w = 100
    f.base_rtt = 0.05
    # choose last_rtt so that at the post-growth window w' the backlog
    # estimate diff = (w'/base - w'/last)*base equals gamma exactly
    w_at_update = f.cwnd + 1.0 / f.cwnd + f.dwnd
    f.last_rtt = w_at_update * f.base_rtt / (w_at_update - spec.gamma)
    f.acks_in_round = 0
    f.round_size = 1
    dwnd0 = f.dwnd
    _on_ack(f)
    assert f.dwnd == pytest.approx(max(dwnd0 - spec.zeta * spec.gamma, 0.0), rel=1e-9)


# the default specs, as every preset runs them
protocols = st.sampled_from([ProtocolSpec.reno(), ProtocolSpec.illinois(), ProtocolSpec.compound()])


@st.composite
def flow_states(draw, specs):
    """A flow of one of ``specs`` in a drawn state: windows, measured RTTs
    (or none yet) and the Compound round counters."""
    f = make_flow(draw(specs))
    f.cwnd = draw(st.floats(1.0, 1e4))
    if f.variant == COMPOUND:
        f.dwnd = draw(st.floats(0.0, 1e4))
    if draw(st.booleans()):
        f.base_rtt = draw(st.floats(1e-4, 1.0))
        f.last_rtt = f.base_rtt * draw(st.floats(1.0, 20.0))
    f.round_size = draw(st.integers(1, 500))
    f.acks_in_round = draw(st.integers(0, f.round_size - 1))
    return f


def flow_state(f):
    return (f.cwnd, f.dwnd, f.base_rtt, f.last_rtt, f.acks_in_round, f.round_size)


def copy_flow(f):
    g = make_flow(f.spec)
    g.cwnd, g.dwnd, g.base_rtt, g.last_rtt, g.acks_in_round, g.round_size = flow_state(f)
    return g


@settings(max_examples=300)
@given(flow_states(protocols), st.sampled_from([_on_ack, _on_loss]))
def test_window_updates_match_the_written_out_laws(f, update):
    """For the default specs, one ack or one loss leaves the same state, bit
    for bit, as the per-variant laws the simulator once wrote out itself."""
    ref = copy_flow(f)
    update(f)
    {_on_ack: reference_on_ack, _on_loss: reference_on_loss}[update](ref)
    assert repr(flow_state(f)) == repr(flow_state(ref))


drawn_specs = st.one_of(
    st.builds(ProtocolSpec.illinois, alpha_max=st.floats(0.01, 100.0),
              beta_min=st.floats(0.01, 0.99)),
    st.builds(ProtocolSpec.compound, beta=st.floats(0.01, 0.99)),
    st.just(ProtocolSpec.reno()),
)


@settings(max_examples=300)
@given(flow_states(drawn_specs))
def test_window_updates_run_the_protocol_laws(f):
    """With drawn parameters, an ack adds exactly i(cwnd) and a loss leaves
    max(cwnd - d(cwnd), 1), from ``window_laws`` (Reno's laws for Compound's
    loss-based window); Compound's dwnd keeps what its own d(w) leaves of the
    total window above the backed-off cwnd."""
    spec = f.spec
    compound = spec.variant == COMPOUND
    loss_laws = window_laws(ProtocolSpec.reno() if compound else spec)
    cwnd, w = f.cwnd, f.window
    g = copy_flow(f)
    _on_ack(g)
    assert g.cwnd == cwnd + loss_laws.increase(cwnd)
    _on_loss(f)
    backed_off = cwnd - loss_laws.decrease(cwnd)
    assert f.cwnd == max(backed_off, 1.0)
    if compound:
        assert f.dwnd == max(w - window_laws(spec).decrease(w) - backed_off, 0.0)
    else:
        assert f.dwnd == 0.0


def single_queue_scenario(duration=60.0, seed=1):
    """One Reno flow whose only bottleneck is its edge router (buffer 10)."""
    topo = Topology(
        edge_capacity=(800.0, 800.0),
        core_capacity=1590.0,
        edge_buffer=(10, 50),
        core_buffer=500,
    )
    grp = FlowGroup(count=1, protocol=ProtocolSpec.reno(), rtt=0.05, edge=0,
                    access_rate=8000.0)
    return run_scenario(topo, [grp], duration=duration, seed=seed)


def test_single_flow_sawtooth_and_utilization():
    res = single_queue_scenario()
    assert res.utilization["edge1"] > 0.75
    # sawtooth period against the deterministic additive-increase oracle
    w = res.window_traces["set1"].channel("w_mean")
    rtt = res.window_traces["set1"].dt
    tail = w[len(w) // 4 :]
    peaks = local_maxima(tail)
    # keep only major peaks: above the midline of the sawtooth
    big = peaks[tail[peaks] > 0.5 * (tail.max() + tail.min())]
    assert len(big) >= 5
    measured = np.mean(np.diff(big)) * rtt
    period, w_max = aimd_sawtooth_period(800.0, 10.0, 0.05)
    assert measured == pytest.approx(period, rel=0.10)
    assert tail.max() == pytest.approx(w_max, rel=0.10)


def test_conservation_every_sample():
    res = single_queue_scenario(duration=30.0)
    cons = res.conservation
    assert np.array_equal(
        cons["sent"], cons["delivered"] + cons["dropped"] + cons["in_network"]
    )


def test_queue_never_exceeds_buffer_and_droptail_semantics():
    res = single_queue_scenario(duration=30.0)
    occ = res.queue_traces["edge1"].channel("occupancy")
    assert occ.max() <= 10
    assert res.drops["edge1"] > 0
    # drops only happen against a full buffer, so the queue must reach it
    assert occ.max() == 10


def test_base_rtt_non_increasing():
    res = single_queue_scenario(duration=20.0)
    base = np.array(res.conservation["base_rtt"], dtype=float)
    with np.errstate(invalid="ignore"):  # inf - inf before the first sample
        diffs = np.diff(base, axis=0)
    assert np.all(diffs[np.isfinite(diffs)] <= 1e-15)


def test_determinism_same_seed():
    a = single_queue_scenario(duration=10.0, seed=7)
    b = single_queue_scenario(duration=10.0, seed=7)
    for name in a.queue_traces:
        assert np.array_equal(
            a.queue_traces[name].channel("occupancy"),
            b.queue_traces[name].channel("occupancy"),
        )
    assert np.array_equal(
        a.window_traces["set1"].channel("w_mean"),
        b.window_traces["set1"].channel("w_mean"),
    )
    assert a.counters == b.counters


def test_different_seed_changes_start_jitter():
    a = single_queue_scenario(duration=10.0, seed=1)
    b = single_queue_scenario(duration=10.0, seed=2)
    assert not np.array_equal(
        a.window_traces["set1"].channel("w_mean"),
        b.window_traces["set1"].channel("w_mean"),
    )


def test_two_set_topology_runs_and_loads_core():
    topo = Topology(
        edge_capacity=(1388.9, 1388.9),
        core_capacity=2736.1,
        edge_buffer=(100, 100),
        core_buffer=100,
    )
    groups = [
        FlowGroup(count=10, protocol=ProtocolSpec.compound(), rtt=0.1, edge=0,
                  access_rate=166.7),
        FlowGroup(count=10, protocol=ProtocolSpec.compound(), rtt=0.11, edge=1,
                  access_rate=166.7),
    ]
    res = run_scenario(topo, groups, duration=20.0, seed=3)
    assert res.utilization["core"] > 0.6
    assert set(res.window_traces) == {"set1", "set2"}
    assert res.window_traces["set1"].channel("w_mean").max() > 2.0
    cons = res.conservation
    assert np.array_equal(
        cons["sent"], cons["delivered"] + cons["dropped"] + cons["in_network"]
    )


def test_cross_traffic_enters_core_only():
    topo = Topology(
        edge_capacity=(1000.0, 1000.0),
        core_capacity=1500.0,
        edge_buffer=(50, 50),
        core_buffer=30,
    )
    groups = [
        FlowGroup(count=4, protocol=ProtocolSpec.reno(), rtt=0.06, edge=0,
                  access_rate=400.0),
        FlowGroup(count=2, protocol=ProtocolSpec.reno(), rtt=0.08, edge=None,
                  access_rate=100.0),
    ]
    res = run_scenario(topo, groups, duration=15.0, seed=4)
    assert res.counters["served"]["edge2"] == 0
    assert res.counters["served"]["core"] > res.counters["served"]["edge1"]


def test_core_bottleneck_warning():
    with pytest.warns(UserWarning, match="bottleneck"):
        Topology(
            edge_capacity=(500.0, 500.0),
            core_capacity=2000.0,
            edge_buffer=(10, 10),
            core_buffer=10,
        )


@pytest.mark.parametrize("edge", [-1, 2])
def test_flow_group_rejects_an_edge_that_does_not_exist(edge):
    with pytest.raises(ValueError, match="edge must be None"):
        FlowGroup(count=1, protocol=ProtocolSpec.reno(), rtt=0.1, edge=edge)


@pytest.mark.parametrize("field", ["edge_capacity", "edge_buffer"])
@pytest.mark.parametrize("entries", [1, 3])
def test_topology_needs_one_entry_per_edge(field, entries):
    kwargs = {"edge_capacity": (800.0, 800.0), "core_capacity": 1000.0,
              "edge_buffer": (10, 10), "core_buffer": 20}
    kwargs[field] = (kwargs[field][0],) * entries
    with pytest.raises(ValueError, match="one entry per edge"):
        Topology(**kwargs)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("field, value", [
    ("edge_capacity", (800.0, NAN)),
    ("edge_capacity", (INF, 800.0)),
    ("core_capacity", NAN),
    ("core_capacity", INF),
    ("edge_buffer", (NAN, 10)),
    ("core_buffer", INF),
])
def test_topology_rejects_non_finite_capacities_and_buffers(field, value):
    kwargs = {"edge_capacity": (800.0, 800.0), "core_capacity": 1000.0,
              "edge_buffer": (10, 10), "core_buffer": 20}
    with pytest.raises(ValueError, match="must be finite"):
        Topology(**(kwargs | {field: value}))


@pytest.mark.parametrize("field, value", [
    ("rtt", INF), ("rtt", NAN), ("access_rate", INF), ("access_rate", NAN),
])
def test_flow_group_rejects_non_finite_rtt_and_access_rate(field, value):
    kwargs = {"count": 1, "protocol": ProtocolSpec.reno(), "rtt": 0.1, "edge": 0}
    with pytest.raises(ValueError, match="must be finite"):
        FlowGroup(**(kwargs | {field: value}))


@pytest.mark.parametrize("sample_dt", [0.0, -0.01, INF, NAN])
def test_run_scenario_rejects_a_sample_step_that_is_not_positive_and_finite(sample_dt):
    groups = [FlowGroup(count=1, protocol=ProtocolSpec.reno(), rtt=0.05, edge=0)]
    with pytest.raises(ValueError, match="sample_dt must be positive and finite"):
        run_scenario(edge_case_topology(), groups, 1.0, sample_dt=sample_dt)


def test_run_scenario_rejects_a_nan_duration():
    groups = [FlowGroup(count=1, protocol=ProtocolSpec.reno(), rtt=0.05, edge=0)]
    with pytest.raises(ValueError, match="duration must be positive"):
        run_scenario(edge_case_topology(), groups, NAN)


# ------------------------------------------------ Lindley routers vs reference

rates = st.floats(40.0, 1500.0)  # packets/s

# small buffers half the time, so that drops and their detection are common
buffers = st.one_of(st.integers(1, 8), st.integers(1, 200))


@st.composite
def scenarios(draw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a core that is not a bottleneck is still a scenario
        topo = Topology(
            edge_capacity=(draw(rates), draw(rates)),
            core_capacity=draw(rates),
            edge_buffer=(draw(buffers), draw(buffers)),
            core_buffer=draw(buffers),
        )
    groups = [
        FlowGroup(
            count=draw(st.integers(1, 4)),
            protocol=draw(protocols),
            rtt=draw(st.floats(0.01, 0.2)),
            edge=draw(st.sampled_from([0, 1, None])),
            access_rate=draw(rates),
        )
        for _ in range(draw(st.integers(1, 3)))
    ]
    duration = draw(st.floats(0.5, 2.0))
    return topo, groups, duration, draw(st.integers(0, 1000)), draw(st.floats(0.005, 0.05))


class RecordedRouter(packet_sim._Router):
    """A router that remembers every instance, to read ``admitted`` after a
    run."""

    __slots__ = ()
    made = []

    def __init__(self, *args):
        super().__init__(*args)
        self.made.append(self)


class TieCountingRouter(oracles._HeapRouter):
    """A router of ``heap_run_scenario``, which admits in ``admit`` and runs
    exactly as ``run_scenario`` does, that counts the arrivals whose outcome
    hangs on how equal times are ordered: one that meets a departure at its
    own time while the buffer, that packet included, is full, or one at the
    same time as the previous arrival.  The reference orders equal times by
    push order, so such a run may differ from it by design."""

    __slots__ = ("ties", "last_arrival")
    made = []

    def __init__(self, *args):
        super().__init__(*args)
        self.ties = 0
        self.last_arrival = None
        self.made.append(self)

    def admit(self, t):
        deps = self.departures
        if t == self.last_arrival or (t in deps and sum(d >= t for d in deps) >= self.buffer):
            self.ties += 1
        self.last_arrival = t
        return super().admit(t)


@settings(max_examples=100)
@given(scenarios())
def test_lindley_routers_match_reference_and_conserve_packets(scenario):
    topo, groups, duration, seed, sample_dt = scenario
    RecordedRouter.made.clear()
    with mock.patch.object(packet_sim, "_Router", RecordedRouter):
        res = run_scenario(topo, groups, duration, seed=seed, sample_dt=sample_dt)
    TieCountingRouter.made.clear()
    with mock.patch.object(oracles, "_HeapRouter", TieCountingRouter):
        heap_run_scenario(topo, groups, duration, seed=seed, sample_dt=sample_dt)

    # without an order-dependent tie: the reference's traces, drops, counters
    # and conservation, exactly (the tie rule has its own test below)
    if not any(r.ties for r in TieCountingRouter.made):
        ref = reference_run_scenario(topo, groups, duration, seed=seed, sample_dt=sample_dt)
        assert res.queue_traces.keys() == ref.queue_traces.keys()
        for name, tr in ref.queue_traces.items():
            assert np.array_equal(res.queue_traces[name].channel("occupancy"),
                                  tr.channel("occupancy"))
        assert res.window_traces.keys() == ref.window_traces.keys()
        for name, tr in ref.window_traces.items():
            assert res.window_traces[name].dt == tr.dt
            assert np.array_equal(res.window_traces[name].channel("w_mean"),
                                  tr.channel("w_mean"))
        assert res.drops == ref.drops
        assert res.counters == ref.counters
        for key, arr in ref.conservation.items():
            assert np.array_equal(res.conservation[key], arr), key
        for name, u in ref.utilization.items():
            assert abs(res.utilization[name] - u) <= 1e-12

    # conservation at every sample and at the end
    cons, c = res.conservation, res.counters
    assert np.array_equal(cons["sent"], cons["delivered"] + cons["dropped"] + cons["in_network"])
    assert c["sent"] == c["delivered"] + c["dropped"] + c["in_network"]
    # Drop-Tail: no sampled occupancy above its buffer
    limits = {"edge1": topo.edge_buffer[0], "edge2": topo.edge_buffer[1],
              "core": topo.core_buffer}
    for name, tr in res.queue_traces.items():
        assert tr.channel("occupancy").max() <= limits[name]
    # a router serves only packets it admitted; every delivery left the core
    assert {r.name for r in RecordedRouter.made} == set(limits)
    for r in RecordedRouter.made:
        assert c["served"][r.name] <= r.admitted
    assert c["delivered"] <= c["served"]["core"]
    assert all(0.0 <= u <= 1.0 for u in res.utilization.values())


def assert_same_result(res, ref):
    """Every field of two ``ScenarioResult``s equal, bit for bit: float repr
    round-trips, and arrays compare by dtype, shape and bytes."""

    def same_arrays(a, b):
        assert list(a) == list(b)
        for key in a:
            assert (a[key].dtype, a[key].shape) == (b[key].dtype, b[key].shape), key
            assert a[key].tobytes() == b[key].tobytes(), key

    for traces, ref_traces in ((res.queue_traces, ref.queue_traces),
                               (res.window_traces, ref.window_traces)):
        assert list(traces) == list(ref_traces)
        for name, tr in ref_traces.items():
            assert repr((traces[name].t0, traces[name].dt, traces[name].meta)) == repr(
                (tr.t0, tr.dt, tr.meta))
            same_arrays(traces[name].data, tr.data)
    for key in ("utilization", "drops", "counters", "meta"):
        assert repr(getattr(res, key)) == repr(getattr(ref, key)), key
    same_arrays(res.conservation, ref.conservation)


def run_both(topo, groups, duration, seed, sample_dt):
    """``run_scenario``'s result, once it is found equal, bit for bit, to
    that of ``heap_run_scenario``."""
    res = run_scenario(topo, groups, duration, seed=seed, sample_dt=sample_dt)
    assert_same_result(res, heap_run_scenario(topo, groups, duration, seed=seed,
                                              sample_dt=sample_dt))
    return res


@settings(max_examples=150)
@given(scenarios())
def test_run_scenario_matches_the_heap_loop_exactly(scenario):
    """Pending samples one per series, one heap operation per forwarded stage
    and inline admission change no bit of any result field, ties included."""
    run_both(*scenario)


def edge_case_topology():
    return Topology(edge_capacity=(800.0, 600.0), core_capacity=1000.0,
                    edge_buffer=(6, 4), core_buffer=8)


def test_cross_traffic_only_has_no_window_series():
    groups = [
        FlowGroup(count=3, protocol=ProtocolSpec.reno(), rtt=0.04, edge=None,
                  access_rate=900.0),
        FlowGroup(count=2, protocol=ProtocolSpec.compound(), rtt=0.07, edge=None,
                  access_rate=300.0),
    ]
    res = run_both(edge_case_topology(), groups, 3.0, 11, 0.01)
    assert res.window_traces == {}
    assert res.drops["core"] > 0 and res.counters["served"]["edge1"] == 0


def test_set_rtt_longer_than_the_run_samples_its_window_once():
    groups = [
        FlowGroup(count=2, protocol=ProtocolSpec.illinois(), rtt=0.5, edge=0,
                  access_rate=400.0),
        FlowGroup(count=2, protocol=ProtocolSpec.reno(), rtt=0.02, edge=1,
                  access_rate=700.0),
    ]
    res = run_both(edge_case_topology(), groups, 0.3, 2, 0.01)
    assert res.window_traces["set1"].channel("w_mean").tolist() == [2.0]
    assert len(res.window_traces["set2"]) == 16


def test_sample_dt_longer_than_the_run_samples_the_queues_once():
    groups = [
        FlowGroup(count=4, protocol=ProtocolSpec.reno(), rtt=0.03, edge=0,
                  access_rate=2000.0),
        FlowGroup(count=1, protocol=ProtocolSpec.reno(), rtt=0.05, edge=None,
                  access_rate=500.0),
    ]
    res = run_both(edge_case_topology(), groups, 1.0, 4, 2.5)
    for tr in res.queue_traces.values():
        assert tr.channel("occupancy").tolist() == [0.0]
    assert res.conservation["t"].tolist() == [0.0]
    assert res.counters["sent"] > 0


def test_tie_rule_departing_packet_still_held():
    """Access link and edge at the same rate: the second packet of the first
    window reaches the one-packet edge buffer exactly when the first departs,
    at the end of the run and at a sample."""
    rtt, rate, seed = 0.1, 100.0, 5
    start = float(np.random.default_rng(seed).uniform(0.0, rtt))  # run_scenario's start jitter
    d0 = (start + 1.0 / rate) + 1.0 / rate  # first departure = second arrival
    topo = Topology(edge_capacity=(rate, rate), core_capacity=150.0,
                    edge_buffer=(1, 1), core_buffer=10)
    groups = [FlowGroup(count=1, protocol=ProtocolSpec.reno(), rtt=rtt, edge=0,
                        access_rate=rate)]
    res = run_scenario(topo, groups, d0, seed=seed, sample_dt=d0)  # samples at 0 and d0
    assert res.queue_traces["edge1"].channel("occupancy").tolist() == [0.0, 1.0]
    assert res.drops["edge1"] == 1  # the arrival at d0 still finds the buffer full
    assert res.counters["served"] == {"edge1": 1, "edge2": 0, "core": 0}  # d <= duration
    # the loop with service events popped this tie in the same order
    ref = reference_run_scenario(topo, groups, d0, seed=seed, sample_dt=d0)
    assert (ref.drops, ref.counters) == (res.drops, res.counters)
    # the sample at d0 = 8 (d0 / 8) is pushed after the start has released
    # both packets, and still pops before the arrival it ties with
    assert start < 7 * (d0 / 8)
    res = run_both(topo, groups, d0, seed, d0 / 8)
    assert res.conservation["t"][-1] == d0
    assert res.conservation["dropped"].tolist() == [0] * 9
    assert res.queue_traces["edge1"].channel("occupancy")[-1] == 1.0
    assert res.drops["edge1"] == 1


def queue_trace(occupancy, dt=0.02):
    return Trace(0.0, dt, {"occupancy": occupancy})


def test_queue_oscillation_finds_a_cycle_inside_the_band():
    """A 0.5 s queue cycle at rtt 0.1 s (band periods 0.044-2 s): period to
    one sample, near-perfect coherence, and a sustained verdict."""
    dt, period = 0.02, 0.5
    occ = 60.0 + 40.0 * np.sin(2.0 * np.pi * dt * np.arange(3000) / period)
    osc = queue_oscillation(queue_trace(occ, dt), 0.1, 100.0)
    assert osc["period"] == pytest.approx(period, abs=dt)
    assert osc["coherence"] > 0.9
    assert osc["amplitude"] == pytest.approx(80.0, rel=0.01)
    assert osc["persistence"] == pytest.approx(1.0, rel=0.01)
    assert osc["sustained"]
    # the classifier band-passes once and hands that series to autocorr_period
    tail = occ[int(len(occ) * packet_sim.OSC_TRANSIENT):]
    w_lo, w_hi = np.pi / (10.0 * 0.1), min(10.0 * np.pi / 0.1, np.pi / dt * 0.9)
    y = bandpass(tail, dt, w_lo, w_hi)
    assert autocorr_period(y, dt, w_lo, w_hi) == (osc["period"], osc["coherence"])


def test_queue_oscillation_flat_trace():
    osc = queue_oscillation(queue_trace(np.full(3000, 30.0)), 0.1, 100.0)
    assert np.isnan(osc["period"]) and osc["coherence"] == 0.0
    assert osc["amplitude"] == 0.0 and not osc["sustained"]


def test_queue_oscillation_small_swing_is_not_sustained():
    """A clean cycle that swings by less than ``OSC_MIN_AMPLITUDE`` packets
    (the buffer-fraction floor is lower here) is a fluctuation."""
    dt = 0.02
    occ = 10.0 + 10.0 * np.sin(2.0 * np.pi * dt * np.arange(3000) / 0.5)
    osc = queue_oscillation(queue_trace(occ, dt), 0.1, 30.0)
    assert osc["amplitude"] < OSC_MIN_AMPLITUDE
    assert np.isfinite(osc["period"]) and osc["coherence"] > 0.9
    assert not osc["sustained"]
