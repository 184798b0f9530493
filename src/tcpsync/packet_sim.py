"""Desk-scale discrete-event simulator of two TCP aggregates merging at a core.

Topology: per set, flows feed through their own access links into one of two
Drop-Tail edge routers; both edges feed a common Drop-Tail core router, whose
output reaches the destination after the set's one-way propagation delay, at
which point the ack returns to the sender (the reverse path is uncongested).
Optional cross-traffic flows bypass the edges and enter the core directly.

Modelling choices:

* windows are fractional; a flow may transmit while the number of packets
  in flight is below floor(w);
* the loss-based window ``cwnd`` grows by i(cwnd) per ack and loses d(cwnd)
  per backoff, both from ``protocols.window_laws`` (Reno's laws for
  Compound's ``cwnd``, as in CTCP).  Compound's delay-based ``dwnd`` rule
  (once per window of acks: alpha w^k - 1 below the backlog threshold gamma,
  a zeta drain above it) is packet-level only;
* a dropped packet is detected by its sender once three later packets of the
  same flow have been delivered (triple-duplicate-ack abstraction); there are
  no retransmissions, no timeouts and no slow start - flows start in
  congestion avoidance at w = 2.  So a flow whose window is full of
  undetected drops gets no more acks and sends nothing until the run ends;
* at most one multiplicative backoff per window of data: detections whose
  sequence number falls inside the current recovery window only clear the
  bookkeeping;
* service is FIFO with fixed service time 1/capacity, so by Lindley's
  recursion a packet arriving at a departs at d = max(a, d_prev) + 1/capacity;
  Drop-Tail drops arrivals when occupancy equals the buffer;
* the event heap holds the packets in flight (one entry each, for its next
  stage), the flows not yet started and one pending sample per series;
* equal times pop samples first, then the rest in push order: a packet
  departing at t is still held at t, both for a sample and for an arrival
  at t;
* burstiness is controlled by the per-flow access-link speed: faster access
  links release back-to-back packets into the edge queue.

Everything is deterministic given the seed, which only randomises flow start
times within one round-trip.
"""

import math
import warnings
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush, heapreplace
from itertools import count

import numpy as np

from .errors import SimulationError
from .protocols import COMPOUND, ProtocolSpec, window_laws
from .signals import autocorr_period, bandpass
from .trace import Trace

#: dupack threshold: later deliveries needed to detect a drop
DUPACK_DETECT = 3
#: leading fraction of a queue trace that ``queue_oscillation`` discards
OSC_TRANSIENT = 0.25
#: least swing of a sustained queue cycle, in packets
OSC_MIN_AMPLITUDE = 25.0
#: least swing of a sustained queue cycle, as a fraction of the buffer
OSC_BUFFER_FRACTION = 0.2


@dataclass(frozen=True)
class Topology:
    """Capacities in packets/s, buffers in packets.

    Per-flow propagation is derived from each flow group's base round-trip
    time minus the serialisation chain, so groups with different round-trip
    times can share an edge.
    """

    edge_capacity: tuple
    core_capacity: float
    edge_buffer: tuple
    core_buffer: float

    def __post_init__(self):
        if len(self.edge_capacity) != 2 or len(self.edge_buffer) != 2:
            raise ValueError("edge capacities and buffers need one entry per edge, two each")
        if min(self.edge_capacity) <= 0 or self.core_capacity <= 0:
            raise ValueError("capacities must be positive")
        if min(self.edge_buffer) < 1 or self.core_buffer < 1:
            raise ValueError("buffers must be at least one packet")
        if not all(v < math.inf for v in (*self.edge_capacity, self.core_capacity,
                                          *self.edge_buffer, self.core_buffer)):
            raise ValueError("capacities and buffers must be finite")
        if self.core_capacity >= sum(self.edge_capacity):
            warnings.warn(
                "core capacity is not a bottleneck for the edge aggregate",
                stacklevel=2,
            )


@dataclass(frozen=True)
class FlowGroup:
    """A homogeneous group of flows: count, protocol, base round-trip time,
    which edge they traverse (None = cross traffic straight into the core)
    and the per-flow access-link rate (packets/s).  Propagation delay is
    ``rtt`` less the one-packet serialisation chain (access, edge, core),
    clamped at 1 us, so a shorter ``rtt`` runs at the chain's length
    (fig6-queues set 1 asks 5 ms and runs 7.09 ms)."""

    count: int
    protocol: ProtocolSpec
    rtt: float
    edge: int = 0
    access_rate: float = 200.0

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("group needs at least one flow")
        if self.rtt <= 0 or self.access_rate <= 0:
            raise ValueError("rtt and access rate must be positive")
        if not (self.rtt < math.inf and self.access_rate < math.inf):
            raise ValueError("rtt and access rate must be finite")
        if self.edge not in (None, 0, 1):
            raise ValueError(f"edge must be None (cross traffic), 0 or 1, got {self.edge!r}")


class _Flow:
    __slots__ = (
        "spec", "variant", "gain", "total_gain", "edge", "prop", "access_rate", "set_id",
        "cwnd", "dwnd", "base_rtt", "last_rtt", "next_seq", "in_flight",
        "sent", "delivered", "dropped", "detected", "dropped_pending",
        "recovery_until", "acks_in_round", "round_size", "access_free",
        "access_step", "start_time",
    )

    def __init__(self, spec, edge, prop, access_rate, set_id, start_time):
        self.spec = spec
        self.variant = spec.variant
        # the loss-based window runs Reno's laws under Compound, as in CTCP;
        # Compound's own laws act on the total window after a loss
        compound = spec.variant == COMPOUND
        self.gain = window_laws(ProtocolSpec.reno() if compound else spec).gain
        self.total_gain = window_laws(spec).gain if compound else None
        self.edge = edge
        self.prop = prop
        self.access_rate = access_rate
        self.set_id = set_id
        self.cwnd = 2.0
        self.dwnd = 0.0
        self.base_rtt = math.inf
        self.last_rtt = math.inf
        self.next_seq = 0
        self.in_flight = 0
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self.detected = 0
        self.dropped_pending = deque()
        self.recovery_until = -1
        self.acks_in_round = 0
        self.round_size = 2
        self.access_free = start_time
        self.access_step = 1.0 / access_rate
        self.start_time = start_time

    @property
    def window(self):
        return self.cwnd + self.dwnd


def _on_ack(flow):
    """Per-ack growth of the loss-based window by i(cwnd) = gain(cwnd, 0);
    Compound also runs its per-round delay rule on ``dwnd``
    (flow.last_rtt/base_rtt already updated)."""
    flow.cwnd += flow.gain(flow.cwnd, 0.0)
    if flow.variant == COMPOUND:
        flow.acks_in_round += 1
        if flow.acks_in_round >= flow.round_size:
            w = flow.window
            if math.isfinite(flow.last_rtt) and flow.last_rtt > 0:
                diff = (w / flow.base_rtt - w / flow.last_rtt) * flow.base_rtt
            else:
                diff = 0.0
            if diff < flow.spec.gamma:
                flow.dwnd += max(flow.spec.alpha * w**flow.spec.k - 1.0, 0.0)
            else:
                flow.dwnd = max(flow.dwnd - flow.spec.zeta * diff, 0.0)
            flow.acks_in_round = 0
            flow.round_size = max(int(flow.window), 1)


def _on_loss(flow):
    """Multiplicative backoff after a detected drop: cwnd loses d(cwnd), with
    gain(w, 1) = -d(w).  Compound's dwnd keeps what its own d(w) leaves of the
    total window w above the backed-off cwnd."""
    backed_off = flow.cwnd + flow.gain(flow.cwnd, 1.0)
    if flow.variant == COMPOUND:
        w = flow.window
        flow.dwnd = max(w + flow.total_gain(w, 1.0) - backed_off, 0.0)
    flow.cwnd = max(backed_off, 1.0)


def _detect_losses(flow, acked_seq):
    """Count this delivery against older outstanding drops; apply at most one
    backoff per recovery window."""
    remaining = deque()
    for entry in flow.dropped_pending:
        seq, hits = entry
        if seq < acked_seq:
            hits += 1
            entry[1] = hits
        if hits >= DUPACK_DETECT:
            flow.in_flight -= 1
            flow.detected += 1
            if seq > flow.recovery_until:
                _on_loss(flow)
                flow.recovery_until = flow.next_seq - 1
        else:
            remaining.append(entry)
    flow.dropped_pending = remaining


class _Router:
    """Drop-Tail FIFO router holding the departure times of its packets, oldest
    first; ``run_scenario`` admits arrivals itself."""

    __slots__ = ("name", "rate", "service", "buffer", "departures", "admitted", "drops")

    def __init__(self, name, rate, buffer):
        self.name = name
        self.rate = rate
        self.service = 1.0 / rate
        self.buffer = buffer
        self.departures = deque()
        self.admitted = 0
        self.drops = 0

    def occupancy(self, t):
        """Packets held at ``t``, one departing at ``t`` included."""
        deps = self.departures
        while deps and deps[0] < t:
            deps.popleft()
        return len(deps)


@dataclass
class ScenarioResult:
    queue_traces: dict
    window_traces: dict
    utilization: dict
    drops: dict
    counters: dict
    conservation: dict
    meta: dict = field(default_factory=dict)


def run_scenario(topology, groups, duration, seed=0, sample_dt=0.02):
    """Run the event loop and return sampled traces plus counters.

    Queue occupancy is sampled every ``sample_dt``; each set's mean window is
    sampled once per its configured ``rtt``, though a group whose ``rtt`` is
    below its one-packet serialisation chain runs at the chain's length (see
    ``FlowGroup``).  Deterministic given the seed.

    The heap holds in-flight packet events, unstarted flows and one pending
    sample per series; each event leaves it by one heap operation.  A sample
    keeps the key it would have if every sample were pushed at the start, so
    the tie rule holds: at equal times samples pop first, the rest in push
    order.
    """
    if not duration > 0:
        raise ValueError("duration must be positive")
    if not 0 < sample_dt < math.inf:
        raise ValueError("sample_dt must be positive and finite")
    rng = np.random.default_rng(seed)

    edges = [
        _Router("edge1", topology.edge_capacity[0], topology.edge_buffer[0]),
        _Router("edge2", topology.edge_capacity[1], topology.edge_buffer[1]),
    ]
    core = _Router("core", topology.core_capacity, topology.core_buffer)
    routers = edges + [core]

    flows = []
    set_rtts = {}
    for gi, grp in enumerate(groups):
        set_id = grp.edge if grp.edge is not None else f"cross{gi}"
        serial = 1.0 / grp.access_rate + 1.0 / topology.core_capacity
        if grp.edge is not None:
            serial += 1.0 / topology.edge_capacity[grp.edge]
            set_rtts.setdefault(grp.edge, grp.rtt)
        prop = max(grp.rtt - serial, 1e-6)
        for _ in range(grp.count):
            start = float(rng.uniform(0.0, grp.rtt))
            flows.append(
                _Flow(grp.protocol, grp.edge, prop, grp.access_rate, set_id, start)
            )

    # sampling machinery
    try:
        n_qsamples = int(duration / sample_dt) + 1
        qseries = {r.name: np.zeros(n_qsamples) for r in routers}
        wseries = {set_id: np.zeros(int(duration / rtt) + 1) for set_id, rtt in set_rtts.items()}
    except (OverflowError, ValueError, MemoryError) as exc:
        raise SimulationError(
            f"a run of {duration:g} s sampled every {sample_dt:g} s "
            f"needs more samples than can be stored ({exc})"
        ) from None
    conservation = {
        "t": [], "sent": [], "delivered": [], "dropped": [], "in_network": [],
        "base_rtt": [],
    }

    # Heap entries are (t, tick, kind, payload) with unique ticks, so equal
    # times pop in tick order.  Sample k of a series is due at k * dt with
    # tick = its index among all samples (queue samples, then each set's
    # window samples); starts and packets count on from there.
    heap = []
    if n_qsamples > 0:
        heappush(heap, (0 * sample_dt, 0, "qsample", 0))
    wsets = {}  # set -> (sample spacing, tick of sample 0, samples, member flows)
    tick0 = n_qsamples
    for set_id, rtt in set_rtts.items():
        n = len(wseries[set_id])
        wsets[set_id] = (rtt, tick0, n, [f for f in flows if f.set_id == set_id])
        heappush(heap, (0 * rtt, tick0, "wsample", (set_id, 0)))
        tick0 += n
    next_tick = count(tick0).__next__
    for flow in flows:
        heappush(heap, (flow.start_time, next_tick(), "start", flow))

    # an event is read at the root; its successor (next stage, first released
    # packet, next sample) replaces it, or it is popped
    in_network = 0
    while heap:
        t, _, kind, payload = heap[0]
        if t > duration:
            break
        if kind == "edge" or kind == "core":
            flow = payload[0]
            router = edges[flow.edge] if kind == "edge" else core
            deps = router.departures
            while deps and deps[0] < t:
                deps.popleft()
            if len(deps) >= router.buffer:  # Drop-Tail
                router.drops += 1
                flow.dropped += 1
                flow.dropped_pending.append([payload[1], 0])
                in_network -= 1
                heappop(heap)
                continue
            d = (deps[-1] if deps else t) + router.service
            deps.append(d)
            router.admitted += 1
            if kind == "edge":
                heapreplace(heap, (d, next_tick(), "core", payload))
            else:
                heapreplace(heap, (d + flow.prop, next_tick(), "ack", payload))
            continue
        if kind == "ack":
            flow, seq, sent_t = payload
            in_network -= 1
            flow.delivered += 1
            flow.in_flight -= 1
            rtt = t - sent_t
            flow.last_rtt = rtt
            if rtt < flow.base_rtt:
                flow.base_rtt = rtt
            if flow.dropped_pending:
                _detect_losses(flow, seq)
            _on_ack(flow)
        elif kind == "start":
            flow = payload
        elif kind == "qsample":
            for r in routers:
                qseries[r.name][payload] = r.occupancy(t)
            conservation["t"].append(t)
            conservation["sent"].append(sum(f.sent for f in flows))
            conservation["delivered"].append(sum(f.delivered for f in flows))
            conservation["dropped"].append(sum(f.dropped for f in flows))
            conservation["in_network"].append(in_network)
            conservation["base_rtt"].append([f.base_rtt for f in flows])
            k = payload + 1
            if k < n_qsamples:
                heapreplace(heap, (k * sample_dt, k, "qsample", k))
            else:
                heappop(heap)
            continue
        else:  # "wsample"
            set_id, k = payload
            dt, tick0, n, members = wsets[set_id]
            wseries[set_id][k] = sum([f.cwnd + f.dwnd for f in members]) / len(members)
            k += 1
            if k < n:
                heapreplace(heap, (k * dt, tick0 + k, "wsample", (set_id, k)))
            else:
                heappop(heap)
            continue

        # an ack or a start: release what the window allows onto the access
        # link, back to back
        n = int(flow.cwnd + flow.dwnd) - flow.in_flight
        if n <= 0:
            heappop(heap)
            continue
        kind = "core" if flow.edge is None else "edge"
        step = flow.access_step
        seq = flow.next_seq
        free = flow.access_free
        free = (t if t > free else free) + step
        heapreplace(heap, (free, next_tick(), kind, (flow, seq, t)))
        for seq in range(seq + 1, seq + n):
            free += step
            heappush(heap, (free, next_tick(), kind, (flow, seq, t)))
        flow.access_free = free
        flow.next_seq += n
        flow.in_flight += n
        flow.sent += n
        in_network += n

    meta = {
        "duration": duration,
        "seed": seed,
        "sample_dt": sample_dt,
        "n_flows": len(flows),
    }
    queue_traces = {
        name: Trace(0.0, sample_dt, {"occupancy": arr}, {**meta, "router": name})
        for name, arr in qseries.items()
    }
    window_traces = {
        f"set{set_id + 1}": Trace(
            0.0, set_rtts[set_id], {"w_mean": arr}, {**meta, "set": set_id + 1}
        )
        for set_id, arr in wseries.items()
    }
    # served: departures at or before the end of the run
    served = {r.name: r.admitted - sum(d > duration for d in r.departures) for r in routers}
    utilization = {r.name: served[r.name] / (r.rate * duration) for r in routers}
    drops = {r.name: r.drops for r in routers}
    counters = {
        "sent": sum(f.sent for f in flows),
        "delivered": sum(f.delivered for f in flows),
        "dropped": sum(f.dropped for f in flows),
        "in_network": in_network,
        "detected_losses": sum(f.detected for f in flows),
        "served": served,
        "min_base_rtt": min((f.base_rtt for f in flows), default=math.nan),
    }
    conservation = {k: np.asarray(v) for k, v in conservation.items()}
    return ScenarioResult(queue_traces, window_traces, utilization, drops,
                          counters, conservation, meta)


def queue_oscillation(trace, rtt_mean, buffer_pkts):
    """Classify a queue-occupancy trace as limit cycle or fluctuation.

    The leading ``OSC_TRANSIENT`` of the trace is discarded and the rest
    band-passed to the decade around the expected limit-cycle frequencies
    (pi/(10 rtt) .. 10 pi/rtt): sub-round-trip service ripple and slow drift
    both fall outside.  A sustained cycle must swing by at least
    ``OSC_MIN_AMPLITUDE`` packets and ``OSC_BUFFER_FRACTION`` of the buffer
    (a small buffer bounds the queue excursion to irrelevance by design),
    keep at least half its amplitude in the trailing half of the trace, and
    show a repeating autocorrelation peak.  The absolute floor is calibrated
    to the desk-scale presets (core ~2700 packets/s).
    """
    occ = trace.tail(OSC_TRANSIENT)["occupancy"]
    dt = trace.dt
    w_lo = math.pi / (10.0 * rtt_mean)
    w_hi = min(10.0 * math.pi / rtt_mean, math.pi / dt * 0.9)
    y = bandpass(occ, dt, w_lo, w_hi)
    amplitude = float(np.ptp(y))
    half = len(y) // 2
    first, second = float(np.ptp(y[:half])), float(np.ptp(y[half:]))
    persistence = second / first if first > 0 else 0.0
    period, coherence = autocorr_period(y, dt, w_lo, w_hi)
    sustained = (
        amplitude >= max(OSC_MIN_AMPLITUDE, OSC_BUFFER_FRACTION * buffer_pkts)
        and persistence >= 0.5
        and math.isfinite(period)
        and coherence > 0.05
    )
    return {
        "amplitude": amplitude,
        "period": period,
        "coherence": coherence,
        "persistence": persistence,
        "sustained": bool(sustained),
    }
