"""Desk-scaled scenario presets.

The packet-level reference topology (two 100 Mbps edges into a 197 Mbps
core, 60 flows per set, 2 Mbps access links, 1500-byte packets) is scaled
down by 6x on link capacities and flow counts (10 flows per set), which
preserves the per-flow capacity and per-flow bandwidth-delay product that
the fluid model depends on while keeping runs to seconds.  Intermediate
buffers follow the capacity * mean-RTT / sqrt(n_flows) rule with the
conventional 250 ms dimensioning value.
"""

import math

from .errors import ConfigError
from .units import mbps_to_pkts_per_s

DESK_SCALE = 6.0
EDGE_MBPS = 100.0 / DESK_SCALE
CORE_MBPS = 197.0 / DESK_SCALE
ACCESS_MBPS = 2.0
FLOWS_PER_SET = 10
DIMENSIONING_RTT = 0.250


def intermediate_buffer(capacity_pkts, n_flows):
    """Buffer rule: capacity * DIMENSIONING_RTT / sqrt(n_flows), rounded to packets."""
    return int(round(capacity_pkts * DIMENSIONING_RTT / math.sqrt(n_flows)))


def _packet_config(rtts_ms, edge_buf, core_buf, edge_mbps=EDGE_MBPS, core_mbps=CORE_MBPS):
    """A 90 s Compound run, seed 11, of FLOWS_PER_SET flows per set."""
    return {
        "kind": "packet",
        "topology": {
            "edge_capacity_mbps": [edge_mbps, edge_mbps],
            "core_capacity_mbps": core_mbps,
            "edge_buffer_pkts": [edge_buf, edge_buf],
            "core_buffer_pkts": core_buf,
            "packet_bytes": 1500,
        },
        "groups": [
            {"count": FLOWS_PER_SET, "protocol": {"variant": "compound"},
             "rtt_ms": rtt, "edge": m, "access_mbps": ACCESS_MBPS}
            for m, rtt in enumerate(rtts_ms)
        ],
        "duration_s": 90.0,
        "seed": 11,
        "sample_dt_ms": 20.0,
    }


def _queue_preset(rtts_ms):
    edge_pkts = mbps_to_pkts_per_s(EDGE_MBPS)
    core_pkts = mbps_to_pkts_per_s(CORE_MBPS)
    b_inter = intermediate_buffer(edge_pkts, FLOWS_PER_SET)
    B_inter = intermediate_buffer(core_pkts, 2 * FLOWS_PER_SET)
    return {
        "variants": {
            "buf15": _packet_config(rtts_ms, 15, 15),
            "buf100": _packet_config(rtts_ms, 100, 100),
            "intermediate": _packet_config(rtts_ms, b_inter, B_inter),
        }
    }


def _fig1_coherence():
    """Phase-coherence sweep against link capacity, intermediate buffers:
    per-flow edge capacity swept, aggregate core 1.97x the edge."""
    values = [50.0 * (100.0 ** (i / 19.0)) for i in range(20)]
    base = {
        "kind": "analyze",
        "protocol": {"variant": "compound"},
        "regime": "intermediate",
        "network": {
            "edge_capacity_per_flow_pkts_per_s": values[0],
            "core_capacity_factor": 1.97,
            "rtt_ms": [100.0, 110.0],
            "edge_buffer_pkts": 50.0,
            "core_buffer_pkts": 100.0,
            "edge_burstiness": 1.0,
            "core_burstiness": 1.0,
        },
    }
    return {
        "kind": "sweep",
        "base": base,
        "param_path": "network.edge_capacity_per_flow_pkts_per_s",
        "values": values,
    }


def build_presets():
    presets = {
        "fig1-coherence": _fig1_coherence(),
        "fig4-sync-smallbuf": {
            "variants": {
                "buf15": _packet_config((100.0, 110.0), 15, 15),
                "buf100": _packet_config((100.0, 110.0), 100, 100),
            }
        },
        "fig6-queues": _queue_preset((5.0, 10.0)),
        "fig7-queues": _queue_preset((50.0, 55.0)),
        "fig8-queues": _queue_preset((100.0, 110.0)),
        "fig9-queues": _queue_preset((180.0, 200.0)),
    }
    # intermediate-buffer synchronisation: capacities 1x and 2x, buffers per
    # the dimensioning rule for each capacity
    variants = {}
    for label, fac in (("cap1x", 1.0), ("cap2x", 2.0)):
        edge_mbps = EDGE_MBPS * fac
        core_mbps = CORE_MBPS * fac
        b = intermediate_buffer(mbps_to_pkts_per_s(edge_mbps), FLOWS_PER_SET)
        B = intermediate_buffer(mbps_to_pkts_per_s(core_mbps), 2 * FLOWS_PER_SET)
        variants[label] = _packet_config(
            (100.0, 110.0), b, B, edge_mbps=edge_mbps, core_mbps=core_mbps
        )
    presets["fig5-sync-interbuf"] = {"variants": variants}
    return presets


PRESETS = build_presets()


def preset_names():
    return sorted(PRESETS)


def get_preset(name):
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; known: {', '.join(preset_names())}")
    return PRESETS[name]
