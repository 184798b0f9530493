"""Unit conversions used at configuration parsing time.

All internal quantities are packets, seconds and packets/second.  Conversion
from link speeds in Mbps is done with exact rational arithmetic so that e.g.
100 Mbps with 1500-byte packets is exactly 250000/30 packets/s; rounding
happens only when a value is printed.
"""

from fractions import Fraction

DEFAULT_PACKET_BYTES = 1500


def mbps_to_pkts_per_s(mbps, packet_bytes=DEFAULT_PACKET_BYTES):
    """Convert a link speed in Mbps to packets per second (exact, then float)."""
    if packet_bytes <= 0:
        raise ValueError("packet size must be positive")
    rate = Fraction(mbps) * Fraction(10**6) / Fraction(8 * packet_bytes)
    return float(rate)


def ms_to_s(ms):
    return float(ms) / 1000.0
