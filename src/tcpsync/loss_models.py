"""Drop-Tail packet loss probability models for edge and core queues.

Two buffer sizing regimes are covered.

Small buffers (tens of packets): loss behaves like the blocking probability
of an M/M/1/b queue driven by the offered load w/(c'*tau); with batch
("bursty") arrivals of constant size n this becomes

    p(w) = (1/n) * (w / (c' tau)) ** (b/n).

Intermediate buffers (sized capacity * mean-RTT / sqrt(#flows)): loss is the
fraction of fluid in excess of capacity,

    p(w) = (1/n) * (w**n - (c' tau)**n)+ / w**n,

zero below capacity.  The core-queue variants take the aggregate arrival
rate of both sets in place of the single-set load.  Setting every
burstiness parameter to 1 recovers the smooth-traffic forms exactly.

The small-buffer power laws are unbounded above capacity, so values are
clamped to [0, 1]; the ``clamped`` flag marks that the operating point left
the model's validity range.  The array functions accept scalars or numpy
arrays and feed trace channels and the :class:`LossResult` API.  Scalar
callers (the equilibrium solvers and the delay-differential right-hand
sides) use the plain-float closures from :func:`edge_loss_fn` and
:func:`core_loss_fn` instead, which skip numpy's per-call overhead.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

SMALL_BUFFER = "small-buffer"
INTERMEDIATE = "intermediate"
REGIMES = (SMALL_BUFFER, INTERMEDIATE)


class LossResult(NamedTuple):
    p: float
    clamped: bool


@dataclass(frozen=True)
class NetworkParams:
    """Per-flow network parameters for one edge set plus the shared core.

    ``c_prime`` is the per-flow edge capacity (packets/s), ``tau`` the
    round-trip time (s), ``b`` the edge buffer (packets) and ``n_e`` the edge
    burstiness (packets/batch).  ``C_tilde`` is twice the per-flow core
    capacity (the aggregate per-flow-pair capacity of the core), ``B`` the
    core buffer and ``n_c`` the core burstiness; they may be omitted for
    problems that never touch the core queue.  Coupled topologies are
    symmetric in everything but the round-trip times, which operations take
    explicitly per set.
    """

    c_prime: float
    tau: float
    b: float
    C_tilde: float = None
    B: float = None
    n_e: float = 1.0
    n_c: float = 1.0

    def __post_init__(self):
        if not self.c_prime > 0:
            raise ValueError("edge capacity must be positive")
        if not self.tau > 0:
            raise ValueError("round-trip time must be positive")
        if not self.b > 0:
            raise ValueError("edge buffer must be positive")
        if not self.n_e >= 1:
            raise ValueError("edge burstiness must be >= 1")
        if not self.n_c >= 1:
            raise ValueError("core burstiness must be >= 1")
        if self.C_tilde is not None and not self.C_tilde > 0:
            raise ValueError("core capacity must be positive")
        if self.B is not None and not self.B > 0:
            raise ValueError("core buffer must be positive")

    @property
    def bdp(self):
        """Per-flow bandwidth-delay product c' * tau, packets."""
        return self.c_prime * self.tau

    def require_core(self):
        if self.C_tilde is None or self.B is None:
            raise ValueError("operation needs core parameters (C_tilde, B)")


def _clamp01(raw):
    clamped = bool(np.any(raw > 1.0))
    return np.minimum(raw, 1.0), clamped


def edge_loss_small(w, c_prime, tau, b, n=1.0):
    """Small-buffer edge loss (1/n)*(w/(c'tau))**(b/n), clamped to [0, 1]."""
    load = np.asarray(w, dtype=float) / (c_prime * tau)
    with np.errstate(over="ignore"):  # overflow lands in the clamp anyway
        raw = load ** (b / n) / n
    p, clamped = _clamp01(raw)
    if np.ndim(w) == 0:
        p = float(p)
    return LossResult(p, clamped)


def edge_loss_intermediate(w, c_prime, tau, n=1.0):
    """Intermediate-buffer edge loss: excess-rate fraction, 0 below capacity."""
    w = np.asarray(w, dtype=float)
    cap = c_prime * tau
    wn = np.maximum(w, cap) ** n
    frac = np.where(w > cap, ((wn - cap**n) / wn) / n, 0.0)
    if frac.ndim == 0:
        frac = float(frac)
    return LossResult(frac, False)


def core_loss_small(w1, w2, tau1, tau2, C_tilde, B, n_c=1.0):
    """Small-buffer core loss from the aggregate rate of both sets."""
    agg = np.asarray(w1, dtype=float) / tau1 + np.asarray(w2, dtype=float) / tau2
    with np.errstate(over="ignore"):
        raw = (agg / C_tilde) ** (B / n_c) / n_c
    p, clamped = _clamp01(raw)
    if np.ndim(p) == 0:
        p = float(p)
    return LossResult(p, clamped)


def core_loss_intermediate(w1, w2, tau1, tau2, C_tilde, n_c=1.0):
    """Intermediate-buffer core loss: aggregate excess-rate fraction."""
    agg = np.asarray(w1, dtype=float) / tau1 + np.asarray(w2, dtype=float) / tau2
    aggn = np.maximum(agg, C_tilde) ** n_c
    frac = np.where(agg > C_tilde, ((aggn - C_tilde**n_c) / aggn) / n_c, 0.0)
    if frac.ndim == 0:
        frac = float(frac)
    return LossResult(frac, False)


def _drop_tail_fn(regime, cap, buf, n):
    """Plain-float p(x) of a Drop-Tail queue serving ``cap`` at offered load
    ``x`` (same units as ``cap``), clamped to [0, 1]."""
    if regime == SMALL_BUFFER:
        exp = buf / n

        def p(x):
            if not x > 0.0:
                return 0.0
            try:
                return min(1.0, (x / cap) ** exp / n)
            except OverflowError:  # the array path overflows to inf and clamps
                return 1.0

        return p
    if regime == INTERMEDIATE:
        capn = cap**n

        def p(x):
            if not x > cap:
                return 0.0
            xn = x**n
            return ((xn - capn) / xn) / n

        return p
    raise ValueError(f"unknown buffer regime {regime!r}")


def edge_loss_fn(regime, c_prime, tau, b, n):
    """Scalar edge loss p(w) of one set's window ``w``; see :func:`edge_loss`."""
    return _drop_tail_fn(regime, c_prime * tau, b, n)


def core_loss_fn(regime, C_tilde, B, n_c):
    """Scalar core loss p(rate) of the aggregate arrival rate of both sets,
    packets/s; each caller forms the rate (sum of w_m/tau_m) itself."""
    return _drop_tail_fn(regime, C_tilde, B, n_c)


def edge_loss(regime, w, net, tau=None):
    """Edge loss for ``regime`` using ``net``; ``tau`` overrides ``net.tau``."""
    t = net.tau if tau is None else tau
    if regime == SMALL_BUFFER:
        return edge_loss_small(w, net.c_prime, t, net.b, net.n_e)
    if regime == INTERMEDIATE:
        return edge_loss_intermediate(w, net.c_prime, t, net.n_e)
    raise ValueError(f"unknown buffer regime {regime!r}")


def core_loss(regime, w1, w2, net, tau1=None, tau2=None):
    """Core loss for ``regime`` using ``net``; taus default to ``net.tau``."""
    net.require_core()
    t1 = net.tau if tau1 is None else tau1
    t2 = net.tau if tau2 is None else tau2
    if regime == SMALL_BUFFER:
        return core_loss_small(w1, w2, t1, t2, net.C_tilde, net.B, net.n_c)
    if regime == INTERMEDIATE:
        return core_loss_intermediate(w1, w2, t1, t2, net.C_tilde, net.n_c)
    raise ValueError(f"unknown buffer regime {regime!r}")
