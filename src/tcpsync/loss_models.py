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
clamped to [0, 1].  Each law is written once, as a plain-float closure
(:func:`edge_loss_fn`, :func:`core_loss_fn`); :func:`edge_loss`,
:func:`core_loss` and trace channels map that same closure over their
input, so a trace's loss channel carries exactly the values the solvers
and integrators used.
"""

from dataclasses import dataclass

import numpy as np

SMALL_BUFFER = "small-buffer"
INTERMEDIATE = "intermediate"
REGIMES = (SMALL_BUFFER, INTERMEDIATE)


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
            except OverflowError:  # far above capacity: the power leaves float range
                return 1.0

        return p
    if regime == INTERMEDIATE:
        try:
            capn = cap**n
        except OverflowError:  # then x**n overflows too for every x > cap
            capn = float("inf")

        def p(x):
            if not x > cap:
                return 0.0
            try:
                xn = x**n
            except OverflowError:  # the same fraction, without forming x**n
                return (1.0 - (cap / x) ** n) / n
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


def loss_at(p, x):
    """Loss closure ``p`` at ``x``: a float for a scalar, else an array of
    ``p`` applied elementwise."""
    if np.ndim(x) == 0:
        return p(float(x))
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(p, x.ravel().tolist()), float, x.size).reshape(x.shape)


def edge_loss(regime, w, net, tau=None):
    """Edge loss at window ``w`` for ``regime`` using ``net``; ``tau``
    overrides ``net.tau``."""
    t = net.tau if tau is None else tau
    return loss_at(edge_loss_fn(regime, net.c_prime, t, net.b, net.n_e), w)


def core_loss(regime, w1, w2, net, tau1=None, tau2=None):
    """Core loss at the sets' windows ``w1``, ``w2`` for ``regime`` using
    ``net``; taus default to ``net.tau``."""
    net.require_core()
    t1 = net.tau if tau1 is None else tau1
    t2 = net.tau if tau2 is None else tau2
    rate = np.asarray(w1, dtype=float) / t1 + np.asarray(w2, dtype=float) / t2
    return loss_at(core_loss_fn(regime, net.C_tilde, net.B, net.n_c), rate)
