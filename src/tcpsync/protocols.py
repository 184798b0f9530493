"""Window increase/decrease laws for Compound, Reno and Illinois TCP.

Each protocol is reduced to a pair of functions of the current window ``w``
(in packets): the per-ack increment ``i(w)`` and the per-loss decrement
``d(w)``:

    Compound:  i(w) = alpha * w**(k-1),   d(w) = beta * w
    Reno:      i(w) = 1/w,                d(w) = w/2
    Illinois:  i(w) = alpha_max/w,        d(w) = beta_min * w

Illinois is modelled in its negligible-queueing-delay regime, where its
delay-adaptive gains sit at alpha_max / beta_min.  The generalised fluid
model advances the mean window of a set of flows at rate

    dw/dt = (w(t-tau)/tau) * [ i(w(t)) * (1 - p) - d(w(t)) * p ]

where ``p`` is the (delayed) packet loss probability seen by the set.
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple

COMPOUND = "compound"
RENO = "reno"
ILLINOIS = "illinois"
VARIANTS = (COMPOUND, RENO, ILLINOIS)


@dataclass(frozen=True)
class ProtocolSpec:
    """A TCP variant plus its parameters.

    ``gamma`` (queue-backlog threshold, packets) and ``zeta`` (backlog drain
    gain) only matter to the packet-level Compound implementation; the fluid
    model never sees them.
    """

    variant: str
    alpha: float = 0.125
    beta: float = 0.5
    k: float = 0.75
    gamma: float = 30.0
    zeta: float = 0.5
    alpha_max: float = 10.0
    beta_min: float = 0.125

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown TCP variant {self.variant!r}")
        if self.variant == COMPOUND:
            if not self.alpha > 0:
                raise ValueError("Compound requires alpha > 0")
            if not 0 < self.beta < 1:
                raise ValueError("Compound requires 0 < beta < 1")
            if not 0 <= self.k <= 1:
                raise ValueError("Compound requires 0 <= k <= 1")
        if self.variant == ILLINOIS:
            if not self.alpha_max > 0:
                raise ValueError("Illinois requires alpha_max > 0")
            if not 0 < self.beta_min < 1:
                raise ValueError("Illinois requires 0 < beta_min < 1")

    @classmethod
    def compound(cls, **params):
        return cls(COMPOUND, **params)

    @classmethod
    def reno(cls):
        return cls(RENO)

    @classmethod
    def illinois(cls, **params):
        return cls(ILLINOIS, **params)


class WindowLaws(NamedTuple):
    """Plain-float closures of one variant's window laws.

    ``increase(w)`` is i(w), ``decrease(w)`` is d(w) and ``gain(w, p)`` the
    bracketed fluid term i(w)(1-p) - d(w)p.  None of them checks its domain,
    so hot loops can call them directly.
    """

    increase: Callable
    decrease: Callable
    gain: Callable


def window_laws(spec):
    """The :class:`WindowLaws` of ``spec``.

    Each variant's laws are written out once, inside its gain; in floating
    point i(w) = gain(w, 0) and d(w) = -gain(w, 1) hold exactly, so the
    gain costs one call in the integrator's inner loop.
    """
    if spec.variant == COMPOUND:
        # k = 1 degenerates to the constant alpha, k = 0 to alpha/w.
        alpha, beta, km1 = spec.alpha, spec.beta, spec.k - 1.0

        def gain(w, p):
            return alpha * w**km1 * (1.0 - p) - beta * w * p

    elif spec.variant == RENO:

        def gain(w, p):
            return (1.0 / w) * (1.0 - p) - (w / 2.0) * p

    else:
        amax, bmin = spec.alpha_max, spec.beta_min

        def gain(w, p):
            return (amax / w) * (1.0 - p) - bmin * w * p

    return WindowLaws(lambda w: gain(w, 0.0), lambda w: -gain(w, 1.0), gain)


def increase_fn(spec, w):
    """Per-ack window increment i(w), packets.  Requires w > 0."""
    if not w > 0:
        raise ValueError(f"window must be positive, got {w}")
    return window_laws(spec).increase(w)


def decrease_fn(spec, w):
    """Per-loss window decrement d(w), packets.  Requires w > 0."""
    if not w > 0:
        raise ValueError(f"window must be positive, got {w}")
    return window_laws(spec).decrease(w)


def elasticity_gap(spec):
    """w*d'(w)/d(w) - w*i'(w)/i(w), a constant for all three variants."""
    if spec.variant == COMPOUND:
        return 2.0 - spec.k
    return 2.0


def g_factor(spec, w_star, p_star):
    """Damping factor of the linearised window dynamics at an equilibrium.

    Defined as (w d'/d - w i'/i) * d/(i+d) at w = w_star.  At an equilibrium
    the loss probability satisfies p* = i/(i+d), so d/(i+d) = 1 - p* and the
    factor reduces to (2-k)(1-p*) for Compound and 2(1-p*) for Reno and
    Illinois.  Taking p* as an input lets the same routine serve both buffer
    regimes.
    """
    if not w_star > 0:
        raise ValueError(f"window must be positive, got {w_star}")
    if not 0.0 < p_star < 1.0:
        raise ValueError(f"equilibrium loss probability must lie in (0, 1), got {p_star}")
    return elasticity_gap(spec) * (1.0 - p_star)

