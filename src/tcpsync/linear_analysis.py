"""Linearised dynamics: intrinsic frequencies, coupling strengths, stability.

Linearising the fluid window model of one set about its equilibrium gives a
scalar delay system

    du/dt = -a * u(t) - c * u(t - tau),

whose coefficients depend on the protocol and the buffer regime:

    small buffers:        a = i(w*) g / tau,   c = i(w*) (b/n_e) / tau
    intermediate buffers: a = i(w*) g / tau,   c = (i+d)(c')^n tau^(n-1) / w*^n

with g the equilibrium damping factor.  When c > a the system crosses into
instability and oscillates at the crossing frequency

    omega = sqrt(c**2 - a**2),

which is the intrinsic frequency of the emerging limit cycle, approximated
as harmonic.  For smooth traffic (n = 1) the protocol-specific closed forms
of omega are provided as an independent arithmetic path and must agree with
the generic evaluation.

When two equally-coupled sets share a core queue, the phase interaction
between their limit cycles carries a coupling strength:

    small buffers:        K_s = i(w*) / (tau * (1 + p_edge/p_core))
    intermediate buffers: K_i = (i+d) * C~^n_c / (2^(n_c+1) w*^n_c tau^(1-n_c))

An infeasible frequency radicand (c <= |a|) is reported as data, an
intrinsic frequency of None, rather than raised, so parameter sweeps can
chart the feasibility boundary.
"""

import math

from .errors import UnsupportedConfigError
from .loss_models import INTERMEDIATE, SMALL_BUFFER, core_loss, edge_loss
from .protocols import COMPOUND, RENO, decrease_fn, g_factor, increase_fn
from .sync_solver import equal_gains


def _in_float_range(coefficient, queue, n):
    """``coefficient()``, positive in exact arithmetic, or an UnsupportedConfigError
    when the ``queue``'s burstiness power ``n`` takes it out of float range."""
    try:
        value = coefficient()
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise UnsupportedConfigError(f"{queue} burstiness {n:g} takes the "
                                     "intermediate-buffer linearisation out of float range")
    return value


def delay_coefficients(spec, regime, net, eq):
    """Coefficients (a, c) of the linearised single-set delay system."""
    i = increase_fn(spec, eq.w_star)
    g = g_factor(spec, eq.w_star, eq.p_total)
    a = i * g / net.tau
    if regime == SMALL_BUFFER:
        c = i * (net.b / net.n_e) / net.tau
    elif regime == INTERMEDIATE:
        d = decrease_fn(spec, eq.w_star)
        n = net.n_e
        c = _in_float_range(
            lambda: (i + d) * net.c_prime**n * net.tau ** (n - 1.0) / eq.w_star**n, "edge", n
        )
    else:
        raise ValueError(f"unknown buffer regime {regime!r}")
    return a, c


def intrinsic_frequency(spec, regime, net, eq):
    """Intrinsic limit-cycle frequency (rad/s) of one set: the crossing
    frequency of its linearisation, or None when c <= |a| and there is none."""
    a, c = delay_coefficients(spec, regime, net, eq)
    return crossing_frequency(a, c) if c > abs(a) else None


def closed_form_frequency(spec, regime, w_star, p_star, tau, b=None, n=1.0):
    """Protocol-specific intrinsic frequency rows for smooth traffic.

    These are the per-protocol specialisations of the generic radicand; the
    two paths agreeing over random feasible parameters is the module's
    internal-consistency check.  Only n = 1 has tabulated rows.
    """
    if n != 1.0:
        raise UnsupportedConfigError("closed-form rows exist only for smooth traffic (n = 1)")
    if regime == SMALL_BUFFER:
        if b is None:
            raise ValueError("small-buffer closed form needs the edge buffer b")
        if spec.variant == COMPOUND:
            rad = b * b - (spec.k - 2.0) ** 2 * (1.0 - p_star) ** 2
            pref = spec.alpha * w_star ** (spec.k - 1.0) / tau
        elif spec.variant == RENO:
            rad = b * b - 4.0 * (1.0 - p_star) ** 2
            pref = 1.0 / (w_star * tau)
        else:
            rad = b * b - 4.0 * (1.0 - p_star) ** 2
            pref = spec.alpha_max / (w_star * tau)
    elif regime == INTERMEDIATE:
        if spec.variant == COMPOUND:
            rad = 1.0 - (spec.k - 2.0) ** 2 * p_star * p_star
            pref = spec.beta * w_star / tau
        elif spec.variant == RENO:
            rad = 1.0 - 4.0 * p_star * p_star
            pref = w_star / (2.0 * tau)
        else:
            rad = 1.0 - 4.0 * p_star * p_star
            pref = spec.beta_min * w_star / tau
    else:
        raise ValueError(f"unknown buffer regime {regime!r}")
    if rad < 0.0:
        raise ValueError("negative radicand: configuration has no oscillatory frequency")
    return pref * math.sqrt(rad)


def coupling_strength(spec, regime, net, eq):
    """Coupling strength K (1/s) of two equally-coupled sets sharing the core.

    ``eq`` is the per-set equilibrium of the symmetric configuration (both
    sets at the same operating point, round-trip time ``net.tau``).
    """
    net.require_core()
    i = increase_fn(spec, eq.w_star)
    if regime == SMALL_BUFFER:
        p_edge = edge_loss(regime, eq.w_star, net)
        p_core = core_loss(regime, eq.w_star, eq.w_star, net)
        if p_core <= 0.0:
            raise UnsupportedConfigError(
                "core loss is zero at the operating point; the sets are uncoupled"
            )
        k = i / (net.tau * (1.0 + p_edge / p_core))
    elif regime == INTERMEDIATE:
        d = decrease_fn(spec, eq.w_star)
        nc = net.n_c
        k = _in_float_range(lambda: (i + d) * net.C_tilde**nc / (
            2.0 ** (nc + 1.0) * eq.w_star**nc * net.tau ** (1.0 - nc)), "core", nc)
    else:
        raise ValueError(f"unknown buffer regime {regime!r}")
    return k


def closed_form_coupling(spec, regime, w_star, tau=None, b=None, B=None,
                         c_rtt=None, C_rtt=None, C_tilde=None, n=1.0):
    """Protocol-specific coupling strength rows for smooth traffic.

    The small-buffer rows are written in per-round-trip capacity units:
    ``c_rtt`` is the per-flow edge capacity times the round-trip time
    (packets/RTT) and ``C_rtt`` the analogous aggregate core figure, so the
    edge/core loss ratio appears as (w*/c_rtt)**b / (2w*/C_rtt)**B.  The
    intermediate rows need only the aggregate core rate ``C_tilde``.
    """
    if n != 1.0:
        raise UnsupportedConfigError("closed-form rows exist only for smooth traffic (n = 1)")
    if regime == SMALL_BUFFER:
        if None in (tau, b, B, c_rtt, C_rtt):
            raise ValueError("small-buffer closed form needs tau, b, B, c_rtt, C_rtt")
        ratio = (w_star / c_rtt) ** b / (2.0 * w_star / C_rtt) ** B
        if spec.variant == COMPOUND:
            num = spec.alpha * w_star ** (spec.k - 1.0)
        elif spec.variant == RENO:
            num = 1.0 / w_star
        else:
            num = spec.alpha_max / w_star
        return num / (tau * (1.0 + ratio))
    if regime == INTERMEDIATE:
        if C_tilde is None:
            raise ValueError("intermediate closed form needs C_tilde")
        if spec.variant == COMPOUND:
            return (spec.alpha * w_star ** (spec.k - 2.0) + spec.beta) * C_tilde / 4.0
        if spec.variant == RENO:
            return (2.0 / w_star**2 + 1.0) * C_tilde / 8.0
        return (spec.alpha_max / w_star**2 + spec.beta_min) * C_tilde / 4.0
    raise ValueError(f"unknown buffer regime {regime!r}")


def coupled_symmetric_coefficients(spec, regime, net, eq):
    """Linearised coefficients of the symmetric coupled system.

    Returns (a, c_self, c_cross) for the pair of delay equations

        du_m/dt = -a u_m(t) - c_self u_m(t-tau) - c_cross u_other(t-tau),

    that is the single-set (a, c) of ``delay_coefficients`` with
    c_self = c + D and c_cross = S, the equal-coupling gains of
    ``sync_solver.equal_gains`` at the coupling strength of ``eq``.
    The symmetric perturbation mode sees c_self + c_cross, the antisymmetric
    mode c_self - c_cross; each mode is a scalar delay system amenable to
    ``critical_delay``.  ``eq`` should be the symmetric coupled equilibrium.
    """
    a, c = delay_coefficients(spec, regime, net, eq)
    k = coupling_strength(spec, regime, net, eq)
    d, s = equal_gains(regime, k, net.B, net.b, net.n_c, net.n_e)
    return a, c + d, s


def crossing_frequency(a, c):
    """Frequency at which du/dt = -a u - c u(t-tau) crosses into instability."""
    if c <= abs(a):
        raise ValueError("no imaginary-axis crossing exists for c <= |a|")
    return math.sqrt(c * c - a * a)


def critical_delay(a, c):
    """Delay at which du/dt = -a u - c u(t-tau) loses stability.

    Valid for a >= 0 and c >= 0 (the fluid linearisations always give
    non-negative coefficients).  Returns None when c <= a: the system is
    then stable for every delay.
    """
    if a < 0 or c < 0:
        raise ValueError("critical_delay assumes a >= 0 and c >= 0")
    if c <= a:
        return None
    omega = crossing_frequency(a, c)
    return math.acos(-a / c) / omega
