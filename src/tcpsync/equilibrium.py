"""Equilibrium window solvers for single-edge and coupled systems.

A set of flows is at equilibrium when per-ack growth balances per-loss
backoff:

    i(w*) * (1 - p_total) = d(w*) * p_total,

with p_total the edge loss alone (single system) or edge plus core loss
(coupled system).  The balance residual is strictly decreasing in w for all
three protocols in both regimes (i non-increasing, d increasing, p
non-decreasing), so a bracketed search is unconditionally safe.  A coupled
solve nests one search inside another, so the count of residual evaluations
is what the solvers' speed is made of.  ``find_root`` is the package's one
bracketed search, shared with the sync solver's frequency scan and
critical coupling.
"""

import math
from dataclasses import dataclass

from .errors import NoRootError
from .loss_models import INTERMEDIATE, SMALL_BUFFER, core_loss_fn, edge_loss_fn
from .protocols import window_laws


@dataclass(frozen=True)
class EquilibriumState:
    """Equilibrium of one set of flows.

    ``residual`` is the balance i(w*)(1-p) - d(w*)p left after solving (the
    bracketed term of the fluid model, packets per ack-interval); it should
    be at the rounding noise floor, far below 1e-10.
    """

    w_star: float
    p_edge_star: float
    p_core_star: float
    residual: float

    @property
    def p_total(self):
        return self.p_edge_star + self.p_core_star


def find_root(f, a, b, fa, fb):
    """Shrink a bracket around a sign change of ``f`` to float resolution.

    ``fa`` = f(a) and ``fb`` = f(b) lie on opposite sides (a value counts as
    positive iff it is > 0, so NaN sides with the negatives), or one of them
    is an exact zero; a and b may come in either order.  This is Brent and
    Dekker's method (Brent, Algorithms for Minimization without Derivatives,
    1973): inverse quadratic or secant interpolation from the better end,
    kept only inside the three quarters of the bracket next to that end, and
    a bisection step instead whenever a value in play is not finite or the
    bracket is wider than bisection would have left it ten steps earlier.
    That last rule bounds the evaluations by bisection's count plus about
    ten, on flat, stepped or multiple roots too.  It stops at an exact zero
    or once no double lies strictly between the ends.  Returns the final
    ends (x, y), x the one with the smaller |f| (x == y at an exact zero).
    """
    c, fc = a, fa  # the previous best end, for the quadratic
    budget = abs(b - a) * 2.0**10  # bisection's width ten steps back
    while True:
        if abs(fa) < abs(fb) or math.isnan(fb):  # b the better end, NaN worst
            a, b, fa, fb = b, a, fb, fa
        if fb == 0.0:
            return b, b
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            return b, a
        budget *= 0.5
        s = mid
        if abs(b - a) <= budget and all(map(math.isfinite, (fa, fb, fc))):
            if c not in (a, b) and fc not in (fa, fb):
                s = (a * fb * fc / ((fa - fb) * (fa - fc))
                     + b * fa * fc / ((fb - fa) * (fb - fc))
                     + c * fa * fb / ((fc - fa) * (fc - fb)))
            else:
                s = b - fb * (b - a) / (fb - fa)
            # keep the step inside the three quarters next to b, and at least
            # one ulp long so that a root next to b ends the search next step
            reach = 0.75 * (a - b)
            step = s - b
            if not (step * reach >= 0.0 and abs(step) <= abs(reach)):
                s = mid
            elif abs(step) < math.ulp(b):
                s = b + math.copysign(math.ulp(b), reach)
                if not abs(s - b) < abs(mid - b):
                    s = mid
        fs = f(s)
        c, fc = b, fb
        if (fs > 0.0) == (fb > 0.0):
            b, fb = s, fs
        else:
            a, fa = s, fs


def _decreasing_root(f, lo, hi):
    """Root of a decreasing residual; requires f(lo) >= 0 >= f(hi)."""
    flo, fhi = f(lo), f(hi)
    if flo < 0.0 or fhi > 0.0:
        raise NoRootError(
            f"residual does not change sign on ({lo:g}, {hi:g}): "
            f"f(lo)={flo:g}, f(hi)={fhi:g}",
            bracket=(lo, hi),
        )
    return find_root(f, lo, hi, flo, fhi)[0]


def _bracket(regime, net):
    cap = net.c_prime * net.tau
    if regime == SMALL_BUFFER:
        return 1e-6, 10.0 * cap
    if regime == INTERMEDIATE:
        # below capacity the edge loss is identically zero, so a purely
        # edge-driven system has no interior root there
        return cap * (1.0 + 1e-9), 10.0 * cap
    raise ValueError(f"unknown buffer regime {regime!r}")


def solve_single(spec, regime, net):
    """Equilibrium of one edge set in isolation (no core loss)."""
    gain = window_laws(spec).gain
    loss = edge_loss_fn(regime, net.c_prime, net.tau, net.b, net.n_e)
    lo, hi = _bracket(regime, net)
    w = _decreasing_root(lambda w: gain(w, loss(w)), lo, hi)
    p = loss(w)
    return EquilibriumState(w, p, 0.0, gain(w, p))


def solve_coupled(spec, regime, net, tau1, tau2):
    """Simultaneous equilibrium of two sets sharing the core queue.

    The core loss is the only quantity linking the two balance equations, so
    the solver searches on it: for a trial core loss q each set's window
    w_m(q) comes from its own bracketed search, and the implied core loss
    core_loss(w_1(q), w_2(q)) is non-increasing in q (windows fall, the
    aggregate rate falls, the implied core loss falls).  The fixed point
    therefore lies in [0, p0] with p0 the core loss at the edge-only windows.
    At q = p0 itself a set may have no balance at all; the search then takes
    that end as lying above the fixed point, which it does.  This stays
    robust even when the core dominates the edge losses, where a damped
    alternating update diverges.

    Because w_m(q) does not increase with q, the windows solved at the
    nearest trial losses below and above q bracket w_m(q); each inner search
    starts from that bracket and falls back to the full one when rounding
    leaves it without a sign change.
    """
    net.require_core()
    taus = (tau1, tau2)
    gain = window_laws(spec).gain
    edge = [edge_loss_fn(regime, net.c_prime, tau, net.b, net.n_e) for tau in taus]
    core = core_loss_fn(regime, net.C_tilde, net.B, net.n_c)
    # with core loss in play an equilibrium below the edge capacity point is
    # possible even in the intermediate regime, so bracket from near 0
    full = [(1e-6, 10.0 * net.c_prime * tau) for tau in taus]
    solved = {}  # trial core loss -> the two windows solved there

    def windows(q):
        below = max((k for k in solved if k < q), default=None)
        above = min((k for k in solved if k > q), default=None)
        ws = []
        for m in (0, 1):
            lo, hi = full[m]
            if above is not None:
                lo = solved[above][m]
            if below is not None:
                hi = solved[below][m]

            def f(w, loss=edge[m]):
                return gain(w, loss(w) + q)

            try:
                ws.append(_decreasing_root(f, lo, hi))
            except NoRootError:
                if (lo, hi) == full[m]:
                    raise
                ws.append(_decreasing_root(f, *full[m]))
        solved[q] = ws
        return ws

    def excess(q):
        ws = windows(q)
        return core(ws[0] / tau1 + ws[1] / tau2) - q

    p_core = excess(0.0)
    if p_core > 0.0:
        try:
            top = excess(p_core)
        except NoRootError:
            top = -math.inf
        p_core = find_root(excess, 0.0, p_core, p_core, top)[0]
    ws = solved[p_core]  # the better end is a trial loss, already solved

    states = []
    for m in (0, 1):
        p_edge = edge[m](ws[m])
        states.append(EquilibriumState(ws[m], p_edge, p_core, gain(ws[m], p_edge + p_core)))
    return states[0], states[1]
