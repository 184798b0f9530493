"""Equilibrium window solvers for single-edge and coupled systems.

A set of flows is at equilibrium when per-ack growth balances per-loss
backoff:

    i(w*) * (1 - p_total) = d(w*) * p_total,

with p_total the edge loss alone (single system) or edge plus core loss
(coupled system).  The balance residual is strictly decreasing in w for all
three protocols in both regimes (i non-increasing, d increasing, p
non-decreasing), so bracketed bisection is unconditionally safe; speed is
irrelevant at this scale.  ``halve`` is the package's one bisection loop,
shared with the sync solver's frequency scan and coupling window.
"""

import itertools
from dataclasses import dataclass

from .errors import NoRootError
from .loss_models import INTERMEDIATE, SMALL_BUFFER, core_loss_fn, edge_loss_fn
from .protocols import window_laws

#: relative bracket width at which bisection stops
BISECT_RTOL = 1e-13


@dataclass(frozen=True)
class EquilibriumState:
    """Equilibrium of one set of flows.

    ``residual`` is the balance i(w*)(1-p) - d(w*)p left after solving (the
    bracketed term of the fluid model, packets per ack-interval); it should
    be at the bisection noise floor, far below 1e-10.
    """

    w_star: float
    p_edge_star: float
    p_core_star: float
    residual: float

    @property
    def p_total(self):
        return self.p_edge_star + self.p_core_star


def halve(above, lo, hi, steps=None, rtol=0.0):
    """Shrink the bracket [lo, hi] by bisection and return its final ends.

    ``above(mid)`` says whether the target lies above ``mid``.  Halving stops
    after ``steps`` halvings (no cap when None), once the width is at most
    ``rtol * hi``, or once no double lies strictly inside the bracket.
    """
    for _ in itertools.count() if steps is None else range(steps):
        mid = 0.5 * (lo + hi)
        if hi - lo <= rtol * hi or mid <= lo or mid >= hi:
            break
        if above(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _bisect(f, lo, hi):
    """Bisection on a decreasing residual; assumes f(lo) > 0 > f(hi)."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo < 0.0 or fhi > 0.0:
        raise NoRootError(
            f"residual does not change sign on ({lo:g}, {hi:g}): "
            f"f(lo)={flo:g}, f(hi)={fhi:g}",
            bracket=(lo, hi),
        )
    lo, hi = halve(lambda w: f(w) > 0.0, lo, hi, rtol=BISECT_RTOL)
    return 0.5 * (lo + hi)


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
    w = _bisect(lambda w: gain(w, loss(w)), lo, hi)
    p = loss(w)
    return EquilibriumState(w, p, 0.0, gain(w, p))


def solve_coupled(spec, regime, net, tau1, tau2):
    """Simultaneous equilibrium of two sets sharing the core queue.

    The core loss is the only quantity linking the two balance equations, so
    the solver bisects on it: for a trial core loss q each set's window
    w_m(q) comes from its own bracketed bisection, and the implied core loss
    core_loss(w_1(q), w_2(q)) is non-increasing in q (windows fall, the
    aggregate rate falls, the implied core loss falls).  The fixed point
    therefore lies in [0, p0] with p0 the core loss at the edge-only windows,
    and bisecting that interval never evaluates an inner solve at a core
    loss the sets cannot balance.  This stays robust even when the core
    dominates the edge losses, where a damped alternating update diverges.
    """
    net.require_core()
    taus = (tau1, tau2)
    gain = window_laws(spec).gain
    edge = [edge_loss_fn(regime, net.c_prime, tau, net.b, net.n_e) for tau in taus]
    core = core_loss_fn(regime, net.C_tilde, net.B, net.n_c)

    def solve_set(m, p_core):
        # with core loss in play an equilibrium below the edge capacity point
        # is possible even in the intermediate regime, so bracket from near 0
        loss = edge[m]
        return _bisect(lambda w: gain(w, loss(w) + p_core), 1e-6, 10.0 * net.c_prime * taus[m])

    def windows(p_core):
        return [solve_set(m, p_core) for m in (0, 1)]

    def implied(ws):
        return core(ws[0] / tau1 + ws[1] / tau2)

    ws = windows(0.0)
    p_core = implied(ws)
    if p_core > 0.0:
        # capped: from a low end of 0.0, resolution takes ~1,075 halvings
        lo, hi = halve(lambda q: implied(windows(q)) > q, 0.0, p_core, steps=120)
        # report the core loss the solved windows actually produce
        p_core = implied(windows(0.5 * (lo + hi)))
        ws = windows(p_core)

    states = []
    for m in (0, 1):
        p_edge = edge[m](ws[m])
        states.append(EquilibriumState(ws[m], p_edge, p_core, gain(ws[m], p_edge + p_core)))
    return states[0], states[1]
