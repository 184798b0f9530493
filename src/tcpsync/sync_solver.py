"""Synchronised states of two delay-coupled TCP limit-cycle oscillators.

The linearised coupled dynamics reduce to two phase oscillators whose
locked states (common frequency Omega, constant phase difference phi0,
with set 1 leading: theta1 = Omega*t, theta2 = Omega*t - phi0) satisfy the
steady-state pair

    Omega = omega_1 + D sin(Omega tau) + S sin(Omega tau + phi0)
    Omega = omega_2 + D sin(Omega tau) + S sin(Omega tau - phi0)

where the self-interaction gain D and the cross-interaction gain S of the
equal-coupling reduction depend on the buffer regime (``equal_gains``):

    small buffers:        S = K_s B/(2 n_c),  D = K_s (B/(2 n_c) - b/n_e)
    intermediate buffers: S = K_i,            D = K_i.

Differencing the pair gives the phase-balance relation
2 S sin(phi0) cos(Omega tau) = omega_2 - omega_1, which is how the solver
parameterises phi0 while scanning Omega.  Solving the pair (rather than the
averaged relation) keeps the exact exchange symmetry: swapping omega_1 and
omega_2 negates phi0 and preserves Omega.

In both regimes a locked state is locally stable iff

    (D + S) cos(Omega tau) < 0

(strict; equality is reported as marginal, not stable), the equal-delay
criterion of Earl & Strogatz (PRE 67, 2003).  The phase model that
``dde_sim.phase_model_equal`` builds integrates the same D and S, as the
coupling matrix ((-D, -S), (-S, -D)).  An empty root list is a valid answer:
below the critical coupling no locked state exists.

Both gains scale with K, D = K delta and S = K sigma, so eliminating phi0
from the pair leaves the explicit locked-state curve K(Omega) (Schuster &
Wagner, Prog. Theor. Phys. 81, 1989; Yeung & Strogatz, PRL 82, 1999): with
a = Omega tau, X = (omega_2 - omega_1)/(2 cos a) and
Y = (Omega - mean omega)/sin a, a locked state at frequency Omega exists at
every K >= 0 that solves

    (sigma^2 - delta^2) K^2 + 2 delta Y K - (X^2 + Y^2) = 0.

``critical_coupling`` is the curve's minimum.  The scan's per-cell search on
the averaged relation and the curve's polish on the sign of K'(Omega) both
run ``equilibrium.find_root``, a bracketed Brent-Dekker search that stops at
float resolution.  A scanned candidate is listed only when its Newton polish
solves the pair to ``POLISH_RTOL`` of the frequency scale, or to its
rounding floor ``FLOOR_RTOL`` where that is larger (Omega tau in the
hundreds), so no state is listed below K_c.

The scan yields states as it accepts them, and evaluates its grid in two
pieces split at 2 mean(omega), each only once a branch reaches it: a caller
that stops early, as a ``coupling_range`` verdict does at the first stable
state, pays only for the piece of the grid it has reached.
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .equilibrium import find_root
from .loss_models import INTERMEDIATE, REGIMES

#: number of points in the frequency scan grid
SCAN_POINTS = 10_000
#: tolerance on the polished steady-state pair, relative to the frequency scale
POLISH_RTOL = 1e-13
#: a polish stalled above POLISH_RTOL lists its root within 8 eps of the pair's
#: term magnitudes, the sine terms' grown by Omega tau (its rounding floor)
FLOOR_RTOL = 8 * 2.0 ** -52

TWO_PI = 2.0 * math.pi


def equal_gains(regime, K, B, b, n_c, n_e):
    """(D, S) of the equal-coupling reduction at coupling strength K.

    The small-buffer cross gain is K times the core's buffer per batch over
    two, B/(2 n_c); the self gain subtracts the edge's b/n_e from it, so
    D + S is exactly zero when B/n_c equals b/n_e (the marginal case of the
    stability rule).
    """
    if regime == INTERMEDIATE:
        return K, K
    if B is None or b is None:
        raise ValueError("small-buffer sync problem needs B and b")
    cross = B / (2.0 * n_c)
    return K * (cross - b / n_e), K * cross


@dataclass(frozen=True)
class SyncProblem:
    """Inputs of a synchronisation problem.

    Intrinsic frequencies must be weakly detuned (the reduction assumes the
    two round-trip times are nearly equal, with ``tau`` their common value).
    Small-buffer problems also carry the core/edge buffer-per-batch ratios.
    ``omega_max`` bounds the frequency scan, (0, omega_max]; None selects
    (0, max(4 mean(omega), 4 pi / tau)].
    """

    omega1: float
    omega2: float
    K: float
    tau: float
    regime: str
    B: float = None
    b: float = None
    n_c: float = 1.0
    n_e: float = 1.0
    omega_max: float = None

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError(f"unknown buffer regime {self.regime!r}")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"delay tau must be finite and positive, got {self.tau!r}")
        if not (math.isfinite(self.omega1) and math.isfinite(self.omega2)):
            raise ValueError("intrinsic frequencies must be finite")
        if not (math.isfinite(self.K) and self.K >= 0):
            raise ValueError("coupling strength must be finite and non-negative")
        if not (self.n_c >= 1 and self.n_e >= 1):
            raise ValueError("core and edge burstiness must be >= 1")
        if self.omega_max is not None and not self.omega_max > 0:
            raise ValueError("omega_max must be positive")

    def gains(self):
        """(D, S): net self-interaction and cross-interaction gains."""
        return equal_gains(self.regime, self.K, self.B, self.b, self.n_c, self.n_e)

    def stability_factor(self, Omega):
        return _stability_factor(*self.gains(), self.tau, Omega)


def _stability_factor(d, s, tau, Omega):
    """(D + S) cos(Omega tau): the locked state is stable iff it is negative."""
    return (d + s) * math.cos(Omega * tau)


@dataclass(frozen=True)
class SyncState:
    """One locked state.  ``order_r`` is the phase coherence cos(phi0/2)."""

    Omega: float
    phi0: float
    stable: bool
    marginal: bool
    residual_freq: float
    residual_phase: float
    order_r: float


def _wrap(angle):
    """Wrap to (-pi, pi]."""
    a = (angle + math.pi) % TWO_PI - math.pi
    return math.pi if a == -math.pi else a


def _pair_residuals(problem, d, s, Omega, phi):
    ot = Omega * problem.tau
    self_term = d * math.sin(ot)
    f1 = problem.omega1 + self_term + s * math.sin(ot + phi) - Omega
    f2 = problem.omega2 + self_term + s * math.sin(ot - phi) - Omega
    return f1, f2


def _newton_polish(problem, d, s, Omega, phi, scale):
    """Damped Newton on the steady-state pair from (Omega, phi): the root,
    phi wrapped, as soon as both residuals are within ``POLISH_RTOL`` of
    ``scale``, or after 60 steps at the rounding floor (``FLOOR_RTOL``; it is
    the larger at Omega tau in the hundreds); None otherwise, as for the
    candidates below K_c, or when the Jacobian is singular."""
    tau = problem.tau
    for steps in range(61):
        f1, f2 = _pair_residuals(problem, d, s, Omega, phi)
        err = max(abs(f1), abs(f2))
        if err <= POLISH_RTOL * scale:
            return Omega, _wrap(phi)
        if steps == 60:
            terms = (abs(Omega) + max(abs(problem.omega1), abs(problem.omega2))
                     + (abs(d) + abs(s)) * (1.0 + abs(Omega * tau)))
            return (Omega, _wrap(phi)) if err <= FLOOR_RTOL * terms else None
        ot = Omega * tau
        c, cp, cm = math.cos(ot), math.cos(ot + phi), math.cos(ot - phi)
        j11 = d * tau * c + s * tau * cp - 1.0
        j12 = s * cp
        j21 = d * tau * c + s * tau * cm - 1.0
        j22 = -s * cm
        det = j11 * j22 - j12 * j21
        if det == 0.0:
            return None
        d_om = (f1 * j22 - f2 * j12) / det
        d_ph = (j11 * f2 - j21 * f1) / det
        # damped step: halve until the residual does not grow; it reaches the
        # roots near |sin phi0| = 1 from the clamped half-feasible candidates
        step = 1.0
        for _ in range(25):
            om_n, ph_n = Omega - step * d_om, phi - step * d_ph
            g1, g2 = _pair_residuals(problem, d, s, om_n, ph_n)
            if max(abs(g1), abs(g2)) <= err:
                break
            step *= 0.5
        Omega, phi = om_n, ph_n


def _make_state(problem, d, s, Omega, phi):
    f1, f2 = _pair_residuals(problem, d, s, Omega, phi)
    detuning = problem.omega2 - problem.omega1
    phase_res = 2.0 * s * math.sin(phi) * math.cos(Omega * problem.tau) - detuning
    norm = 1.0 + abs(Omega)
    factor = _stability_factor(d, s, problem.tau, Omega)
    return SyncState(
        Omega=Omega,
        phi0=phi,
        stable=factor < 0.0,
        marginal=factor == 0.0,
        residual_freq=abs(f1) / norm,
        residual_phase=abs(phase_res) / norm,
        order_r=math.cos(phi / 2.0),
    )


def _omega_max(problem):
    """Upper end of the scanned frequency range (0, omega_max]."""
    if problem.omega_max is not None:
        return problem.omega_max
    omega_bar = 0.5 * (problem.omega1 + problem.omega2)
    return max(4.0 * omega_bar, 4.0 * math.pi / problem.tau)


@functools.lru_cache(maxsize=1)
def _scan_grid(omega_max, tau):
    """The read-only scan grid and its cos and sin of grid * tau; they do
    not depend on K, so every solve of a coupling sweep shares one copy."""
    grid = np.linspace(0.0, omega_max, SCAN_POINTS + 1)[1:]
    arrays = (grid, np.cos(grid * tau), np.sin(grid * tau))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _scan_roots(problem):
    """Yield the locked states in scan order, each as soon as it is accepted.

    Both arcsin branches of phi0(Omega) are grid-scanned, the cos(phi0) > 0
    branch first.  Within each contiguous feasible run of the grid the
    averaged relation G(Omega) = mean(omega) + D sin + S sin cos(phi0) - Omega
    is sign-scanned; each crossing, in grid order, is solved on its cell by
    ``find_root`` and handed to a joint Newton polish of the full
    steady-state pair, and yielded once the polish converges unless it leaves
    (0, problem.omega_max] or repeats a root already yielded.  A caller that
    stops early has seen a prefix of the full root set.

    The grid is evaluated in two pieces, up to its first point at or above
    2 mean(omega) and the rest (one piece when that point is the grid's
    first or last, or there is none), each when a branch first reaches it;
    the second branch reuses the piece's branch-independent arrays.  A
    caller that stops early pays only for the pieces it has reached.
    """
    omega_bar = 0.5 * (problem.omega1 + problem.omega2)
    omega_max = _omega_max(problem)
    if problem.K == 0.0:
        # uncoupled: a common frequency exists only without detuning, and the
        # phase difference is then undetermined; report the zero representative
        if problem.omega1 == problem.omega2:
            yield _make_state(problem, *problem.gains(), problem.omega1, 0.0)
        return
    d, s = problem.gains()
    detuning = problem.omega2 - problem.omega1
    tau = problem.tau
    scale = max(1.0, abs(problem.omega1), abs(problem.omega2), abs(s), abs(d))

    grid, cos_ot, sin_ot = _scan_grid(omega_max, tau)
    # most sweep verdicts stop at a stable state below 2 mean(omega) (395 of
    # 480 on the analyze benchmark's seed 1061), so the grid splits at its
    # first point at or above that; the two pieces share the point
    last = len(grid) - 1
    cut = int(np.searchsorted(grid, 2.0 * omega_bar))
    bounds = (0, cut, last) if 0 < cut < last else (0, last)

    @functools.cache
    def piece(lo, hi):
        """The branch-independent arrays on grid points lo..hi: whether each
        cell holds a feasible end, mean(omega) + D sin, and S sin cos(phi0)."""
        points = slice(lo, hi + 1)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            sin_phi = detuning / (2.0 * s * cos_ot[points])
        feasible = np.abs(sin_phi) <= 1.0  # false for NaN and inf
        # clamping continues the scan function smoothly onto the feasibility
        # boundary |sin phi0| = 1, where saddle-node root pairs sit; crossings
        # found on half-feasible segments are validated by the Newton polish;
        # fmin maps NaN to 1
        sin_phi_cl = np.fmax(np.fmin(sin_phi, 1.0), -1.0)
        cos_phi_mag = np.sqrt(1.0 - sin_phi_cl**2)
        return (feasible[:-1] | feasible[1:], omega_bar + d * sin_ot[points],
                s * sin_ot[points] * cos_phi_mag)

    def branch_at(om, sign):
        """Scalar (sin phi0, G) on one branch, sin phi0 clamped as on the grid."""
        sp = detuning / (2.0 * s * math.cos(om * tau))
        if not math.isfinite(sp):
            sp = 2.0
        sp = min(1.0, max(-1.0, sp))
        cp = sign * math.sqrt(max(0.0, 1.0 - sp * sp))
        return sp, omega_bar + d * math.sin(om * tau) + s * math.sin(om * tau) * cp - om

    roots = []
    for sign in (+1.0, -1.0):  # cos(phi0) > 0 branch, then the pi-complement
        for lo, hi in zip(bounds, bounds[1:]):
            ok, base, cross = piece(lo, hi)
            g = (base + cross if sign > 0 else base - cross) - grid[lo:hi + 1]
            sign_g = np.sign(g)
            flip = ok & (sign_g[:-1] != sign_g[1:])
            for i in np.nonzero(flip)[0]:
                # the grid's own values of G open the search on the cell
                om = find_root(lambda om: branch_at(om, sign)[1],
                               grid[lo + i], grid[lo + i + 1], g[i], g[i + 1])[0]
                asin_sp = math.asin(branch_at(om, sign)[0])
                phi = asin_sp if sign > 0 else _wrap(math.pi - asin_sp)
                polished = _newton_polish(problem, d, s, om, phi, scale)
                if polished is None:
                    continue
                om, phi = polished
                if om <= 0.0 or om > omega_max * (1.0 + 1e-9):
                    continue
                # phases compare wrapped: pi and -pi + 1e-16 are one antiphase state
                if any(abs(om - o) <= 1e-7 * (1.0 + abs(o)) and abs(_wrap(phi - p)) <= 1e-6
                       for o, p in roots):
                    continue
                roots.append((om, phi))
                yield _make_state(problem, d, s, om, phi)


def solve_sync(problem):
    """All locked states of the oscillator pair, sorted by Omega (then phi0)."""
    return sorted(_scan_roots(problem),
                  key=lambda st: (st.Omega, st.phi0))


def _lock_verdict(problem):
    """(locked, stable): whether a locked state exists and whether one is
    stable, as the full ``solve_sync`` list says; the scan stops at the
    first stable state."""
    locked = False
    for st in _scan_roots(problem):
        if st.stable:
            return True, True
        locked = True
    return locked, False


def select_state(states):
    """Reporting convention: the smallest-frequency stable state, if any."""
    for st in states:  # already sorted by Omega
        if st.stable:
            return st
    return None


def _curve(shape, offset, cos_a, sin_a):
    """The locked-state curve at Omega = mean omega + ``offset``.

    ``shape`` is (tau, detuning, delta, area) with area = sigma^2 - delta^2.
    Returns K(Omega), the smallest non-negative root of the curve's
    quadratic (inf where no root exists), and the numerator
    X X' + (Y - delta K) Y' of K'(Omega) = -q_Omega / q_K, whose sign is that
    of K' because q_K / 2 = area K + delta Y is the discriminant's root.
    Works on arrays and on scalars; the caller silences numpy's warnings.
    """
    tau, detuning, delta, area = shape
    x = detuning / (2.0 * cos_a)
    y = offset / sin_a
    r2 = x * x + y * y
    dy = delta * y
    # both roots' forms, written without cancellation
    u = np.sqrt(dy * dy + area * r2) + np.abs(dy)
    k = np.where(dy >= 0.0, r2 / u, u / area)
    k = np.where(k >= 0.0, k, np.inf)  # also maps NaN (no real root) to inf
    slope = x * x * tau * sin_a / cos_a + (y - delta * k) * (1.0 - y * tau * cos_a) / sin_a
    return k, slope


def _fans(omega_bar, omega_max, tau, width, reach):
    """Offsets from the mean frequency that resolve the curve where a grid
    cell cannot: fans with ratio sqrt(2) around the mean frequency, down to
    2^-24 of the dip ``width`` there, and around each sin a = 0 pole within
    ``reach`` of it (the first 128), where bands narrower than a grid cell
    sit when delta^2 > sigma^2.  Only offsets inside (0, omega_max] are
    kept."""
    span = math.pi / tau
    finest = min(width, span) * 2.0**-24
    depth = math.log2(span / finest) if finest > 0.0 else 40.0
    steps = span * 2.0 ** -np.arange(0.0, min(depth, 1074.0) + 0.5, 0.5)
    first = float(math.ceil(max(omega_bar - reach, 0.0) / span))
    count = min(math.floor(min(omega_bar + reach, omega_max) / span) - first + 1, 128)
    centres = np.concatenate(([0.0], (first + np.arange(count)) * span - omega_bar))
    fan = (centres[:, None] + np.concatenate((-steps, steps))).ravel()
    return fan[(omega_bar + fan > 0.0) & (omega_bar + fan <= omega_max)]


def critical_coupling(problem):
    """K_c: the smallest coupling at which a locked state exists with Omega in
    (0, problem.omega_max], the minimum of the locked-state curve K(Omega).

    Zero detuning gives exactly 0.0, the uncoupled common state that
    ``solve_sync`` reports at K = 0.  The curve is sampled on the shared scan
    grid and on the fans of ``_fans``: next to the mean frequency sits a dip
    about |X| wide that no grid resolves at small detuning.  Each sampled
    local minimum within a factor 2 of the lowest sample is polished by a
    ``find_root`` search on the sign of K'(Omega) between its sampled
    neighbours, the bracket cut at the curve's poles (cos a = 0, sin a = 0,
    and Y = 0 where no root exists across it); where the sign does not
    change across that bracket, its ends are the candidates.  Returns inf
    when no sample is finite; never raises.  K_c is exact, so it can lie below the first K at which the scan
    of ``solve_sync`` lists a root, where that scan misses a near-tangent
    root pair.
    """
    detuning = problem.omega2 - problem.omega1
    if detuning == 0.0:
        return 0.0
    tau = problem.tau
    omega_bar = 0.5 * (problem.omega1 + problem.omega2)
    omega_max = _omega_max(problem)
    delta, sigma = equal_gains(problem.regime, 1.0, problem.B, problem.b,
                               problem.n_c, problem.n_e)
    if sigma == 0.0:  # no cross coupling: only equal frequencies lock
        return math.inf
    area = sigma * sigma - delta * delta
    shape = (tau, detuning, delta, area)

    grid, cos_g, sin_g = _scan_grid(omega_max, tau)
    a_bar = omega_bar * tau
    width = abs(detuning / (2.0 * math.cos(a_bar)) * math.sin(a_bar))
    fan = _fans(omega_bar, omega_max, tau, width,
                math.pi / tau + abs(delta * detuning / sigma))
    fan_a = (omega_bar + fan) * tau
    with np.errstate(all="ignore"):
        offsets, first = np.unique(np.concatenate((grid - omega_bar, fan)), return_index=True)
        ks = np.concatenate((_curve(shape, grid - omega_bar, cos_g, sin_g)[0],
                             _curve(shape, fan, np.cos(fan_a), np.sin(fan_a))[0]))[first]
    best = ks.min()
    if not math.isfinite(best):
        return math.inf
    padded = np.concatenate(([np.inf], ks, [np.inf]))
    local = np.nonzero((ks <= padded[:-2]) & (ks <= padded[2:]) & (ks <= 2.0 * best))[0]

    def at(t):
        a = np.float64((omega_bar + t) * tau)  # numpy division: sin a = 0 gives inf
        with np.errstate(all="ignore"):
            k, slope = _curve(shape, t, np.cos(a), np.sin(a))
        return float(k), float(slope)

    quarter = 0.5 * math.pi / tau  # cos a or sin a vanishes at its multiples
    k_c = float(best)
    for i in local:
        centre = offsets[i]
        lo = offsets[i - 1] if i > 0 else -omega_bar
        hi = offsets[i + 1] if i + 1 < len(offsets) else centre
        pole = math.floor((omega_bar + centre) / quarter) * quarter - omega_bar
        lo, hi = max(lo, pole), min(hi, pole + quarter)
        if area <= 0.0:  # no root on one side of Y = 0
            lo, hi = (max(lo, 0.0), hi) if centre > 0.0 else (lo, min(hi, 0.0))

        def descent(t):
            """-K'(t) up to a positive factor, positive below the minimum;
            where the curve has no root, the side of the sampled centre
            decides, as an infinite value."""
            k, slope = at(t)
            if math.isfinite(k):
                return -slope
            return math.inf if t < centre else -math.inf

        ends = lo, hi
        d_lo, d_hi = descent(lo), descent(hi)
        if (d_lo > 0.0) != (d_hi > 0.0):
            ends = find_root(descent, lo, hi, d_lo, d_hi)
        k_c = min(k_c, *(at(t)[0] for t in ends))
    return k_c


def coupling_range(problem, k_values):
    """Locate the coupling window (K_c, K_u) over a monotone K sweep.

    K_c is the smallest coupling at which any locked state exists: the
    sweep's first point when the curve's minimum (``critical_coupling``)
    lies below it, the minimum itself when it lies inside the sweep, and
    None (open, and then K_u is too) when it lies above the sweep.  K_u is
    the first sweep point above K_c at which locked states exist but none
    is stable, or None when there is none; it is a sweep point, not refined
    between points.  Only sweep points above K_c are scanned, each verdict
    stops its scan at the first stable state, and every scan covers the
    problem's own frequency range, ``problem.omega_max``.
    """
    ks = sorted(float(k) for k in k_values)
    if not ks:
        raise ValueError("empty coupling sweep")
    k_c = critical_coupling(problem)
    if not k_c <= ks[-1]:
        return None, None
    k_c = max(ks[0], k_c)
    for k in ks:
        if k > k_c:
            locked, stable = _lock_verdict(replace(problem, K=k))
            if locked and not stable:
                return k_c, k
    return k_c, None


def order_parameter(theta1, theta2):
    """Complex-order-parameter magnitude and mean phase of two oscillators.

    r is |(e^{j theta1} + e^{j theta2})/2| = |cos((theta1-theta2)/2)|; the
    mean phase psi is reported as NaN when r vanishes (antiphase), where it
    is undefined.  Accepts scalars or arrays.
    """
    t1 = np.asarray(theta1, dtype=float)
    t2 = np.asarray(theta2, dtype=float)
    z = 0.5 * (np.exp(1j * t1) + np.exp(1j * t2))
    r = np.abs(z)
    psi = np.where(r > 1e-12, np.angle(z), np.nan)
    if t1.ndim == 0 and t2.ndim == 0:
        return float(r), float(psi)
    return r, psi
