"""Deviation rate functions for interval sets under the Gaussian limit.

Two costs are computed for reaching a target fraction p on a set A: the least
shift magnitude ``i_tilde`` with nu(A - x) >= p, and the least time fraction
``j_tilde`` with sup_x nu((A - x)/sqrt(1-r)) >= p.  Multiplying by log b (the
minimal offspring number) gives the coefficients of the sqrt(n) and n decay
scales.

The hot loops read a set's endpoint arrays ``IntervalSet.lo`` and ``hi``, and
the interpolation scan evaluates each family member from its endpoints
without building it as a set.  A set of one component has closed forms, and
no search runs for it: an interval of width w is best placed centred, so its
sup over shifts is its mass about its midpoint and it reaches p first at
r = 1 - w^2 / (4 z^2), z = Phi^-1((1 + p) / 2); a half-line (-inf, b] or
[a, inf) needs the shift b - Phi^-1(p) or a + Phi^-1(p).  For sets of two
or more components both costs use one search design: a coarse grid screened
with a proved error bound, then one safeguarded secant.  On any grid
cell of width h, f(x) = nu(S - x) exceeds the larger of its two end
values by at most h^2/8 max|f''| <= h^2/8 * 2k pdf(1) for k components, the
grid slack.  Every screen applies one rule before any per-cell work: a cell
whose larger end lies more than the slack below the screen's level (the
grid maximum for a sup, p for a crossing) holds no point at that level, so
only the cells it keeps are evaluated further.  The sup over shifts is a
root of the slope sum pdf(lo_i - x) - pdf(hi_i - x), found by Newton steps
in the kept cells where the slope changes sign; the slope is read only at
the ends of kept cells.  The shift search walks a SUP_STEP grid of |x|
outward from 0 on each side and takes the first kept cell that reaches p,
at its far end or at its maximum.  The r scan screens one r at a time on
the same x grid: varphi moves by at most 2k pdf(1) per unit of log gamma,
gamma = 1/sqrt(1 - r), so a row whose grid maximum plus slack lies d below
p rules out every r within d / (2k pdf(1)) further in log gamma; a row
within reach is screened again at the midpoints of its cells, with a
quarter of the slack, before it is refined.  A midpoint lies at most the
slack above its cell's larger end, so only cells whose larger end is within
twice the slack of the row maximum have theirs evaluated.  The r grid runs
GRID_STEP apart up to 1 - GRID_STEP and, for sets whose widest component
needs more, on in log(1 - r) up to the r where that component alone reaches
p, so a crossing always lies on it.  Monotonicity is never assumed: the
first crossing on a grid wins, and a safeguarded secant (Illinois regula
falsi, with a bisection step whenever two steps have not halved the
bracket) shrinks its bracket to ROOT_TOL.

Everything here is pure; instances may be evaluated in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InfeasibleError, NumericError
from .gaussian import dilated_mass, normal_pdf, nu, phi, shifted_mass, shifted_nu
from .intervals import INF, IntervalSet

__all__ = [
    "RateReport",
    "sup_shift_measure",
    "i_tilde",
    "j_tilde",
    "classify",
    "InterpolationFamily",
    "interpolation_set",
    "ExponentFit",
    "interpolation_cost_exponent",
]

GRID_STEP = 1e-3
ROOT_TOL = 1e-9
NEAR_CRITICAL = 1e-9
SUP_STEP = 0.05        # x-grid step of the sup search, before refinement
TIE = 1e-15            # sup values this close are rounding noise of one another
_X_TOL = 1e-12         # last Newton step on the slope that counts as converged
_MAX_ROOT_STEPS = 100  # bisection alone needs ~40 from a SUP_STEP bracket
_LOG_STEPS = 100       # r grid points per decade of 1 - r above 1 - GRID_STEP


_STANDARD_NORMAL = NormalDist()


def _central_quantile(p: float) -> float:
    """z with 2 Phi(z) - 1 = p: the half-width of the centred interval of
    measure p, read from the tail mass (1 - p)/2 beyond z.  That is exact for
    p >= 1/2, where (1 + p)/2 rounds: at p = 1 - 1e-9 the rounding would move
    the r at which an interval of width 12 reaches p by 6e-9."""
    return -_STANDARD_NORMAL.inv_cdf(0.5 * (1.0 - p))


def _centred_fraction(width: float, p: float) -> float:
    """Least r in [0, 1) at which an interval of this width, centred, has
    dilated mass p: r = 1 - width^2 / (4 z^2), z = Phi^-1((1 + p) / 2).

    r is rounded up, so that 1 - r <= width^2 / (4 z^2): the centred interval,
    dilated by 1/sqrt(1 - r), is at least 2z wide there.  Should rounding of
    Phi still leave its mass a hair below p, r counts as feasible.  An r that
    rounds to 1 raises NumericError.
    """
    t = float(0.5 * width / _central_quantile(p)) ** 2
    r = 1.0 - t
    if 1.0 - r > t:        # round up, so the interval reaches p at r
        r = math.nextafter(r, 1.0)
    if not r < 1.0:
        raise NumericError(
            f"no dilation crossing for p={p}: the widest component, of width "
            f"{width}, reaches p only at an r that rounds to 1")
    return max(r, 0.0)


def _grid_slack(k: int) -> float:
    """Bound on f - max(f(a), f(b)) over any cell [a, b] of a SUP_STEP grid,
    f(x) = nu(S - x) for a k-component set.

    f minus its chord vanishes at both ends, so it is at most
    (b - a)^2 / 8 max|f''|, and |f''| <= 2k pdf(1): each endpoint adds one
    term z pdf(z), of size at most pdf(1).  The chord stays below the larger
    end value.
    """
    return SUP_STEP * SUP_STEP / 8.0 * 2 * k * normal_pdf(1.0)


def _kept_cells(vals: np.ndarray, level: float) -> np.ndarray:
    """Indices j of the grid cells [x_j, x_(j+1)] whose larger end value
    reaches ``level``.  On a SUP_STEP grid no value in a cell exceeds its
    larger end by more than the grid slack, so with ``level`` at least the
    slack below a screen's level, no cell left out holds a point at it."""
    return np.flatnonzero(np.maximum(vals[:-1], vals[1:]) >= level)


def _slope(lo: np.ndarray, hi: np.ndarray, x) -> tuple[np.ndarray, np.ndarray]:
    """d/dx nu(S - x) and its derivative at each x, up to the factor 1/sqrt(2 pi)."""
    za = lo[:, None] - x
    zb = hi[:, None] - x
    pa = np.exp(-0.5 * za * za)
    pb = np.exp(-0.5 * zb * zb)
    return (pa - pb).sum(axis=0), (za * pa - zb * pb).sum(axis=0)


def _slope_root(lo: np.ndarray, hi: np.ndarray, a: np.ndarray,
                b: np.ndarray) -> np.ndarray:
    """In each bracket, where the slope turns from positive (at a) to not (at b).

    Newton steps on the slope; the bracket shrinks around the sign change at
    every step.  The first step that leaves a bracket goes to the end it
    passed, since a root on a bracket end (the slope's root on a grid point,
    as for a symmetric set) draws Newton steps just past it; any later one is
    replaced by bisection.
    """
    x = 0.5 * (a + b)
    clipped = np.zeros(x.shape, dtype=bool)
    for _ in range(_MAX_ROOT_STEPS):
        g, h = _slope(lo, hi, x)
        up = g > 0
        a = np.where(up, x, a)
        b = np.where(up, b, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = x - g / h
        inside = (step >= a) & (step <= b)
        clip = ~inside & ~clipped & np.isfinite(step)
        clipped |= clip
        nxt = np.where(inside | clip, np.minimum(np.maximum(step, a), b),
                       0.5 * (a + b))
        done = np.all(np.abs(nxt - x) <= _X_TOL)
        x = nxt
        if done:
            break
    return x


def _shift_grid(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shifts at most SUP_STEP apart over the hull of S, with nu(S - x) at each."""
    xs = np.linspace(lo[0], hi[-1], max(2, math.ceil((hi[-1] - lo[0]) / SUP_STEP)) + 1)
    return xs, shifted_mass(lo, hi, xs)


def _sup_shift(lo: np.ndarray, hi: np.ndarray,
               grid: Optional[tuple[np.ndarray, np.ndarray]] = None) -> tuple[float, float]:
    """(max value, argmax) of x -> nu(S - x) for a bounded nonempty S.

    One interval [a, b] is best placed centred: the slope pdf(a - x) -
    pdf(b - x) is positive below the midpoint and negative above it.  So its
    sup is its paired-erfc mass (`dilated_mass`) about the midpoint, which is
    the maximizer, with no grid or Newton step; ``grid`` is then unused.
    Sets of two or more components go through `_screened_sup`.
    """
    if lo.size == 1:
        mid = float(0.5 * (lo[0] + hi[0]))
        return dilated_mass(lo, hi, mid, 1.0), mid
    return _screened_sup(lo, hi, grid)


def _screened_sup(lo: np.ndarray, hi: np.ndarray,
                  grid: Optional[tuple[np.ndarray, np.ndarray]] = None) -> tuple[float, float]:
    """`_sup_shift` by a screened search, for any bounded nonempty S.

    The argmax lies in the convex hull of S: beyond the last endpoint the
    measure is strictly decreasing in the shift, so the grid stops there.
    The cells whose larger end comes within the grid slack of the grid
    maximum are kept, and the slope is taken at their ends only; every kept
    cell where it turns from positive to negative is refined, so a second
    bump nearly as high as the first is not missed.  Maxima equal up to
    rounding (TIE) go to the leftmost maximizer.  ``grid`` is the set's
    `_shift_grid`, when the caller has it already; the refined roots are
    valued with the scalar `dilated_mass`.
    """
    xs, vals = _shift_grid(lo, hi) if grid is None else grid
    i = int(np.argmax(vals))
    best = (float(vals[i]), float(xs[i]))
    kept = _kept_cells(vals, vals[i] - _grid_slack(lo.size))
    g = _slope(lo, hi, xs[np.concatenate((kept, kept + 1))])[0]
    cells = kept[(g[:kept.size] > 0) & (g[kept.size:] <= 0)]
    if cells.size:
        x = _slope_root(lo, hi, xs[cells], xs[cells + 1])
        v = np.array([dilated_mass(lo, hi, t, 1.0) for t in x.tolist()])
        top = np.flatnonzero(v >= max(v.max(), best[0]) - TIE)
        if top.size:
            best = (float(v[top[0]]), float(x[top[0]]))
    return best


def sup_shift_measure(s: IntervalSet) -> tuple[float, float]:
    """Supremum of x -> nu(S - x) with its maximizer.

    Sets containing a half-line have supremum 1, attained in the limit; the
    returned maximizer is the corresponding infinity sentinel.
    """
    if s.is_empty:
        raise ValueError("empty set has no shift optimum")
    if s.has_half_line():
        arg = -INF if s.components[0].lower == -INF else INF
        return 1.0, arg
    return _sup_shift(s.lo, s.hi)


def _shift_crossing(s: IntervalSet, p: float, sign: float, ts: np.ndarray,
                    ends: tuple[np.ndarray, np.ndarray],
                    vals: np.ndarray) -> Optional[tuple[float, float]]:
    """Least t on [0, ts[-1]] with nu(S - sign t) >= p, and its witness x = sign t.

    ``ts`` is a grid from 0 at most SUP_STEP apart, ``ends`` are the
    endpoint arrays the slope reads, and ``vals`` is nu(S - x) at the shifts
    x = sign ts.  Cells whose ends both lie more than the grid slack below p
    cannot reach it; the others are visited in order of t, and the slope is
    read at the two ends of each.  A visited cell reaches p at its maximum:
    the slope's root where the slope turns from rising to falling along x
    inside it, else its far end.  The first cell that reaches p brackets the
    crossing below that point.  None when no cell reaches p.
    """
    def gap(t: float) -> tuple[float, float]:
        return shifted_nu(s, sign * t) - p, sign * t

    for j in _kept_cells(vals, p - _grid_slack(s.lo.size)):
        t = float(ts[j + 1])
        cell = np.sort(sign * ts[j:j + 2])
        left, right = _slope(*ends, cell)[0]
        if left > 0 >= right:
            t = sign * float(_slope_root(*ends, cell[:1], cell[1:])[0])
        value, x = gap(t)
        if value >= 0:
            return _refine_crossing(gap, float(ts[j]), t, value, x)
    return None


def i_tilde(s: IntervalSet, p: float) -> tuple[float, Optional[float]]:
    """Least |x| with nu(S - x) >= p, and a witness x (None when infeasible).

    Weak inequality throughout; p == nu(S) yields 0.  A half-line (-inf, b]
    or [a, inf) reaches p exactly at x = b - Phi^-1(p) or a + Phi^-1(p),
    with Phi^-1 from `NormalDist.inv_cdf`; should rounding of Phi leave its
    mass a hair below p there, that x counts as feasible.  Every other set
    goes through `_screened_shift_cost`.
    """
    _check_p(p)
    if s.is_empty:
        raise ValueError("empty set")
    if nu(s) >= p:
        return 0.0, 0.0
    if len(s.components) == 1 and s.has_half_line():
        z = _STANDARD_NORMAL.inv_cdf(p)
        x = float(s.hi[0] - z if s.lo[0] == -INF else s.lo[0] + z)
        return abs(x), x
    return _screened_shift_cost(s, p)


def _screened_shift_cost(s: IntervalSet, p: float) -> tuple[float, Optional[float]]:
    """`i_tilde` by a two-sided screen, for a nonempty S with nu(S) < p.

    Each side is searched out to 10 beyond the largest finite endpoint; a
    bounded set's measure only falls beyond its hull, and a half-line's tail
    mass is 1 to double precision there.  When both signs achieve the
    optimum the negative witness is returned.
    """
    bound = s.finite_endpoint_bound() + 10.0
    ts = np.linspace(0.0, bound, math.ceil(bound / SUP_STEP) + 1)
    # The slope reads an infinite endpoint as one 40 beyond the grid: its pdf
    # terms underflow to 0 there as at infinity, without an inf * 0.
    far = bound + 40.0
    ends = (np.maximum(s.lo, -far), np.minimum(s.hi, far))
    # both sides screened at once, x = -ts then ts: one Phi call
    vals = shifted_mass(s.lo, s.hi, np.concatenate((-ts, ts)))
    m = ts.size
    neg = _shift_crossing(s, p, -1.0, ts, ends, vals[:m])
    pos = _shift_crossing(s, p, +1.0, ts, ends, vals[m:])
    if neg is None and pos is None:
        return INF, None
    if pos is None or (neg is not None and neg[0] <= pos[0] + ROOT_TOL):
        return neg
    return pos


def _dilated_sup(lo: np.ndarray, hi: np.ndarray, r: float,
                 grid: Optional[tuple[np.ndarray, np.ndarray]] = None) -> tuple[float, float]:
    # h(r) = sup_x varphi(S, r, x), with its maximizer in unscaled coordinates;
    # ``grid`` is the `_shift_grid` of the dilated set, when the caller has it.
    gamma = 1.0 / math.sqrt(1.0 - r)
    value, xprime = _sup_shift(gamma * lo, gamma * hi, grid)
    return value, xprime / gamma


def _r_grid(r_max: float) -> np.ndarray:
    """The r values of the crossing scan: GRID_STEP apart up to 1 - GRID_STEP,
    then, when r_max lies above, _LOG_STEPS per decade of 1 - r up to r_max."""
    rs = GRID_STEP * np.arange(1, round(1.0 / GRID_STEP))
    if r_max <= rs[-1]:
        return rs
    decades = math.log10((1.0 - rs[-1]) / (1.0 - r_max))
    k = np.arange(1, math.ceil(decades * _LOG_STEPS))
    return np.concatenate([rs, 1.0 - (1.0 - rs[-1]) * 10.0 ** (-k / _LOG_STEPS),
                           [r_max]])


def _first_crossing(lo: np.ndarray, hi: np.ndarray, p: float,
                    below: Optional[dict[float, float]] = None
                    ) -> tuple[float, float, float, float]:
    """First grid r with h(r) >= p: (previous grid r, r, witness x, h(r)).

    The widest component reaches p alone, centred, at r_max =
    `_centred_fraction` of its width, so a crossing lies in (0, r_max], and
    the grid's last point is r_max or, for r_max <= 1 - GRID_STEP, above it.
    Should rounding leave the computed sup a hair below p there, that point
    counts as feasible, with the component's midpoint as witness and p as
    its value.

    Each term of F(gamma, x) = sum_i Phi(gamma (b_i - x)) - Phi(gamma (a_i - x)),
    gamma = 1/sqrt(1 - r), has log-gamma derivative z pdf(z), at most pdf(1) in
    size, so h drifts by at most 2k pdf(1) per unit of log gamma.  A row at r_k
    with grid maximum M (on `_shift_grid`) and d = p - slack - M > 0 rules out
    every later grid r whose drift from r_k is below d, cut by one part in 10^6
    for rounding, so a jump can only get shorter.  Where d <= 0, the row's
    cell midpoints are screened too, unless d <= -3/4 slack: cells of half
    the width leave a quarter of the slack, so d = p - slack / 4 - M' with M'
    the maximum over both grids, and the skip is taken once d > 0.  A
    midpoint lies at most the slack above its cell's larger end, so only the
    midpoints of cells whose larger end is within 2 slack of M are
    evaluated: no other can lift M.  Otherwise h(r_k) is refined, on the
    row's screened grid.  When the scan screened the grid r just below
    a crossing it found, h there, refined before or now on that row's grid,
    goes into ``below``, keyed by that r, for the secant to start from.
    """
    widths = hi - lo
    i = int(np.argmax(widths))
    rs = _r_grid(_centred_fraction(widths[i], p))
    drift = -lo.size * normal_pdf(1.0) * np.log1p(-rs)   # 2k pdf(1) log gamma
    slack = _grid_slack(lo.size)
    k = 0
    last = None    # (k, grid, refined value or None) of the last screened row
    while k < rs.size:
        r = float(rs[k])
        gamma = 1.0 / math.sqrt(1.0 - r)
        glo, ghi = gamma * lo, gamma * hi
        grid = _shift_grid(glo, ghi)
        top = float(grid[1].max())
        room = p - slack - top
        if -0.75 * slack < room <= 0:     # else the midpoints cannot lift d above 0
            xs, vals = grid
            kept = _kept_cells(vals, top - 2.0 * slack)
            mids = shifted_mass(glo, ghi, 0.5 * (xs[kept] + xs[kept + 1]))
            room = p - 0.25 * slack - max(top, float(mids.max()))
        value = None
        if room <= 0:
            value, x = _dilated_sup(lo, hi, r, grid)
            if value >= p:
                if below is not None and last is not None and last[0] == k - 1:
                    j, row_grid, h = last
                    if h is None:
                        h = _dilated_sup(lo, hi, float(rs[j]), row_grid)[0]
                    below[float(rs[j])] = h
                return (float(rs[k - 1]) if k else 0.0), r, x, value
        last = (k, grid, value)
        k = max(k + 1, int(np.searchsorted(drift, drift[k] + room * (1.0 - 1e-6))))
    return float(rs[-2]), float(rs[-1]), 0.5 * float(lo[i] + hi[i]), p


def _refine_crossing(gap: Callable[[float], tuple[float, float]], a: float,
                     b: float, fb: float, x: float,
                     fa: Optional[float] = None) -> tuple[float, float]:
    """Shrink [a, b] to ROOT_TOL around a root of gap: (feasible end, witness).

    gap(t) is (value - p, witness at t), with gap(a) < 0 <= gap(b) = (fb, x);
    ``fa`` is gap(a)[0] when the caller has it already.
    Illinois regula falsi: each probe lies at least ROOT_TOL / 2 inside the
    bracket, so the bracket shrinks at every step; the value at an end kept
    twice in a row is halved, and every second step is a bisection when the
    two steps before it have not halved the bracket.
    """
    if fa is None:
        fa = gap(a)[0]
    older = INF    # bracket width two steps ago, refreshed every second step
    kept = 0       # +1 after a step that moved b, -1 after one that moved a
    step = 0
    while b - a > ROOT_TOL:
        width = b - a
        bisect = step % 2 == 0 and width > 0.5 * older
        if step % 2 == 0:
            older = width
        t = 0.5 * (a + b) if bisect else b - fb * width / (fb - fa)
        t = min(max(t, a + 0.5 * ROOT_TOL), b - 0.5 * ROOT_TOL)
        value, x_t = gap(t)
        if value >= 0:
            b, fb, x = t, value, x_t
            if kept > 0:
                fa *= 0.5
            kept = 1
        else:
            a, fa = t, value
            if kept < 0:
                fb *= 0.5
            kept = -1
        step += 1
    return b, x


def j_tilde(s: IntervalSet, p: float) -> tuple[float, float, float]:
    """Least time fraction r with sup_x varphi(S, r, x) >= p, plus witnesses (r, x).

    Sets with a finite shift cost return 0 immediately.  One interval has the
    closed form of `_dilation_cost`.  Otherwise the r scan (`_first_crossing`)
    brackets the first grid crossing, and the secant of `_refine_crossing`
    returns the bracket's feasible end, with an infeasible r at most ROOT_TOL
    below it.
    """
    _check_p(p)
    if s.is_empty:
        raise ValueError("empty set")
    if s.is_reals:
        return 0.0, 0.0, 0.0
    it, x = i_tilde(s, p)
    if it != INF:
        return 0.0, 0.0, float(x)
    return _dilation_cost(s, p)


def _dilation_cost(s: IntervalSet, p: float) -> tuple[float, float, float]:
    """`j_tilde` for a set whose shift cost is infinite.

    One interval reaches p first centred, so its cost is `_centred_fraction`
    of its width, with its midpoint as witness: no r scan and no secant.
    """
    lo, hi = s.lo, s.hi
    if lo.size == 1:
        r = _centred_fraction(float(hi[0] - lo[0]), p)
        return r, r, float(0.5 * (lo[0] + hi[0]))

    def gap(r: float) -> tuple[float, float]:
        value, x_r = _dilated_sup(lo, hi, r)
        return value - p, x_r

    below: dict[float, float] = {}
    a, b, x, value = _first_crossing(lo, hi, p, below)
    fa = below[a] - p if a in below else None
    r, x = _refine_crossing(gap, a, b, value - p, x, fa)
    return r, r, x


def _check_p(p: float) -> None:
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")


def _check_b(b: int) -> None:
    if int(b) != b or b < 2:
        raise ValueError(f"b must be an integer >= 2, got {b}")


@dataclass(frozen=True)
class RateReport:
    """Classified deviation cost for one (set, p, b) triple.

    Exactly one regime applies when p exceeds the set's measure: a finite
    shift cost (scale sqrt(n)) or an infinite one with a dilation fraction in
    (0, 1) (scale n).  Witnesses satisfy their defining inequalities up to the
    root tolerance.
    """

    p: float
    b: int
    i_tilde: float
    x_star: Optional[float]
    j_tilde: float
    r_star: float
    x_star_dilation: Optional[float]
    i_rate: float
    j_rate: float
    regime: str                 # 'shift' | 'dilation'
    scale: str                  # 'sqrt_n' | 'n'
    degenerate: bool = False
    near_critical: bool = False

    @property
    def rate(self) -> float:
        return self.i_rate if self.regime == "shift" else self.j_rate

    def scale_factor(self, n: int) -> float:
        return math.sqrt(n) if self.scale == "sqrt_n" else float(n)


def classify(s: IntervalSet, p: float, b: int) -> RateReport:
    """Full rate report: regime, rates i = log(b)*i_tilde / j = log(b)*j_tilde.

    For p <= nu(S) the event is typical; the report is degenerate with zero
    cost.  Near-critical inputs (p within ~1e-9 of the attainable supremum)
    are flagged rather than rejected.  A bounded set whose sup over shifts
    lies further than that below p has no shift reaching p, so its shift
    cost is infinite without `i_tilde`'s screens.
    """
    _check_p(p)
    _check_b(b)
    if s.is_empty:
        raise ValueError("empty set")
    logb = math.log(b)
    sup = sup_shift_measure(s)[0]     # 1 for a half-line
    near = not s.has_half_line() and abs(sup - p) <= NEAR_CRITICAL
    if nu(s) >= p:
        return RateReport(p, b, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                          "shift", "sqrt_n", degenerate=True, near_critical=near)
    it, x = (INF, None) if sup < p - NEAR_CRITICAL else i_tilde(s, p)
    if it != INF:
        return RateReport(p, b, it, x, 0.0, 0.0, x, logb * it, 0.0,
                          "shift", "sqrt_n", near_critical=near)
    jt, r, xd = _dilation_cost(s, p)
    return RateReport(p, b, INF, None, jt, r, xd, INF, logb * jt,
                      "dilation", "n", near_critical=near)


# -- interpolating families ----------------------------------------------------

@dataclass(frozen=True)
class InterpolationFamily:
    """Truncation of the sparse dilating family x_k + r_k * [-a, a], k0 <= k <= K."""

    alpha: float
    p: float
    delta: float
    k0: int
    big_k: int
    a: float
    base: IntervalSet                      # [-a, a]
    members: tuple[tuple[int, float, float], ...]   # (k, x_k, r_k)
    truncated: IntervalSet


def _family_params(k: int, alpha: float, delta: float) -> tuple[float, float]:
    x_k = k ** (1.0 + delta)
    expo = -(1.0 - alpha) * (1.0 + delta) / (alpha - 0.5)
    r_k = math.sqrt(1.0 - k ** expo)
    return x_k, r_k


def interpolation_set(alpha: float, p: float, delta: float,
                      k0: int, big_k: int) -> InterpolationFamily:
    """Construct the truncated family; a solves 2*phi(a) - 1 = p.

    Components are verified pairwise disjoint; overlap for the given (k0,
    delta) is reported and the caller must raise k0 (the first member with
    k = 1 would be a degenerate point, so k0 >= 2).
    """
    if not 0.5 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (1/2, 1), got {alpha}")
    _check_p(p)
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    if k0 < 2:
        raise ValueError("k0 must be >= 2 (k = 1 degenerates to a point)")
    if big_k < k0:
        raise ValueError("K must be >= k0")
    a = _central_quantile(p)
    if abs(2.0 * phi(a) - 1.0 - p) > 1e-10:
        raise NumericError("quantile solve failed")
    base = IntervalSet.closed(-a, a)
    members = []
    parts = []
    prev_hi = -INF
    for k in range(k0, big_k + 1):
        x_k, r_k = _family_params(k, alpha, delta)
        lo, hi = x_k - r_k * a, x_k + r_k * a
        if lo <= prev_hi:
            raise InfeasibleError(
                f"family members k={k - 1} and k={k} overlap "
                f"(alpha={alpha}, delta={delta}); raise k0")
        members.append((k, x_k, r_k))
        parts.append(IntervalSet.closed(lo, hi))
        prev_hi = hi
    truncated = parts[0]
    for extra in parts[1:]:
        truncated = truncated.union(extra)
    if len(truncated.components) != len(members):
        raise InfeasibleError("family members merged after normalization; raise k0")
    return InterpolationFamily(alpha, p, delta, k0, big_k, a, base,
                               tuple(members), truncated)


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares slope of log cost against log n for the family strategies."""

    alpha_hat: float
    intercept: float
    residuals: tuple[float, ...]
    points: tuple[tuple[int, int, int, float], ...]   # (n, k, w, cost)


def interpolation_cost_exponent(alpha: float, p: float, delta: float, k0: int,
                                n_grid: Sequence[int], b: int) -> ExponentFit:
    """Fitted growth exponent of the cheapest feasible family strategy.

    For each n the scan takes the smallest k whose translated, dilated member
    keeps measure at least p - 0.5/sqrt(n) after the remaining-time
    rescaling (the feasibility value is varphi of the member at the elapsed
    time fraction); the cost exponent is log(b) * floor(x_k * sqrt(n)).  Both
    the displacement w and the feasibility value increase with k, so the first
    feasible k is the cheapest.  A member x_k + r_k [-a, a] is evaluated from
    its endpoints, rounded as the built set's would be.
    """
    if not 0.5 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (1/2, 1), got {alpha}")
    _check_p(p)
    _check_b(b)
    if k0 < 2:
        raise ValueError("k0 must be >= 2")
    ns = [int(n) for n in n_grid]
    if len(ns) < 2 or any(n2 <= n1 for n1, n2 in zip(ns, ns[1:])):
        raise ValueError("n_grid must be strictly increasing with >= 2 entries")
    a = _central_quantile(p)
    logb = math.log(b)
    points = []
    for n in ns:
        sqrt_n = math.sqrt(n)
        slack = 0.5 / sqrt_n
        found = None
        for k in range(k0, 10 ** 6 + 1):
            x_k, r_k = _family_params(k, alpha, delta)
            w = math.floor(x_k * sqrt_n)
            if w >= n:
                break
            if w < 1:
                continue
            elapsed = 1.0 - (n - w) / n
            value = dilated_mass(np.array([-a * r_k + x_k]), np.array([a * r_k + x_k]),
                                 x_k, 1.0 / math.sqrt(1.0 - elapsed))
            if value >= p - slack:
                found = (k, w)
                break
        if found is None:
            raise InfeasibleError(f"no feasible family member for n={n}")
        k, w = found
        points.append((n, k, w, logb * w))
    xs = np.log([pt[0] for pt in points])
    ys = np.log([pt[3] for pt in points])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    return ExponentFit(float(slope), float(intercept),
                       tuple(float(r) for r in resid), tuple(points))
