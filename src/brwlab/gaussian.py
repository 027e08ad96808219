"""Standard Gaussian measure of interval sets and the n-step walk law.

The continuous side evaluates the Gaussian CDF Phi in two ways.  Scalar
masses go through the complementary error function, pairing endpoints on the
side away from 0, so a component deep in a tail loses no digits to
cancellation against 1.  Grid searches evaluate whole arrays
of shifts at once through one vectorized Phi, `_phi_array`: a Taylor series
about the nearest node c = j/32 on [-39, 9] (after Marsaglia, "Evaluating the
Normal Distribution", J. Stat. Softw. 11(4), 2004),

    Phi(t) = Phi(c) + sum_{k=1}^{8} pdf(c) (-1)^(k-1) He_(k-1)(c) / k! (t - c)^k,

with Phi(c) from `math.erfc`, as `phi` computes it, and He the probabilists'
Hermite polynomials.  The (9, 1537) coefficient table is built at import, and
one call is a clamp, one gather of coefficient columns and a Horner pass,
over chunks of at most 2^15 entries.
Its absolute error is at most 2^-52 on the whole line (checked against
mpmath); its relative error is below 5e-15 for t > -5 and 1e-10 for
t > -20, so it serves sums of absolute masses, not deep-tail ratios.  Inputs
are clamped to [-39, 9], so Phi(-inf) = 0 and Phi(inf) = 1 exactly, and a
NaN input gives NaN.

The lattice side reads a set through its `intervals.lattice_ends` site
ranges, in one of two ways.  `srw_pmf` and `nu_n_of_set` are exact: an
integer path count read off cached integer prefix sums (`_prefix_row`),
divided once by 2^n, so correctly rounded.  `hit_probs` (and through it
the certificate's tables in `engine`) and `clt_uniformity_scan` read one
cached float prefix row per n instead (`_walk_row`): it keeps only the
sites within 9.2 sqrt(n) of the centre, takes its mode from Stirling's
series, and each mass read off it is within the derived bound
`_table_error`.  Sets are read through their endpoint arrays
(``IntervalSet.lo``, ``hi`` and the flags), which `intervals` builds.  All
functions here are pure and reentrant; the caches only save work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .intervals import IntervalSet, lattice_ends

__all__ = [
    "phi",
    "normal_pdf",
    "nu",
    "varphi",
    "nu_shifted_grid",
    "srw_pmf",
    "nu_n_of_set",
    "hit_probs",
    "clt_uniformity_scan",
    "CltScanResult",
]

_SQRT1_2 = 1.0 / math.sqrt(2.0)


def phi(z: float) -> float:
    """Standard normal CDF, phi(z) = erfc(-z/sqrt(2))/2."""
    return 0.5 * math.erfc(-z * _SQRT1_2)


def normal_pdf(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


_NODES = 32                  # Taylor nodes per unit of t
_T_LO, _T_HI = -39.0, 9.0    # Phi is 0 below and 1 above, to double precision
_TERMS = 9


def _taylor_table() -> np.ndarray:
    """Row k, column j: the k-th Taylor coefficient of Phi about the node
    c_j = _T_LO + j/_NODES, times _NODES^-k so that it multiplies the offset
    in node spacings (exactly, as the factor is a power of two)."""
    c = np.arange(_T_LO * _NODES, _T_HI * _NODES + 1) / _NODES
    table = np.empty((_TERMS, c.size))
    table[0] = [phi(z) for z in c.tolist()]
    pdf = np.exp(-0.5 * c * c) / math.sqrt(2.0 * math.pi)
    he_prev, he = np.zeros_like(c), np.ones_like(c)        # He_-1, He_0
    for k in range(1, _TERMS):
        # Phi^(k) = pdf^(k-1) = (-1)^(k-1) He_(k-1) pdf
        table[k] = (-1) ** (k - 1) * he * pdf / (math.factorial(k) * _NODES ** k)
        he_prev, he = he, c * he - (k - 1) * he_prev
    table.flags.writeable = False
    return table


_TAYLOR = _taylor_table()
_CHUNK = 2 ** 15   # entries per pass of `_phi_array`: a gather of 2.4 MB


def _phi_array(t: np.ndarray) -> np.ndarray:
    """Phi at each entry of the array ``t``: see the module docstring.

    An array of more than _CHUNK entries goes through in chunks of that
    many, so the gathered (9, entries) coefficients stay small however long
    the array; Phi is elementwise, so the chunks change no bit.
    """
    if t.size > _CHUNK:
        out = np.empty(t.shape)
        flat, entries = out.reshape(-1), t.reshape(-1)
        for start in range(0, t.size, _CHUNK):
            flat[start:start + _CHUNK] = _phi_array(entries[start:start + _CHUNK])
        return out
    u = np.maximum(t, _T_LO)          # NaN stays NaN
    np.minimum(u, _T_HI, out=u)
    u *= _NODES
    j = np.rint(u)
    u -= j                            # offset from the node in node spacings, exact
    np.fmax(j, _T_LO * _NODES, out=j)  # a NaN reads node 0 and stays NaN through u
    j -= _T_LO * _NODES
    coef = _TAYLOR.take(j.astype(np.intp), axis=1)
    out = coef[-1]
    for row in coef[-2::-1]:
        out *= u
        out += row
    return out


def _mass(lo: float, hi: float) -> float:
    # Pair erfc evaluations on the side away from 0 to avoid cancellation in tails.
    if lo >= 0.0:
        return 0.5 * (math.erfc(lo * _SQRT1_2) - math.erfc(hi * _SQRT1_2))
    if hi <= 0.0:
        return 0.5 * (math.erfc(-hi * _SQRT1_2) - math.erfc(-lo * _SQRT1_2))
    return phi(hi) - phi(lo)


def nu(s: IntervalSet) -> float:
    """Gaussian measure of an interval set (open/closed flags are immaterial)."""
    return shifted_nu(s, 0.0)


def shifted_nu(s: IntervalSet, x: float) -> float:
    """nu(S - x) without building the shifted set; equal to nu(s.shift(-x))."""
    return dilated_mass(s.lo, s.hi, x, 1.0)


def dilated_mass(lo: np.ndarray, hi: np.ndarray, x: float, gamma: float) -> float:
    """nu((S - x) * gamma) for S given by its endpoint arrays ``lo``, ``hi``."""
    value = math.fsum(_mass((a - x) * gamma, (b - x) * gamma)
                      for a, b in zip(lo.tolist(), hi.tolist()))
    return min(1.0, max(0.0, value))


def varphi(s: IntervalSet, r: float, x: float) -> float:
    """Measure of (S - x)/sqrt(1-r) for a time fraction r in [0, 1).

    Sums the components' masses without building the moved set; equal to
    nu(s.shift(-x).scale(1/sqrt(1-r))).
    """
    if not 0.0 <= r < 1.0:
        raise ValueError(f"r must lie in [0, 1), got {r}")
    if not math.isfinite(x):
        raise ValueError("shift amount must be finite")
    return dilated_mass(s.lo, s.hi, x, 1.0 / math.sqrt(1.0 - r))


def nu_shifted_grid(s: IntervalSet, xs: np.ndarray) -> np.ndarray:
    """Vectorized x -> nu(S - x) over an array of shifts (used by grid searches)."""
    return shifted_mass(s.lo, s.hi, xs)


def shifted_mass(lo: np.ndarray, hi: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """x -> nu(S - x) over a 1-D array of shifts, for S given by its endpoint
    arrays: one `_phi_array` call, then each component's mass summed in order."""
    cdf = _phi_array(np.concatenate((hi, lo))[:, None] - xs)
    return (cdf[:lo.size] - cdf[lo.size:]).sum(axis=0)


# -- simple random walk law --------------------------------------------------

def srw_pmf(n: int, k: int) -> float:
    """P(walk at k after n steps): C(n,(n+k)/2) 2^-n on the parity sublattice.

    The binomial is an exact integer, read off the cached prefix row, and the
    division is correctly rounded, so the result is within half an ulp for any
    n the integers can express.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if abs(k) > n or (n + k) % 2 != 0:
        return 0.0
    prefix = _prefix_row(n)
    j = (n + k) // 2
    return (prefix[j + 1] - prefix[j]) / (1 << n)


@lru_cache(maxsize=32)
def _prefix_row(n: int) -> np.ndarray:
    """prefix[j] = sum_{i<j} C(n, i) in exact integers, cached: the number of
    n-step paths ending below site 2j - n.  Object dtype keeps the integers
    arbitrary-precision; at n = 850 a row holds about 0.1 MB of them."""
    prefix = np.empty(n + 2, dtype=object)
    prefix[0] = total = 0
    c = 1
    for j in range(n + 1):
        total += c
        prefix[j + 1] = total
        c = c * (n - j) // (j + 1)
    prefix.flags.writeable = False   # shared by every caller through the cache
    return prefix


def _row_indices(n: int, first, last) -> tuple[np.ndarray, np.ndarray]:
    """Prefix-row indices (i_first, i_end) of each integer site range
    [first, last]: a path of n steps ends at a site 2i - n, and the paths
    ending in the range are those with i_first <= i < i_end."""
    # Clipping to just outside [-n, n] keeps infinities and huge endpoints exact.
    first = np.clip(first, -n - 1, n + 1)
    last = np.clip(last, -n - 1, n + 1)
    i_first = np.ceil((first + n) / 2).astype(np.int64)
    i_end = np.floor((last + n) / 2).astype(np.int64) + 1
    return i_first, np.maximum(i_end, i_first)


def nu_n_of_set(n: int, s: IntervalSet) -> float:
    """Walk-law measure of a set: exact lattice sum over occupied sites.

    A lattice point sitting on an open endpoint is excluded, on a closed one
    included; this is where the endpoint flags become observable.  The path
    count is an exact integer, a sum of `_prefix_row` differences, divided
    once by 2^n, so the result is correctly rounded.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    i_first, i_end = _row_indices(n, *s.site_ranges())
    prefix = _prefix_row(n)
    return sum((prefix[i_end] - prefix[i_first]).tolist()) / (1 << n)


def hit_probs(n: int, s: IntervalSet, sites: np.ndarray) -> np.ndarray:
    """P(y + S_n in s) for each integer site y in ``sites``, each within
    `_table_error(n, c)` of the exact one, c the number of components of s.

    The walk-law mass of the set seen from each site, read off the cut float
    row `_walk_row(n)` (`_walk_masses`).  The set's integer site ranges are
    found once and moved by each site.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    first, last = s.site_ranges()
    y = np.asarray(sites, dtype=float)[:, None]
    return _walk_masses(n, first - y, last - y).sum(axis=1)


# -- float walk rows, cut at the tails ---------------------------------------

# A row keeps the sites within +-_CUT_T sqrt(j) of the centre.  By Hoeffding,
# P(|S_j| >= t sqrt(j)) <= 2 exp(-t^2 / 2), below _CUT_MASS = 2^-60 at t = 9.2.
_CUT_T = 9.2
_CUT_MASS = 2.0 ** -60
# The largest j whose mode is the quotient of `math.comb` by 2^j; beyond it
# the Stirling remainder 1 / (630 h^5), h = ceil(j / 2), is below 2^-64.
_COMB_MAX_J = 4096

_UNIT_ROUNDOFF = 2.0 ** -53


def _gamma(m: int) -> float:
    """Higham's gamma_m = m u / (1 - m u): the relative error of m roundings."""
    return m * _UNIT_ROUNDOFF / (1.0 - m * _UNIT_ROUNDOFF)


def _row_span(j: int) -> tuple[int, int]:
    """The first and last step counts a, b = j - a to the right that a cut
    row of j steps keeps: the sites 2l - j, a <= l <= b, cover the open
    interval (-s - 2, s + 2) around 0, s = ceil(t sqrt(j)) + 1 > t sqrt(j)."""
    a = max(0, (j - math.ceil(_CUT_T * math.sqrt(j)) - 1) // 2)
    return a, j - a


def _walk_mode(j: int) -> float:
    """C(j, floor(j / 2)) 2^-j: correctly rounded up to _COMB_MAX_J, and
    within a factor 1 + gamma_16 beyond.

    Up to _COMB_MAX_J it is the exact integer divided, correctly rounded.
    Beyond, with h = ceil(j / 2) it equals C(2h, h) 4^-h, since
    C(2h, h) = 2 C(2h - 1, h - 1), and by Stirling's series for
    ln n! = n ln n - n + ln(2 pi n) / 2 + r_n, whose remainder after
    1 / (12 n) - 1 / (360 n^3) lies in (0, 1 / (1260 n^5)),
    C(2h, h) 4^-h = exp(r_2h - 2 r_h) / sqrt(pi h) with
    r_2h - 2 r_h = -1 / (8 h) + 1 / (192 h^3) + E, |E| < 1 / (630 h^5).
    With h > 2048, E is below 2^-64; the exponent takes four roundings
    (and is at most 2^-14 in size), exp at most one ulp, and pi, the
    product, the root and the quotient one each, so the value is within a
    factor 1 + gamma_16 of the mode.
    """
    if j <= _COMB_MAX_J:
        return math.comb(j, j // 2) / (1 << j)
    h = float(j - j // 2)
    return math.exp((1.0 / (192.0 * h * h) - 0.125) / h) / math.sqrt(math.pi * h)


@lru_cache(maxsize=256)
def _walk_row(j: int) -> tuple[int, np.ndarray]:
    """The cut prefix row of the j-step walk law, in floats, cached: (a, row)
    with row[i - a] = P(a <= (S_j + j) / 2 < i) for a <= i <= b + 1, where
    (a, b) = `_row_span(j)`.  A prefix index i below a reads row[0] = 0 and
    one above b + 1 reads the kept total row[-1] (`_walk_masses`).

    With m = floor(j / 2), the pmf runs from the mode `_walk_mode(j)` upward
    by the ratios (j - l) / (l + 1), l = m, ..., b - 1, and downward by
    l / (j - l + 1), l = m, ..., a + 1, as two cumulative products, and the
    row is their cumulative sum: at most t sqrt(j) + 6 entries, 9,204 at
    j = 10^6.  See `_table_error` for its error.
    """
    a, b = _row_span(j)
    m = j // 2
    up = np.arange(m, b)
    down = np.arange(m, a, -1)
    pmf = np.empty(b - a + 1)
    mode = _walk_mode(j)
    pmf[m - a:] = np.cumprod(np.concatenate(([mode], (j - up) / (up + 1.0))))
    pmf[m - a::-1] = np.cumprod(np.concatenate(([mode], down / (j - down + 1.0))))
    row = np.zeros(b - a + 2)
    np.cumsum(pmf, out=row[1:])
    row.flags.writeable = False   # shared by every caller through the cache
    return a, row


def _walk_masses(j: int, first, last) -> np.ndarray:
    """P(S_j in [first, last]) for each integer site range, read off the cut
    row `_walk_row(j)`, each within 2 d_row of the exact one before its
    subtraction is rounded (see `_table_error`)."""
    i_first, i_end = _row_indices(j, first, last)
    a, row = _walk_row(j)
    top = row.size - 1
    return (row[np.clip(i_end - a, 0, top)]
            - row[np.clip(i_first - a, 0, top)])


def _table_error(j: int, components: int) -> float:
    """An absolute bound on the error of every sum of `_walk_masses` over
    the ``components`` site ranges of a set, j steps ahead: the masses of
    `hit_probs` (and so the certificate's tables) and of
    `clt_uniformity_scan`.

    Rounding follows Higham (*Accuracy and Stability of Numerical
    Algorithms*, 2002, sec. 2.1): fl(x op y) = (x op y)(1 + d) + e with
    |d| <= u = 2^-53, |e| <= 2^-1075 and e = 0 for additions and
    subtractions; gamma_m = m u / (1 - m u).  In `_walk_row`, which keeps
    the k = b - a + 1 pmf entries a <= l <= b around m = floor(j / 2):

    - the mode is within a factor 1 + gamma_M, M = 1 up to _COMB_MAX_J
      and M = 16 beyond, the Stirling remainder included (`_walk_mode`);
    - pmf entry l takes |l - m| <= b - m more ratios, each one division of
      exact integers, and as many products of the cumulative product, so it
      is within a factor 1 + gamma_(M+2(b-m)) of C(j, l) 2^-j (sec. 3.1,
      Lemma 3.1), plus the underflow terms e.  Away from the mode every
      ratio is at most 1, so each e shrinks through the later products and
      entry l carries at most k 2^-1074 of them, all entries together
      A <= k^2 2^-1074;
    - the cumulative sum adds at most k terms recursively, within
      gamma_(k-1) times their sum (sec. 4.2, (4.4)); the exact kept prefix
      sums are at most 1, so each row entry is within
      gamma_(M+2(b-m)+k-1) + 2A of the exact sum of the kept pmf entries it
      covers, using (1 + gamma_x)(1 + gamma_y) <= 1 + gamma_(x+y);
    - the cut: the exact P(S_j < 2i - j) differs from the kept sum of the
      entries below i, clipped to the kept range, by at most the dropped
      mass, below _CUT_MASS = 2^-60 (`_row_span`).

    So every row entry is within d_row = gamma_(M+2(b-m)+k-1) + 2A + 2^-60
    of P(S_j < 2i - j).  A sum over c components of differences of two row
    entries has each difference within 2 d_row of the exact one before its
    own rounding, and the exact sum is at most 1; the c - 1 additions, in
    any order, and the c subtractions add at most gamma_c (1 + 2 c d_row).
    So every sum is within 2 c d_row + gamma_c (1 + 2 c d_row) of
    P(y + S_j in target): about 1.2e-13 at j = 900, 8.2e-13 at j = 4 10^4
    and 4.1e-12 at j = 10^6 for one component.  The bound's own dozen
    roundings are covered by the factor 1 + 2^-48.
    """
    a, b = _row_span(j)
    kept = b - a + 1
    roundings = (1 if j <= _COMB_MAX_J else 16) + 2 * (b - j // 2) + kept - 1
    row = _gamma(roundings) + 2.0 * kept ** 2 * 2.0 ** -1074 + _CUT_MASS
    spread = 2.0 * components * row
    return (spread + _gamma(components) * (1.0 + spread)) * (1.0 + 2.0 ** -48)


# -- uniform CLT discrepancy scan --------------------------------------------

# Endpoint pairs per chunk of the CLT scan: the chunk's Taylor coefficients
# (9 x 2 x 2^12 floats, 0.6 MB) stay in a core's cache, and at n = 400 the
# (-inf, 0] scan needs 3 chunks where a row at a time needs 21.
_SCAN_ENDS = 1 << 12


@dataclass(frozen=True)
class CltScanResult:
    """Sup discrepancy between the n-step law and the Gaussian over affine images.

    The xi sweep is truncated at ``xi_radius``; beyond it the two measures agree
    to far below the reported discrepancy (Gaussian tails), and the radius is
    kept in the result so outputs record the truncation.
    """

    sup_error: float
    rho_at: float
    xi_at: float
    xi_radius: float
    xi_step: float
    n: int
    rho_points: int


def clt_uniformity_scan(s: IntervalSet, big_r: float, n: int,
                        rho_points: int = 21) -> CltScanResult:
    """Max over a (rho, xi) grid of |nu_n(sqrt(n)(rho*S + xi)) - nu(rho*S + xi)|.

    rho runs over [1/R, R]; xi over a grid of step 1/sqrt(n) with radius
    R * (largest finite |endpoint|) + 10.

    The walk-law side reads the cut float row `_walk_row(n)`, so each of its
    masses is within `_table_error(n, c)` of the exact one, c the number of
    components; each Gaussian mass is within c 2^-51 + gamma_c of the exact
    one, `_phi_array` being within 2^-52 at each endpoint, and the
    difference takes one more rounding.  So ``sup_error`` is within
    `_table_error(n, c) + c 2^-50` of the exact maximum over the grid.
    """
    if big_r <= 1.0:
        raise ValueError("R must exceed 1")
    if n < 1:
        raise ValueError("n must be positive")
    if rho_points < 2:
        raise ValueError("need at least 2 rho grid points")
    sqrt_n = math.sqrt(n)
    step = 1.0 / sqrt_n
    radius = big_r * s.finite_endpoint_bound() + 10.0
    half = math.ceil(radius * sqrt_n)
    xis = np.arange(-half, half + 1) * step
    rhos = np.linspace(1.0 / big_r, big_r, rho_points)
    # Images rho*S + xi as (component, rho, xi) endpoint arrays, as many rho
    # rows at once as keep a chunk within _SCAN_ENDS endpoint pairs.
    rows = max(1, _SCAN_ENDS // (xis.size * max(1, s.lo.size)))
    lo, hi = s.lo[:, None, None], s.hi[:, None, None]
    lo_closed, hi_closed = s.lo_closed[:, None, None], s.hi_closed[:, None, None]
    err = np.empty((rho_points, xis.size))
    for start in range(0, rho_points, rows):
        scale = rhos[start:start + rows, None]
        img_lo = lo * scale + xis
        img_hi = hi * scale + xis
        walk = _walk_masses(n, *lattice_ends(
            img_lo * sqrt_n, lo_closed, img_hi * sqrt_n, hi_closed)).sum(axis=0)
        cdf = _phi_array(np.stack((img_hi, img_lo)))
        gauss = (cdf[0] - cdf[1]).sum(axis=0)
        err[start:start + rows] = np.abs(walk - gauss)
    # the first maximum in (rho, xi) order, as a scan over rho rows would keep it
    i, j = np.unravel_index(int(np.argmax(err)), err.shape)
    return CltScanResult(float(err[i, j]), float(rhos[i]), float(xis[j]),
                         radius, step, n, rho_points)
