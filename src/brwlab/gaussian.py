"""Standard Gaussian measure of interval sets and the exact n-step walk law.

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
NaN input gives NaN.  The lattice side is exact:
the walk-law mass of a set is a sum of binomial coefficients over its
`intervals.lattice_ends` site ranges, read off cached integer prefix sums,
and scaled once by 2^-n with correct rounding (`_walk_probs`).  Sets are
read through their endpoint arrays (``IntervalSet.lo``, ``hi`` and the
flags), which `intervals` builds.  All functions here are pure and reentrant.
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


def _paths_ending_in(n: int, first, last, prefix=None) -> np.ndarray:
    """Prefix-row differences over each integer site range [first, last]: by
    default the number of n-step paths ending there, as exact integers; a
    path of n steps ends at a site 2j - n.

    ``prefix`` is a prefix row of n, indexed as `_prefix_row`; by default
    that exact row.  `engine` passes a float row of walk probabilities.
    """
    # Clipping to just outside [-n, n] keeps infinities and huge endpoints exact.
    first = np.clip(first, -n - 1, n + 1)
    last = np.clip(last, -n - 1, n + 1)
    j_first = np.ceil((first + n) / 2).astype(np.int64)
    j_end = np.floor((last + n) / 2).astype(np.int64) + 1
    if prefix is None:
        prefix = _prefix_row(n)
    return prefix[np.maximum(j_end, j_first)] - prefix[j_first]


def nu_n_of_set(n: int, s: IntervalSet) -> float:
    """Walk-law measure of a set: exact lattice sum over occupied sites.

    A lattice point sitting on an open endpoint is excluded, on a closed one
    included; this is where the endpoint flags become observable.  The path
    count is an exact integer, so the result is correctly rounded.
    """
    return float(hit_probs(n, s, np.zeros(1))[0])


def hit_probs(n: int, s: IntervalSet, sites: np.ndarray) -> np.ndarray:
    """P(y + S_n in s) for each integer site y in ``sites``, correctly rounded.

    The walk-law mass of the set seen from each site, `nu_n_of_set` being the
    one at site 0.  The set's integer site ranges are found once, so every
    subtraction stays exact.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    first, last = s.site_ranges()
    y = np.asarray(sites, dtype=float)[:, None]
    return _walk_probs(_paths_ending_in(n, first - y, last - y).sum(axis=1), n)


# the largest n at which every nonzero count / 2^n is a normal float
_LDEXP_MAX_N = 1022


def _walk_probs(counts: np.ndarray, n: int) -> np.ndarray:
    """Exact n-step path counts as probabilities count / 2^n, correctly rounded.

    float(count) rounds correctly, and scaling by 2^-n is exact while the
    result is normal, as every nonzero count / 2^n is for n <= 1022, so
    `np.ldexp` gives the correctly rounded quotient there.  Beyond, a count
    may pass the float range or its quotient be subnormal, and the integers
    are divided instead.
    """
    if n <= _LDEXP_MAX_N:
        return np.ldexp(counts.astype(float), -n)
    return (counts / (1 << n)).astype(float)


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
        counts = _paths_ending_in(n, *lattice_ends(
            img_lo * sqrt_n, lo_closed, img_hi * sqrt_n, hi_closed)).sum(axis=0)
        cdf = _phi_array(np.stack((img_hi, img_lo)))
        gauss = (cdf[0] - cdf[1]).sum(axis=0)
        err[start:start + rows] = np.abs(_walk_probs(counts, n) - gauss)
    # the first maximum in (rho, xi) order, as a scan over rho rows would keep it
    i, j = np.unravel_index(int(np.argmax(err)), err.shape)
    return CltScanResult(float(err[i, j]), float(rhos[i]), float(xis[j]),
                         radius, step, n, rho_points)
