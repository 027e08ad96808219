"""Standard Gaussian measure of interval sets and the exact n-step walk law.

The continuous side evaluates the Gaussian CDF through the complementary error
function, pairing endpoints so deep-tail masses keep absolute accuracy; grid
searches evaluate whole arrays of shifts at once.  The lattice side is exact:
the walk-law mass of a set is a sum of binomial coefficients over its
`intervals.lattice_ends` site ranges, read off cached integer prefix sums,
divided once by 2^n with correct rounding.  Sets are read through their
endpoint arrays (``IntervalSet.lo``, ``hi`` and the flags), which
`intervals` builds.  All functions here are pure and reentrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtr

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


def shifted_mass(lo: np.ndarray, hi: np.ndarray, xs) -> np.ndarray:
    """x -> nu(S - x) over an array of shifts, for S given by its endpoint arrays."""
    total = np.zeros(np.shape(xs), dtype=float)
    for a, b in zip(lo, hi):
        total += ndtr(b - xs) - ndtr(a - xs)
    return total


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
    counts = _paths_ending_in(n, first - y, last - y).sum(axis=1)
    return (counts / (1 << n)).astype(float)


# -- uniform CLT discrepancy scan --------------------------------------------

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
    denom = 1 << n
    best = (-1.0, 0.0, 0.0)
    for rho in np.linspace(1.0 / big_r, big_r, rho_points):
        # One row of images rho*S + xi: (xi, component) endpoint arrays.
        img_lo = s.lo * rho + xis[:, None]
        img_hi = s.hi * rho + xis[:, None]
        counts = _paths_ending_in(n, *lattice_ends(
            img_lo * sqrt_n, s.lo_closed, img_hi * sqrt_n, s.hi_closed)).sum(axis=1)
        walk = (counts / denom).astype(float)
        gauss = shifted_mass(s.lo * rho, s.hi * rho, -xis)
        err = np.abs(walk - gauss)
        j = int(np.argmax(err))
        if err[j] > best[0]:
            best = (float(err[j]), float(rho), float(xis[j]))
    return CltScanResult(best[0], best[1], best[2], radius, step, n, rho_points)
