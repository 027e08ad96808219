"""Branching random walk simulator with exact, aggregated, and hybrid modes.

Particles reproduce with at-least-binary offspring counts and children step
+-1 independently.  Exact mode draws per particle.  Aggregated mode advances
a dense per-site state with one vector kernel: every site with at most 2^53
particles (and at most 2^63 children) gets an exact multinomial offspring
total and an exact binomial left/right split; only larger sites use a
float-scaled normal approximation, clamped to [b c, kmax c].  Counts in the
dense state carry a shared power-of-two exponent, so populations far beyond
float range stay representable; the public measure keeps arbitrary-precision
integers.

A single run is sequential and owns its state; replicas are meant to run on
independent derived streams (see `streams`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import InfeasibleError, PopulationCapError
from .intervals import IntervalSet

__all__ = [
    "BranchingLaw",
    "ParticleMeasure",
    "PopulationStats",
    "EvolveResult",
    "step_exact",
    "evolve",
    "lattice_fraction",
    "empirical_fraction",
    "enumerate_exact",
]

_EXACT_MAX = 2 ** 53           # largest per-site count drawn exactly
_RESCALE_ABOVE = 1e250         # vector state renormalizes beyond this
_RESCALE_TARGET = 2.0 ** 332   # ~1e100 after renormalization


@dataclass(frozen=True)
class BranchingLaw:
    """Offspring distribution with minimal support at least 2.

    ``b`` is the smallest attainable offspring count; pmf mass must sum to 1
    within 1e-12.  Deterministic laws (a single support point) are accepted
    and tracked via ``non_deterministic``.
    """

    support: tuple[int, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        pairs = [(int(k), float(p)) for k, p in zip(self.support, self.probs) if p != 0.0]
        if not pairs:
            raise ValueError("offspring law needs at least one positive probability")
        pairs.sort()
        ks = [k for k, _ in pairs]
        ps = [p for _, p in pairs]
        if len(set(ks)) != len(ks):
            raise ValueError("duplicate offspring counts")
        if min(ks) < 2:
            raise ValueError("offspring counts must all be >= 2")
        if any(p < 0.0 for p in ps):
            raise ValueError("negative probability")
        total = math.fsum(ps)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"offspring probabilities sum to {total}, not 1")
        ps = [p / total for p in ps]
        object.__setattr__(self, "support", tuple(ks))
        object.__setattr__(self, "probs", tuple(ps))

    @property
    def b(self) -> int:
        return self.support[0]

    @property
    def p_b(self) -> float:
        return self.probs[0]

    @property
    def kmax(self) -> int:
        return self.support[-1]

    @property
    def beta(self) -> float:
        return math.fsum(k * p for k, p in zip(self.support, self.probs))

    @property
    def variance(self) -> float:
        m2 = math.fsum(k * k * p for k, p in zip(self.support, self.probs))
        return max(0.0, m2 - self.beta ** 2)

    @property
    def non_deterministic(self) -> bool:
        return len(self.support) >= 2

    @staticmethod
    def binary() -> "BranchingLaw":
        return BranchingLaw((2,), (1.0,))

    @staticmethod
    def binary_ternary() -> "BranchingLaw":
        return BranchingLaw((2, 3), (0.5, 0.5))

    @staticmethod
    def parse(text: str) -> "BranchingLaw":
        """Parse ``"k:prob,k:prob,..."``, e.g. ``"2:0.5,3:0.5"``."""
        ks, ps = [], []
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            try:
                k_text, p_text = item.split(":")
                ks.append(int(k_text))
                ps.append(float(p_text))
            except ValueError:
                raise ValueError(f"bad offspring law entry {item!r}; "
                                 "expected 'count:prob'") from None
        return BranchingLaw(tuple(ks), tuple(ps))

    def __str__(self) -> str:
        return ",".join(f"{k}:{p:g}" for k, p in zip(self.support, self.probs))

    def sample_total(self, parents: int, rng: np.random.Generator) -> int:
        """Exact draw of the summed offspring of ``parents`` independent particles."""
        counts = rng.multinomial(parents, self.probs)
        return int(np.dot(counts, self.support))


@dataclass
class ParticleMeasure:
    """Integer point measure on the lattice: position -> count (exact integers)."""

    counts: dict[int, int]
    generation: int = 0

    def __post_init__(self):
        cleaned = {int(x): int(c) for x, c in self.counts.items() if c != 0}
        if any(c < 0 for c in cleaned.values()):
            raise ValueError("negative particle count")
        if not cleaned:
            raise ValueError("particle measure must carry at least one particle")
        self.counts = cleaned

    @staticmethod
    def delta(x: int, count: int = 1, generation: int = 0) -> "ParticleMeasure":
        return ParticleMeasure({int(x): count}, generation)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def span(self) -> tuple[int, int]:
        return min(self.counts), max(self.counts)

    def to_lines(self) -> str:
        return "\n".join(f"{x} {c}" for x, c in sorted(self.counts.items()))

    @staticmethod
    def from_lines(text: str, generation: int = 0) -> "ParticleMeasure":
        counts: dict[int, int] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            x_text, c_text = line.split()
            counts[int(x_text)] = counts.get(int(x_text), 0) + int(c_text)
        return ParticleMeasure(counts, generation)


@dataclass(frozen=True)
class PopulationStats:
    """Per-generation summary; ``total`` is exact when the mode provides it."""

    generation: int
    total_log: float
    normalized_total: float
    total: Optional[int] = None
    mean_position: Optional[float] = None
    fraction: Optional[float] = None


# -- single public steps -------------------------------------------------------

def step_exact(zeta: ParticleMeasure, law: BranchingLaw,
               rng: np.random.Generator, cap: int = 10 ** 7) -> ParticleMeasure:
    """One generation with per-particle reproduction and per-child steps.

    Populations above ``cap`` are refused; callers switch to an aggregated
    mode instead.
    """
    if zeta.total > cap:
        raise PopulationCapError(
            f"population {zeta.total} exceeds exact-mode cap {cap}")
    new: dict[int, int] = {}
    for x, c in zeta.counts.items():
        kids = law.sample_total(c, rng)
        right = int(rng.binomial(kids, 0.5))
        left = kids - right
        if left:
            new[x - 1] = new.get(x - 1, 0) + left
        if right:
            new[x + 1] = new.get(x + 1, 0) + right
    return ParticleMeasure(new, zeta.generation + 1)


# -- fast dense state for evolve -------------------------------------------------

class _VectorState:
    """Dense per-site counts as integer-valued floats times 2**exp2."""

    __slots__ = ("v", "left", "exp2", "generation")

    def __init__(self, zeta: ParticleMeasure):
        lo, hi = zeta.span()
        self.v = np.zeros(hi - lo + 1)
        for x, c in zeta.counts.items():
            self.v[x - lo] = float(c)
        self.left = lo
        self.exp2 = 0
        self.generation = zeta.generation

    def positions(self) -> np.ndarray:
        return self.left + np.arange(self.v.size)

    def step(self, law: BranchingLaw, rng: np.random.Generator) -> None:
        v = self.v
        n_sites = v.size
        unit = math.ldexp(1.0, -self.exp2)   # one particle, in scaled units
        # exact while the true count c <= 2^53 and c * kmax fits int64
        limit = math.ldexp(float(min(_EXACT_MAX, (2 ** 63 - 1) // law.kmax)),
                           -self.exp2)
        t = np.zeros(n_sites)
        right = np.zeros(n_sites)

        small = np.flatnonzero((v > 0.0) & (v <= limit))
        if small.size:
            parents = np.rint(np.ldexp(v[small], self.exp2)).astype(np.int64)
            if law.non_deterministic:
                kids = rng.multinomial(parents, law.probs) @ np.array(law.support)
            else:
                kids = parents * law.b
            t[small] = np.ldexp(kids.astype(np.float64), -self.exp2)
            drawn = rng.binomial(kids, 0.5).astype(np.float64)
            right[small] = np.ldexp(drawn, -self.exp2)

        big = np.flatnonzero(v > limit)
        if big.size:
            vb = v[big]
            z = rng.standard_normal(2 * big.size)
            tb = vb * law.beta + z[:big.size] * np.sqrt(vb * (law.variance * unit))
            np.clip(tb, law.b * vb, law.kmax * vb, out=tb)
            rb = 0.5 * tb + z[big.size:] * (0.5 * np.sqrt(tb * unit))
            np.clip(rb, 0.0, tb, out=rb)
            t[big] = tb
            right[big] = rb

        left = t - right
        right = t - left   # exact (Fast2Sum), so left + right == t in floats

        grown = np.zeros(n_sites + 2)
        grown[:n_sites] += left
        grown[2:] += right
        self.v = grown
        self.left -= 1
        self.generation += 1

        peak = grown.max()
        if peak > _RESCALE_ABOVE:
            shift = int(math.ceil(math.log2(peak / _RESCALE_TARGET)))
            self.v = np.ldexp(grown, -shift)
            self.exp2 += shift

    def total_log(self) -> float:
        s = float(self.v.sum())
        return math.log(s) + self.exp2 * math.log(2.0)

    def mean_position(self) -> float:
        s = float(self.v.sum())
        return float(np.dot(self.positions(), self.v)) / s

    def fraction_in(self, s: IntervalSet) -> float:
        mask = _membership_mask(self.positions(), s)
        tot = float(self.v.sum())
        return float(self.v[mask].sum()) / tot

    def to_measure(self) -> ParticleMeasure:
        counts: dict[int, int] = {}
        for i, val in enumerate(self.v):
            if val <= 0.0:
                continue
            if self.exp2 == 0:
                counts[self.left + i] = int(round(val))
            else:
                mant, e2 = math.frexp(float(val))
                whole = int(mant * 9007199254740992.0)  # 2**53
                shift = self.exp2 + e2 - 53
                counts[self.left + i] = whole << shift if shift >= 0 else whole >> -shift
        return ParticleMeasure(counts, self.generation)


def _membership_mask(positions: np.ndarray, s: IntervalSet) -> np.ndarray:
    mask = np.zeros(positions.shape, dtype=bool)
    for c in s:
        lo_ok = positions >= c.lower if c.lower_closed else positions > c.lower
        hi_ok = positions <= c.upper if c.upper_closed else positions < c.upper
        mask |= lo_ok & hi_ok
    return mask


# -- evolve ----------------------------------------------------------------------

@dataclass
class EvolveResult:
    stats: list[PopulationStats]
    final: Optional[ParticleMeasure]
    final_fraction: Optional[float] = None
    switched_at: Optional[int] = None


def evolve(zeta0: ParticleMeasure, law: BranchingLaw, n: int, mode: str = "hybrid",
           rng: Optional[np.random.Generator] = None, cap: int = 1000,
           record: str = "totals", final_set: Optional[IntervalSet] = None,
           trajectory_set: Optional[IntervalSet] = None,
           keep_final: bool = True) -> EvolveResult:
    """Run ``n`` generations and collect per-generation statistics.

    mode 'exact' draws per particle and errors beyond the cap; 'aggregated'
    uses the dense per-site vector kernel throughout; 'hybrid' runs exact
    until the population exceeds ``cap`` and then switches to that kernel.
    The kernel draws offspring totals and splits exactly at every site with
    at most 2^53 particles; above that it uses a normal approximation clamped
    to [b c, kmax c] and carried at float precision.  ``record`` is 'none',
    'totals' (log total plus normalized total) or 'full' (adds mean position
    and, when ``trajectory_set`` is given, the fraction inside
    sqrt(generation) times that set).  ``final_set`` requests the final
    fraction inside an absolute, pre-scaled set.

    Normalized totals divide by beta^k and the starting mass, so their mean
    stays 1 along the run; they are computed in log space and cannot
    underflow.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if mode not in ("exact", "aggregated", "hybrid"):
        raise ValueError(f"unknown mode {mode!r}")
    if record not in ("none", "totals", "full"):
        raise ValueError(f"unknown record level {record!r}")
    if rng is None:
        rng = np.random.default_rng()
    log_beta = math.log(law.beta)
    log_start = math.log(zeta0.total)

    stats: list[PopulationStats] = []
    switched_at: Optional[int] = None

    def snap_exact(measure: ParticleMeasure, k: int) -> None:
        if record == "none":
            return
        tot = measure.total
        tlog = math.log(tot)
        norm = math.exp(tlog - k * log_beta - log_start)
        mean = frac = None
        if record == "full":
            mean = float(sum(x * c for x, c in measure.counts.items())) / tot
            if trajectory_set is not None:
                frac = _trajectory_fraction(measure, k, trajectory_set)
        stats.append(PopulationStats(measure.generation, tlog, norm, tot, mean, frac))

    def snap_vector(state: _VectorState, k: int) -> None:
        if record == "none":
            return
        tlog = state.total_log()
        norm = math.exp(tlog - k * log_beta - log_start)
        mean = frac = None
        if record == "full":
            mean = state.mean_position()
            if trajectory_set is not None:
                scaled = trajectory_set.scale(math.sqrt(k)) if k >= 1 else trajectory_set
                frac = state.fraction_in(scaled)
        stats.append(PopulationStats(state.generation, tlog, norm, None, mean, frac))

    measure: Optional[ParticleMeasure] = zeta0
    state: Optional[_VectorState] = None
    if mode == "aggregated":
        state = _VectorState(zeta0)
        measure = None

    if measure is not None:
        snap_exact(measure, 0)
    else:
        snap_vector(state, 0)

    for k in range(1, n + 1):
        if measure is not None:
            if mode != "exact" and measure.total > cap:
                state = _VectorState(measure)
                measure = None
                switched_at = k - 1
        if measure is not None:
            measure = step_exact(measure, law, rng,
                                 cap=10 ** 7 if mode == "exact" else max(cap, 10 ** 7))
            snap_exact(measure, k)
        else:
            state.step(law, rng)
            snap_vector(state, k)

    final_fraction = None
    final = None
    if measure is not None:
        final = measure
        if final_set is not None:
            final_fraction = lattice_fraction(measure, final_set)
    else:
        if final_set is not None:
            final_fraction = state.fraction_in(final_set)
        if keep_final:
            final = state.to_measure()
    return EvolveResult(stats, final, final_fraction, switched_at)


def _trajectory_fraction(measure: ParticleMeasure, k: int, a: IntervalSet) -> float:
    scaled = a.scale(math.sqrt(k)) if k >= 1 else a
    return lattice_fraction(measure, scaled)


def lattice_fraction(zeta: ParticleMeasure, s: IntervalSet) -> float:
    """Fraction of particles at positions inside an absolute (unscaled) set."""
    inside = sum(c for x, c in zeta.counts.items() if s.contains(float(x)))
    return inside / zeta.total


def empirical_fraction(zeta: ParticleMeasure, n: int, a: IntervalSet) -> float:
    """Fraction of particles in sqrt(n) * A, honoring endpoint flags on the lattice.

    For n = 0 the set is used unscaled.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    scaled = a.scale(math.sqrt(n)) if n >= 1 else a
    return lattice_fraction(zeta, scaled)


# -- exact enumeration oracle ------------------------------------------------------

def enumerate_exact(n: int, law: BranchingLaw, a: IntervalSet, p: float,
                    state_limit: int = 10 ** 8) -> Fraction:
    """Exact rational P(final fraction in sqrt(n)*A is >= p), by full enumeration.

    Feasible only for tiny trees; a pre-count of the dynamic-programming work
    rejects anything beyond ``state_limit`` elementary operations.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    t = law.kmax ** n
    pairs = t * (t + 3) // 2
    entries = sum(2 * (n - d) + 1 for d in range(n + 1))
    if entries * law.kmax * pairs * pairs > state_limit:
        raise InfeasibleError(
            f"enumeration for n={n}, law {law} needs more than "
            f"{state_limit} operations")
    target = a.scale(math.sqrt(n)) if n >= 1 else a
    p_frac = Fraction(p)
    law_fracs = [(k, Fraction(pk)) for k, pk in zip(law.support, law.probs)]
    half = Fraction(1, 2)
    memo: dict[tuple[int, int], dict[tuple[int, int], Fraction]] = {}

    def child_law(x: int, d: int) -> dict[tuple[int, int], Fraction]:
        # one child of a particle at x: step, then evolve d generations
        plus = subtree(x + 1, d)
        minus = subtree(x - 1, d)
        mixed: dict[tuple[int, int], Fraction] = {}
        for dist in (plus, minus):
            for key, q in dist.items():
                mixed[key] = mixed.get(key, Fraction(0)) + half * q
        return mixed

    def convolve(a_dist, b_dist):
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, t1), q1 in a_dist.items():
            for (i2, t2), q2 in b_dist.items():
                key = (i1 + i2, t1 + t2)
                out[key] = out.get(key, Fraction(0)) + q1 * q2
        return out

    def subtree(x: int, d: int) -> dict[tuple[int, int], Fraction]:
        # distribution of (particles inside target, total) for one particle at x
        # with d generations to go
        key = (x, d)
        if key in memo:
            return memo[key]
        if d == 0:
            dist = {(1 if target.contains(float(x)) else 0, 1): Fraction(1)}
        else:
            one_child = child_law(x, d - 1)
            dist = {}
            power = {(0, 0): Fraction(1)}
            level = 0
            for k, pk in law_fracs:
                while level < k:
                    power = convolve(power, one_child)
                    level += 1
                for pair, q in power.items():
                    dist[pair] = dist.get(pair, Fraction(0)) + pk * q
        memo[key] = dist
        return dist

    top = subtree(0, n)
    hit = Fraction(0)
    for (inside, total), q in top.items():
        if Fraction(inside, total) >= p_frac:
            hit += q
    return hit
