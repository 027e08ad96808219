"""Branching random walk simulator: one vector kernel over blocks of replicas.

Particles reproduce with at-least-binary offspring counts and children step
+-1 independently.  Every replica is a row of dense per-site counts, stepped
by one vector kernel: every site with at most 2^53 particles (and at most
2^63 children) gets an exact multinomial offspring total and an exact
binomial left/right split; only larger sites use a float-scaled normal
approximation, clamped to [b c, kmax c].  Each row's counts carry a
power-of-two exponent, so populations far beyond float range stay
representable; the public measure keeps arbitrary-precision integers.

The normal path's error is stated per draw.  A site's total from c parents
(c > 2^53, or c kmax beyond int64) is a sum of c independent offspring
counts with variance sigma^2 and third absolute central moment rho, and its
split of t children is a sum of t fair coin flips.  By the Berry-Esseen
theorem with C <= 0.4748 (Shevtsova, 2011), the Kolmogorov distance between
a standardized draw and its normal approximation is at most
0.4748 rho / (sigma^3 sqrt(c)) for a total and 0.4748 / sqrt(t) for a
split: below 5.1e-9 rho / sigma^3 and 3.6e-9 when c > 2^53, t >= 2c.  A
deterministic law (sigma = 0) has exact totals b c.  Among the README lines
and the benchmark workloads only `simulate` reaches such sites (on 357 of
the 400 steps of its README line): the estimators retire their rows long
before.

The kernel steps a run of blocks of replicas as one 2-D array, one row per
replica, and runs it in two loops: `evolve` steps a run of one block to the
end and records each generation's statistics (for `simulate` and the
tests), and `event_outcomes` retires rows as their events settle (for the
estimators, on runs of up to `run_blocks` blocks, which may belong to
several estimates of one event and start from different counts of one
layout).  When the start's occupied sites share one parity, a row stores
only the sites of the parity occupied at the current generation.  Every
block draws from its own generator: each generation makes one
`BranchingLaw.totals` call (one multinomial; for two points, just its first
binomial; for one point, none) and one binomial call over its small sites
and one normal call over its big sites, the sites taken in row-major order,
a contiguous slice of the run's.
A block holds up to 256 replicas (`block_rows`), so each call's fixed cost
is shared by the sites of many rows.  Everything else (the masks, the
split, the rescale and the certificate) runs once per run and works row by
row.  So a replica's trajectory depends
on its block (its row, the rows beside it in the block and when they
retire) but not on the other blocks of its run, and callers fix a block's
composition independently of scheduling (see `ldp` and `cli`).

The estimators only ask whether a replica's final fraction in a set T clears
a threshold p, and `event_outcomes` answers that with certified early
decision: a row retires with the sign of mu_k - p, mu_k its conditional mean
fraction in T, once a 24th-moment bound on the chance of a misdecision is
at most 1e-12 (`_Certificate`, built on the law's exact factorial moments).
A retired row stops drawing, which moves the later draws of the rows beside
it along the block's stream; retirement reads only the row's own counts, so
the block stays deterministic.  By the union bound, the retired rows all
decide as their full runs would, except with probability at most the sum of
their bounds.  The bound holds for the exact process; sites above 2^53
particles follow the normal approximation, as on a full run.

`step_exact` is the per-site reference the tests compare the kernel
against: it draws each site's total with `BranchingLaw.sample_total` and its
split with one binomial, over a dict measure of exact integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import InfeasibleError, PopulationCapError
from .gaussian import _paths_ending_in
from .intervals import IntervalSet

__all__ = [
    "BranchingLaw",
    "ParticleMeasure",
    "step_exact",
    "evolve",
    "EventOutcomes",
    "event_outcomes",
    "block_rows",
    "run_blocks",
    "enumerate_exact",
]

_EXACT_MAX = 2 ** 53           # largest per-site count drawn exactly
_RESCALE_ABOVE = 1e250         # vector state renormalizes beyond this
_RESCALE_TARGET = 2.0 ** 332   # ~1e100 after renormalization
_BLOCK_ROWS = 256              # replicas stepped as one block, at most
_BLOCK_SITES = 2 ** 16         # rows x final width of one block or run, at most


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

    def totals(self, parents: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Exact draws of the summed offspring of each entry of ``parents``
        (int64, each times `kmax` within int64), in one call: those of
        ``rng.multinomial(parents, probs) @ support`` from the same stream,
        which for two points is its first draw alone, one binomial, and for
        one point no draw."""
        if len(self.support) == 2:
            return self.kmax * parents - (self.kmax - self.b) * rng.binomial(parents, self.p_b)
        if len(self.support) > 2:
            return rng.multinomial(parents, self.probs) @ self.support
        return parents * self.b

    def factorial_moments(self, top: int) -> tuple[tuple[int, ...], int]:
        """((F_0, ..., F_top), D), integers with F_r / D = E xi (xi - 1) ...
        (xi - r + 1) exactly, the probabilities over one power-of-two scale."""
        ratios = [p.as_integer_ratio() for p in self.probs]
        scale = max(b for _, b in ratios).bit_length()
        weights = [a << scale - b.bit_length() for a, b in ratios]
        return (tuple(sum(math.perm(k, r) * w for k, w in zip(self.support, weights))
                      for r in range(top + 1)), sum(weights))


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


# -- the per-site reference step ----------------------------------------------------

def step_exact(zeta: ParticleMeasure, law: BranchingLaw,
               rng: np.random.Generator, cap: int = 10 ** 7) -> ParticleMeasure:
    """One generation of ``zeta`` in exact integers, site by site.

    The reference for the vector kernel: each site's offspring total is one
    `BranchingLaw.sample_total` draw and its right half one binomial(total,
    1/2) draw.  Populations above ``cap`` are refused, since the loop and the
    integers grow with the population.
    """
    if zeta.total > cap:
        raise PopulationCapError(
            f"population {zeta.total} exceeds the step_exact cap {cap}")
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


# -- dense replica blocks ---------------------------------------------------------

def _layout(zeta: ParticleMeasure, n: int) -> tuple[int, int, int, int]:
    """(lowest position, stride, width, width after n generations) of the
    dense rows that hold ``zeta``.

    Children step +-1, so a start whose occupied sites share one parity keeps
    a single occupied parity per generation: stride 2 stores only that parity
    and a generation adds one column, stride 1 adds two.
    """
    lo, hi = zeta.span()
    stride = 2 if all((x - lo) % 2 == 0 for x in zeta.counts) else 1
    width = (hi - lo) // stride + 1
    return lo, stride, width, width + n * (2 // stride)


def block_rows(zeta0: ParticleMeasure, n: int) -> int:
    """Replicas per block (one `evolve` call, or one generator's share of an
    `event_outcomes` run) that keep its arrays small.

    A block of R rows run for n generations ends R x width floats wide; the
    bound keeps that within _BLOCK_SITES = 2^16 (and R within _BLOCK_ROWS =
    256), so a start at one site gets 256 rows up to n = 255 and one row
    from n = 32768 on.  Each generation a block makes one
    `BranchingLaw.totals` call and one binomial call over its small sites.
    On a 2-vCPU x86-64 VM with numpy 2.4 each costs about 7-9 us plus
    80-90 ns per draw, so a narrow block of 64 rows spent most of its draw
    time on the fixed part, and 256 rows spread it over four times as many
    draws.  The worst-case block holds five arrays of 2^16 floats (512 KB
    each), and a block whose rows retire early steps only the front of
    them: rows x the width it reaches.  It depends only on
    (zeta0, n), so the blocks of an estimate, and with them its draws, do
    not depend on how the blocks are spread over workers.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    final_width = _layout(zeta0, n)[3]
    return max(1, min(_BLOCK_ROWS, _BLOCK_SITES // final_width))


def run_blocks(zeta0: ParticleMeasure, n: int) -> int:
    """Blocks of `block_rows` rows that one run (one `event_outcomes` call)
    may stack: as many as keep rows x final width within the budget of one
    block, _BLOCK_SITES = 2^16, and at least one.

    A start at one site gets runs of up to 256 / (n + 1) blocks of 256 rows,
    so stacking pays where blocks are narrow and the kernel's fixed cost
    per call is most of a step; from n = 128 on every block is a run of its
    own.  A run's arrays are no larger than the largest block's, so a
    process's peak memory does not grow with stacking.
    """
    final_width = _layout(zeta0, n)[3]
    return max(1, _BLOCK_SITES // (block_rows(zeta0, n) * final_width))


class _VectorState:
    """A run of replica blocks as dense per-site counts, one row per replica.

    Row r holds integer-valued floats times 2**exp2[r] at positions
    lo + stride*j.  Block i holds ``rows[i]`` consecutive rows (at most
    256, see `block_rows`), every one starting as ``starts[i]``, and draws
    from its own generator ``rngs[i]``: each kind of draw in one call over
    the block's sites in row-major order, which are one contiguous slice of
    the run's.  The starts may differ in their counts but must share one
    layout (`_layout`), so that every row has the same sites.  So a
    block draws as it would as a run of one, whatever blocks sit beside it.
    The buffers are sized for the final width but the steps write only
    their front, rows x current width.  A row's counts and its exponent are
    all its state: the normal draws at sites above 2^53 particles take a
    particle's weight 2**-exp2[r] from the exponent, so the rescale and
    `keep_rows` keep nothing else in step.
    """

    __slots__ = ("v", "lo", "stride", "exp2", "rngs", "ends", "_spare", "_work")

    def __init__(self, starts: Sequence[ParticleMeasure], n: int,
                 rows: Sequence[int], rngs: Sequence[np.random.Generator]):
        if not len(starts) == len(rows) == len(rngs):
            raise ValueError("one start and one generator per block")
        layouts = {_layout(zeta0, n) for zeta0 in starts}
        if len(layouts) != 1:
            raise ValueError("the blocks' starts need one layout")
        self.lo, self.stride, width, final_width = layouts.pop()
        self.ends = np.cumsum(rows)   # one past each block's last row
        total = int(self.ends[-1])
        # two buffers sized for the final width; steps alternate between them
        capacity = total * final_width
        self.v = np.zeros(capacity)[:total * width].reshape(total, width)
        for zeta0, first, last in zip(starts, self.ends - rows, self.ends):
            columns = [(x - self.lo) // self.stride for x in zeta0.counts]
            self.v[first:last, columns] = [float(c) for c in zeta0.counts.values()]
        self._spare = np.empty(capacity)
        self._work = np.empty((3, capacity))   # step's scratch arrays
        self.exp2 = np.zeros(total, dtype=np.int64)
        self.rngs = list(rngs)

    def positions(self) -> np.ndarray:
        return self.lo + self.stride * np.arange(self.v.shape[1])

    def _next_generation(self) -> np.ndarray:
        """Move the layout on one generation; returns the new (unfilled) rows."""
        rows, width = self.v.shape
        shift = 2 // self.stride
        grown = self._spare[:rows * (width + shift)].reshape(rows, width + shift)
        self._spare = self.v.base
        self.v = grown
        self.lo -= 1
        return grown

    def step(self, law: BranchingLaw) -> None:
        v = self.v
        rows, width = v.shape
        # exact while the true count c <= 2^53 and c * kmax fits int64
        limit = np.ldexp(float(min(_EXACT_MAX, (2 ** 63 - 1) // law.kmax)), -self.exp2)
        big = v > limit[:, None]
        small = v > 0.0
        small ^= big
        small_at = small.ravel().nonzero()[0]
        big_at = big.ravel().nonzero()[0]

        # each block draws its small sites' totals, then their splits, then
        # its big sites' normals, each in one call over its own sites in
        # row-major order: a slice of small_at or big_at, since a block's rows
        # are consecutive.  A block without sites of a kind makes no call.
        small_rows = small_at // width
        small_exp2 = self.exp2[small_rows]
        parents = np.rint(np.ldexp(v.reshape(-1)[small_at], small_exp2)).astype(np.int64)
        kids, drawn, normals = [], [], []   # the blocks' draws, in block order
        small_first = big_first = 0
        for rng, small_last, big_last in zip(self.rngs,
                                             small_rows.searchsorted(self.ends).tolist(),
                                             (big_at // width).searchsorted(self.ends).tolist()):
            if small_last > small_first:
                totals = law.totals(parents[small_first:small_last], rng)
                kids.append(totals)
                drawn.append(rng.binomial(totals, 0.5))
            if big_last > big_first:
                normals.append(rng.standard_normal((2, big_last - big_first)))
            small_first, big_first = small_last, big_last
        t, right, spare = self._work[:, :v.size].reshape(3, rows, width)
        t.fill(0.0)
        right.fill(0.0)
        if big_at.size:
            # t and right start as each big site's two normals, 0 elsewhere
            normals = np.concatenate(normals, axis=1)
            t.reshape(-1)[big_at] = normals[0]
            right.reshape(-1)[big_at] = normals[1]
            unit = np.ldexp(1.0, -self.exp2)[:, None]   # one particle in row r
            # t = v beta + z_t sqrt(v var unit), clamped to [b v, kmax v], and
            # right = t/2 + z_r sqrt(t unit)/2, clamped to [0, t]; 0 at empty sites
            np.sqrt(np.multiply(v, law.variance * unit, out=spare), out=spare)
            t *= spare
            t += np.multiply(v, law.beta, out=spare)
            np.maximum(t, np.multiply(v, law.b, out=spare), out=t)
            np.minimum(t, np.multiply(v, law.kmax, out=spare), out=t)
            np.sqrt(np.multiply(t, unit, out=spare), out=spare)
            spare *= 0.5
            right *= spare
            right += np.multiply(t, 0.5, out=spare)
            np.maximum(right, 0.0, out=right)
            np.minimum(right, t, out=right)
        if small_at.size:
            t.reshape(-1)[small_at] = np.ldexp(np.concatenate(kids, dtype=float), -small_exp2)
            right.reshape(-1)[small_at] = np.ldexp(np.concatenate(drawn, dtype=float),
                                                   -small_exp2)
        left = np.subtract(t, right, out=spare)
        np.subtract(t, left, out=right)   # exact (Fast2Sum): left + right == t in floats

        # the left child of column j stays in column j, the right one moves on
        # by the growth in width
        grown = self._next_generation()
        grown[:, :width] = left
        grown[:, width:] = 0.0
        grown[:, grown.shape[1] - width:] += right
        if grown.max() > _RESCALE_ABOVE:
            peak = grown.max(axis=1)
            hot = np.flatnonzero(peak > _RESCALE_ABOVE)
            shifts = np.ceil(np.log2(peak[hot] / _RESCALE_TARGET)).astype(np.int64)
            grown[hot] = np.ldexp(grown[hot], -shifts[:, None])
            self.exp2[hot] += shifts

    def keep_rows(self, keep: np.ndarray) -> None:
        """Drop the rows where ``keep`` is False; the others step on unchanged,
        each in its block."""
        self.ends = keep.nonzero()[0].searchsorted(self.ends)
        kept = self.v[keep]   # fancy indexing copies, so the buffer can take it
        self.v = self.v.base[:kept.size].reshape(kept.shape)
        self.v[...] = kept
        self.exp2 = self.exp2[keep]

    def fraction_in(self, first: np.ndarray, last: np.ndarray) -> np.ndarray:
        """Fraction of each row's particles at sites inside the integer ranges
        [first, last], one per component (see `IntervalSet.site_ranges`)."""
        sites = self.positions()
        inside = ((sites >= first[:, None]) & (sites <= last[:, None])).any(axis=0)
        return self.v[:, inside].sum(axis=1) / self.v.sum(axis=1)


# -- evolve ----------------------------------------------------------------------

def evolve(zeta0: ParticleMeasure, law: BranchingLaw, n: int, rows: int,
           rng: np.random.Generator,
           trajectory_set: IntervalSet) -> tuple[dict[str, np.ndarray], _VectorState]:
    """Run ``rows`` replicas of ``zeta0`` for ``n`` generations as one block.

    The replicas are the rows of a `_VectorState` run of this one block,
    drawing from ``rng``.  It stays a run of one: the mean position is a
    BLAS matrix product, whose rounding of a row is not known to be
    independent of the rows beside it.  Returns per-generation statistics,
    each an array of shape (n + 1, rows) with row k at generation k, and
    the block after the last generation:

    - ``total_log``: log of the population Z_k;
    - ``normalized_total``: Z_k / (beta^k Z_0), whose mean stays 1; computed
      in log space, so it cannot underflow;
    - ``mean_position``: the mean particle position;
    - ``fraction``: the fraction of particles inside sqrt(k) times
      ``trajectory_set`` (the set unscaled at k = 0).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    block = _VectorState([zeta0], n, [rows], [rng])
    roots = np.sqrt(np.arange(n + 1.0))
    roots[0] = 1.0   # the set unscaled at k = 0
    firsts, lasts = trajectory_set.site_ranges(roots[:, None])
    total_log, mean_position, fraction = np.empty((3, n + 1, rows))
    for k in range(n + 1):
        if k:
            block.step(law)
        totals = block.v.sum(axis=1)
        total_log[k] = np.log(totals) + block.exp2 * math.log(2.0)
        mean_position[k] = block.v @ block.positions() / totals
        fraction[k] = block.fraction_in(firsts[k], lasts[k])
    growth = np.arange(n + 1) * math.log(law.beta) + math.log(zeta0.total)
    return {"total_log": total_log,
            "normalized_total": np.exp(total_log - growth[:, None]),
            "mean_position": mean_position,
            "fraction": fraction}, block


# -- certified early decision ------------------------------------------------------

_DECIDE_EPS = 1e-12   # a row retires once its misdecision bound is at most this
_TINY = np.finfo(float).tiny   # the smallest normal float
# covers the 15 r - 3 roundings of `_Certificate.settle`'s bound at r = _ORDER
_ROUND_UP = 1.0 + 2.0 ** -45
# what `_Certificate.settle` returns when no row can pass
_NONE_SETTLED = (np.zeros(0, dtype=np.intp), np.zeros(0, dtype=bool), np.zeros(0))

_ORDER = 12
"""Half the largest order 2r of the moment that `_Certificate` bounds,
E (sum D_i)^(2r).

No row passes below the gate K ((2r - 1)!! / eps)^(1/r) particles: about
1.8e6 at r = 2, 3,400 at r = 4, 500 at r = 6 and 97 at r = 12 under
2:0.5,3:0.5, and 15,780 at r = 6 against 3,069 at r = 12 under
2:0.995,200:0.005.  A law whose m_2r overflows falls back to the largest
order whose moment is finite (`_bound_terms`).  Going from r = 6 to 12
retired rows about two generations sooner and cut the sites drawn in one
pass of each benchmark simulation workload (seed 1, one process,
`tools/draw_calls.py`) by 18-27%: 40,721 -> 32,687 on shift-ldp, 158,105 ->
130,382 on dilation-ldp and 68,005 -> 49,898 on concentration.  The terms
cost about 2 ms per law and process to build, against 0.3-0.4 ms at r = 6.
Higher orders gain less: the gate falls to 72 at r = 16 and 60 at r = 24
under 2:0.5,3:0.5, a third and a half of a generation of growth, while the
build time grows about as r^3 (2.3x at r = 16, 8x at r = 24).
"""


@dataclass(frozen=True)
class EventOutcomes:
    """Per-replica outcome of one `event_outcomes` run, its blocks end to end."""

    hits: np.ndarray        # bool: the event happened, or was certified to
    decided_at: np.ndarray  # generation the row retired at; n if it ran to the end
    bounds: np.ndarray      # each retired row's misdecision bound, > 0; 0 for full runs


class _Certificate:
    """24th-moment test that a row's event ``final fraction in T vs p`` is
    settled.

    With j generations left, M = Z_n(T) - p Z_n(R) is a sum of N = Z_k(R)
    independent subtree terms X_i = T_i - p S_i, where S_i is the subtree's
    size and T_i its part in T.  Its conditional mean is beta^j N (mu_k - p),
    with mu_k = sum_y Z_k(y) P(y + S_j in T) / N, so M takes the sign of
    g = mu_k - p unless the centred sum sum_i D_i, D_i = X_i - E X_i, reaches
    beta^j N |g|.  Since |X_i| <= c S_i, c = max(|p|, |1 - p|), and
    E S_i^k <= beta^(kj) m_k (`_limit_moments`), E D_i^2 <= c^2 K beta^(2j)
    with K = m_2 and |E D_i^k| <= 2^k c^k m_k beta^(kj).  Expanding
    E (sum_i D_i)^(2r), r = _ORDER (or less, where the law's m_(2r)
    overflows; see `_bound_terms`), over the set partitions of the 2r
    factors into blocks of at least two (a lone factor has mean 0), a
    partition with r - l blocks contributes at most N^(r-l) times its blocks'
    moment bounds, and Markov's inequality bounds the chance of a
    misdecision by b^r (t_0 + t_1 / N + ... + t_(r-1) / N^(r-1)), where
    b = c^2 K / (N g^2) is Chebyshev's bound and the t_l depend only on the
    law (`_bound_terms`), t_0 = (2r - 1)!!.  At r = 2 it is
    b^2 (3 + 16 m_4 / (K^2 N)).  Since |g| <= c, b >= K / N, so no row
    passes while N < K (t_0 / eps)^(1/r), and the test costs one max over the
    run until then.  mu_k reads the walk law from a float table with a
    derived error bound (`_walk_table`, `_table_error`), which the margin
    absorbs.
    """

    def __init__(self, law: BranchingLaw, target: IntervalSet, threshold: float):
        self.target = target
        self.components = len(target.components)
        self.threshold = threshold
        k_factor = _limit_moments(law)[2]
        self.c2k = max(abs(threshold), abs(1.0 - threshold)) ** 2 * k_factor
        self.terms = _bound_terms(law)
        self.order = len(self.terms)
        self.gate = k_factor * (self.terms[0] / _DECIDE_EPS) ** (1.0 / self.order)
        # the bound is at least t_0 b^r, so no row with b above this passes;
        # widened by 2^-40 for the roundings of the quotient and the root
        self.b_max = (_DECIDE_EPS / self.terms[0]) ** (1.0 / self.order) * (1.0 + 2.0 ** -40)

    def settle(self, run: _VectorState, j: int):
        """(rows, outcomes, bounds) of the run's rows settled with j
        generations left, as arrays.

        Only rows with Z_k(R) at the gate can pass, so the walk-law table and
        mu_k are computed for those rows alone, and for none until one
        reaches it; a max over the run skips the row sums while even the
        largest site times the width stays below the gate.  mu_k uses the
        float table `_walk_table`, whose entries are within
        delta = `_table_error` of the exact walk law, so mu_k is within delta
        of its value under the exact table.  mu_k and Z_k(R) are row sums of
        at most w = width nonnegative terms, each a table entry times a
        count, rounded once.  In any summation order a term passes through at
        most w - 1 additions, so a computed sum is within a factor
        1 + gamma_(w+1) of the exact one, gamma_m = m u / (1 - m u),
        u = 2^-53 (Higham, *Accuracy and Stability of Numerical Algorithms*,
        2002, sec. 4.2).  Adding the division and the subtraction of p (mu_k
        and |mu_k - p| are at most 1), the gap's rounding error stays below
        the slack (w + 2) 2^-52, and the relative error of Z_k(R) below the
        same slack; the margin is |mu_k - p| - slack - delta.  The slack
        holds in any grouping of a row's terms, and numpy sums a row along
        the contiguous last axis in an order set by the width alone, so a
        row settles as it would with no other row beside it.

        The bound is evaluated for Z_k(R) lowered by the slack and
        |mu_k - p| by the margin's two terms, as b = f 2^(q - e) with
        f in [1/2, 1), where e is the row's exponent, so f^r times the
        polynomial is a normal float and only the final scaling by
        2^(r (q - e)) can underflow.  Before it, the computed value is the
        exact one for the lowered quantities times at most 15 r - 3 rounding
        factors 1 + d, |d| <= u: 10 in f (c enters as c^2, the lowered
        Z_k(R) and two margins once each, and c^2 K takes two products and f
        three divisions), so 10 r + r - 1 in f^r; at most 4 (r - 1) in the
        polynomial, whose term t_l / N^l takes l roundings of Z_k(R),
        l divisions, l products and l additions in Horner's scheme; and 2
        for the last two products.  At r = _ORDER = 12 that is 177 factors,
        and _ROUND_UP = 1 + 2^-45 > (1 - u)^-177 (about 1 + 1.97e-14)
        rounds the value up, with room for the absolute error, below
        t_l 2^-1074, of any term t_l / N^l that underflows.  A scaled result
        below the smallest normal float is rounded to nearest, within
        2^-1075, so it is stepped up to the next float: a bound never rounds
        below the smallest positive float.

        Every t_l is positive, so the computed polynomial is at least t_0,
        and the computed bound at least t_0 b^r for the computed b (the
        round-up factor covers the r + 1 roundings of f^r and of the first
        product).  So a row whose computed b exceeds (eps / t_0)^(1/r),
        widened by 2^-40 (`b_max`), would not pass, and it is dropped before
        the power and the polynomial: rows reach the gate about two
        generations before they can pass.
        """
        v = run.v
        width = v.shape[1]
        # the largest site times the width bounds every row's Z_k(R) above
        if float(v.max()) * width < math.ldexp(self.gate, -int(run.exp2.max())):
            return _NONE_SETTLED
        totals = v.sum(axis=1)
        rows = (totals >= np.ldexp(self.gate, -run.exp2)).nonzero()[0]
        if not rows.size:
            return _NONE_SETTLED
        table = _walk_table(j, self.target, run.lo, run.stride, width)
        totals = totals[rows]
        terms = v[rows]
        terms *= table
        gaps = terms.sum(axis=1) / totals - self.threshold
        slack = (width + 2) * 2.0 ** -52
        margins = np.abs(gaps) - slack - _table_error(j, self.components)
        passing = margins > 0.0
        rows, gaps, margins = rows[passing], gaps[passing], margins[passing]
        exp2 = run.exp2[rows]
        low_totals = totals[passing] * (1.0 - slack)   # Z_k(R) 2^-exp2, rounded down
        # divisions only, so nothing underflows before the final scaling
        chebyshev = self.c2k / low_totals / margins / margins   # b 2^exp2
        near = np.ldexp(chebyshev, -exp2) <= self.b_max
        if not near.any():
            return _NONE_SETTLED
        rows, gaps, exp2 = rows[near], gaps[near], exp2[near]
        low_totals = low_totals[near]
        f, q = np.frexp(chebyshev[near])
        power = f.copy()
        for _ in range(self.order - 1):
            power *= f
        inverse = np.ldexp(1.0 / low_totals, -exp2)   # 1 / Z_k(R)
        poly = np.full(rows.size, self.terms[-1])
        for term in self.terms[-2::-1]:
            poly *= inverse
            poly += term
        bounds = np.ldexp(power * poly * _ROUND_UP, self.order * (q - exp2))
        np.nextafter(bounds, np.inf, out=bounds, where=bounds < _TINY)
        settled = bounds <= _DECIDE_EPS
        return rows[settled], gaps[settled] > 0.0, bounds[settled]


_UNIT_ROUNDOFF = 2.0 ** -53


def _gamma(m: int) -> float:
    """Higham's gamma_m = m u / (1 - m u): the relative error of m roundings."""
    return m * _UNIT_ROUNDOFF / (1.0 - m * _UNIT_ROUNDOFF)


def _walk_prefix_row(j: int) -> np.ndarray:
    """row[i] = P(S_j < 2i - j) for i <= j + 1, in floats: the prefix row of
    the j-step walk law, indexed as `gaussian._prefix_row`, built in O(j).

    With h = ceil(j / 2) and m = floor(j / 2), the mode C(j, m) 2^-j is the
    product of the h factors (2i - 1) / (2i), i <= h.  The pmf runs from it
    upward by the ratios (j - l) / (l + 1), l = m, ..., j - 1, and downward by
    l / (j - l + 1), l = m, ..., 1, as two cumulative products, and the row
    is the cumulative sum of the pmf.  See `_table_error` for its error.
    """
    m, h = j // 2, j - j // 2
    even = 2.0 * np.arange(1, h + 1)
    mode = np.prod((even - 1.0) / even)
    up = np.arange(m, j)
    down = np.arange(m, 0, -1)
    pmf = np.empty(j + 1)
    pmf[m:] = np.cumprod(np.concatenate(([mode], (j - up) / (up + 1.0))))
    pmf[m::-1] = np.cumprod(np.concatenate(([mode], down / (j - down + 1.0))))
    row = np.zeros(j + 2)
    np.cumsum(pmf, out=row[1:])
    return row


def _table_error(j: int, components: int) -> float:
    """An absolute bound on the error of every `_walk_table` entry for a
    target of ``components`` components, j steps ahead.

    Rounding follows Higham (*Accuracy and Stability of Numerical
    Algorithms*, 2002, sec. 2.1): fl(x op y) = (x op y)(1 + d) + e with
    |d| <= u = 2^-53, |e| <= 2^-1075 and e = 0 for additions and
    subtractions; gamma_m = m u / (1 - m u).  In `_walk_prefix_row`:

    - the mode takes h divisions and h - 1 products, each factor in
      [1/2, 1) and no partial product below 1 / (2 sqrt(h)), so it is within
      a factor 1 + gamma_(2h-1), in any order (sec. 3.1, Lemma 3.1);
    - pmf entry i takes |i - m| <= h more ratios, each one division of exact
      integers, and as many products of the cumulative product, so it is
      within a factor 1 + gamma_(2j+1) of C(j, i) 2^-j, plus the underflow
      terms e.  Away from the mode every ratio is at most 1, so each e
      shrinks through the later products and entry i carries at most
      h 2^-1074 of them, all entries together A <= (j + 1)^2 2^-1074;
    - the cumulative sum adds at most j + 1 terms recursively, within
      gamma_j times their sum (sec. 4.2, (4.4)); the exact prefix sums are
      at most 1, so row[i] is within d_row = gamma_(3j+1) + 2A of
      P(S_j < 2i - j), using (1 + gamma_a)(1 + gamma_b) <= 1 + gamma_(a+b).

    A table entry is a sum over the c components of differences of two row
    entries, each difference within 2 d_row of the exact one before its own
    rounding, and the exact entry is at most 1; the c - 1 additions, in any
    order, and the c subtractions add at most gamma_c (1 + 2 c d_row).  So
    every entry is within 2 c d_row + gamma_c (1 + 2 c d_row) of
    P(y + S_j in target): about 6.0e-13 at j = 900 and 2.7e-11 at
    j = 4 10^4 for one component.  The bound's own dozen roundings are
    covered by the factor 1 + 2^-48.
    """
    row = _gamma(3 * j + 1) + 2.0 * (j + 1) ** 2 * 2.0 ** -1074
    spread = 2.0 * components * row
    return (spread + _gamma(components) * (1.0 + spread)) * (1.0 + 2.0 ** -48)


@lru_cache(maxsize=256)
def _walk_table(j: int, target: IntervalSet, lo: int, stride: int,
                width: int) -> np.ndarray:
    """P(y + S_j in target) at a block's sites y = lo + stride * i, i < width,
    within `_table_error(j, components)`.

    Every block of a run at generation k has the same sites, its start
    sharing the run's layout, so the blocks share each table; its prefix row
    is built for this call only, since at j = 10^6 one row takes 8 MB.
    """
    first, last = target.site_ranges()
    sites = (lo + stride * np.arange(width))[:, None]
    table = _paths_ending_in(j, first - sites, last - sites,
                             _walk_prefix_row(j)).sum(axis=1)
    table.flags.writeable = False   # shared by every block through the cache
    return table


def _bell_row(x: Sequence[int], rows: list[list[int]]) -> list[int]:
    """Append to ``rows`` row m = len(rows) of the partial Bell polynomials
    B(m, k) of x_1, x_2, ... and return it: the sum, over the set partitions
    of m items into k blocks, of the products of x_(block size).  The first
    item's block holds i items, so B(m, k) = sum_i C(m - 1, i - 1) x_i
    B(m - i, k - 1) for k >= 2, which needs only x_1, ..., x_(m-1) and the
    rows before (rows[0] = [1]); B(m, 1) = x_m is left 0, for the caller."""
    m = len(rows)
    row = [0] * (m + 1)
    for k in range(2, m + 1):
        row[k] = sum(math.comb(m - 1, i - 1) * x[i] * rows[m - i][k - 1]
                     for i in range(1, m - k + 2))
    rows.append(row)
    return row


def _round_up(num: int, den: int) -> float:
    """The least float >= num / den, for positive integers; inf beyond range."""
    try:
        x = num / den   # correctly rounded
    except OverflowError:
        return math.inf
    a, b = x.as_integer_ratio()
    return math.nextafter(x, math.inf) if a * den < num * b else x


def _times_2_52(x: float) -> int:
    """x 2^52 as an integer, exact for a float x >= 1."""
    a, b = x.as_integer_ratio()
    return a << 53 - b.bit_length()


@lru_cache(maxsize=64)
def _limit_moments(law: BranchingLaw) -> tuple[float, ...]:
    """E W^k, k = 0, ..., 2 _ORDER, of the martingale limit W = lim Z_j / beta^j,
    each rounded up.

    W = beta^-1 sum_(i <= xi) W_i with W_i independent copies of W, and
    expanding the k-th power of the sum over the set partitions of its k
    factors into r blocks gives beta^k m_k = sum_r f_r B(k, r), with B(k, r)
    the partial Bell polynomials of m_1, m_2, ... (`_bell_row`) and
    f_r = E xi (xi - 1) ... (xi - r + 1) the factorial moments of the
    offspring count (`BranchingLaw.factorial_moments`; Athreya & Ney,
    *Branching Processes*, 1972, ch. I).  The one block, B(k, 1) = m_k,
    gives beta m_k, so m_k (beta^k - beta) is a sum of positive terms in
    lower moments: each m_k is computed from the rounded-up ones before it,
    in exact integers (each m_i as m_i 2^52), and rounded up, which keeps
    every one an upper bound.  The table of B grows one row per moment.
    Z_j / beta^j is a martingale, so E Z_j^k / beta^(kj) increases to E W^k
    for k >= 1, and m_k >= 1.  A moment beyond float range is inf, and so is
    every later one.
    """
    top = 2 * _ORDER
    factorial, den = law.factorial_moments(top)   # f_r = factorial[r] / den
    beta = factorial[1]
    moments = [1.0, 1.0]
    scaled = [0, 1 << 52]   # m_k 2^52
    bell = [[1], [0, scaled[1]]]
    for k in range(2, top + 1):
        row = _bell_row(scaled, bell)
        num = sum(factorial[r] * row[r] << 52 * (k - r)
                  for r in range(2, k + 1)) * den ** (k - 1)
        moment = _round_up(num, (beta ** k - beta * den ** (k - 1)) << 52 * k)
        moments.append(moment)
        if moment == math.inf:
            return tuple(moments + [math.inf] * (top - k))
        scaled.append(_times_2_52(moment))
        row[1] = scaled[k]
    return tuple(moments)


@lru_cache(maxsize=64)
def _bound_terms(law: BranchingLaw) -> tuple[float, ...]:
    """(t_0, ..., t_(r-1)) of `_Certificate`'s bound, each rounded up, at the
    largest order r <= _ORDER whose moment m_2r (`_limit_moments`) is
    finite; the certificate reads r as their count.

    t_l sums, over the set partitions of 2r items into r - l blocks of at
    least 2, prod w_(block size) / K^r, with w_2 = K = m_2 and w_k = 2^k m_k
    from `_limit_moments`: the partial Bell polynomial B(2r, r - l) of
    w_1 = 0, w_2, w_3, ... (`_bell_row`) over K^r, in exact integers;
    t_0 = (2r - 1)!!, the pairings.  A law whose m_2r overflows float range
    falls back to a lower order, so it still retires rows (later); one whose
    m_4 overflows gets t_0 = t_1 = inf at r = 2, and no row passes.  The
    terms do not depend on c, so they are built once per law, in about 2 ms
    at r = 12, and `WorkerPool` builds them before it forks.
    """
    moments = _limit_moments(law)
    finite = moments.index(math.inf) if math.inf in moments else len(moments)
    order = (finite - 1) // 2   # the largest r with m_2r finite
    if order < 2:
        return (math.inf,) * 2
    weights = [0, 0] + [_times_2_52(m) << (k if k > 2 else 0)
                        for k, m in enumerate(moments[:2 * order + 1]) if k >= 2]
    bell = [[1]]
    for m in range(1, 2 * order + 1):
        _bell_row(weights, bell)[1] = weights[m]
    sums = bell[-1]   # by the number of blocks
    power = weights[2] ** order
    return tuple(_round_up(sums[order - l] << 52 * l, power)
                 for l in range(order))


def event_outcomes(starts: Sequence[ParticleMeasure], law: BranchingLaw, n: int,
                   final_set: IntervalSet, threshold: float, strict: bool,
                   rows: Sequence[int],
                   rngs: Sequence[np.random.Generator]) -> EventOutcomes:
    """Whether each replica's final fraction inside ``final_set`` exceeds
    ``threshold`` (``strict``) or reaches it, for a run of blocks of
    ``rows[i]`` replicas of ``starts[i]``, block i drawing from ``rngs[i]``.
    The starts may differ in their counts but not in their layout, so one
    run can hold the blocks of several estimates of one event.

    Steps the run as one `_VectorState`, but before each generation k
    retires every row whose outcome a 24th-moment bound settles: the row
    takes the sign of mu_k - threshold as its outcome once its misdecision
    bound is at most _DECIDE_EPS = 1e-12 (see `_Certificate`).  Retired rows
    leave their block, and the run stops when none is left; rows never
    settled run to the end and compare their final fraction.  Until a row
    of a block first retires the block draws as `evolve` does with the same
    generator; after that its remaining rows take later draws of its
    stream, so a row that never retires may end differently from its full
    run.  Every step and test works row by row and every block keeps its
    own stream, so each block's outcomes are, bit for bit, those of a run
    of that block alone; the arrays hold the blocks' outcomes end to end.
    By the union bound, the chance that any retired row decides otherwise
    than its full run would is at most the sum of their ``bounds``.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    run = _VectorState(starts, n, rows, rngs)
    total = run.v.shape[0]
    certificate = _Certificate(law, final_set, threshold)
    ids = np.arange(total)
    hits = np.zeros(total, dtype=bool)
    decided_at = np.full(total, n)
    bounds = np.zeros(total)
    for k in range(n):
        settled, outcomes, row_bounds = certificate.settle(run, n - k)
        if settled.size:
            done = ids[settled]
            hits[done] = outcomes
            decided_at[done] = k
            bounds[done] = row_bounds
            keep = np.ones(ids.size, dtype=bool)
            keep[settled] = False
            ids = ids[keep]
            if not ids.size:
                break
            run.keep_rows(keep)
        run.step(law)
    else:
        fracs = run.fraction_in(*final_set.site_ranges())
        hits[ids] = fracs > threshold if strict else fracs >= threshold
    return EventOutcomes(hits, decided_at, bounds)


# -- exact enumeration oracle ------------------------------------------------------

_ENUMERATION_PRODUCTS = 10 ** 6   # at 5 to 40 us each, more as n grows


def _enumeration_products(n: int, law: BranchingLaw, limit: int) -> int:
    """An upper bound on the products of `enumerate_exact`'s convolutions,
    counted until it passes ``limit``.

    A subtree of depth d ends with a total in T_d (T_0 = {1}; T_d holds the
    sums of k members of T_(d-1), k in the support), so its law has at most
    P(T_d) = sum_(t in T_d) (t + 1) pairs (inside, total).  Each of the
    n - d + 1 sites of depth d >= 1 convolves, for j = 1, ..., kmax, its
    power j - 1 (at most P(S_(j-1)) pairs, S_(j-1) the (j-1)-fold sums of
    T_(d-1)) with one child's law (at most P(T_(d-1)) pairs).  A sumset
    takes fewer steps than the products it bounds, so the count is cheap.
    """
    count, totals = 0, {1}
    for d in range(1, n + 1):
        pairs, power, next_totals = sum(totals) + len(totals), {0}, set()
        for j in range(1, law.kmax + 1):
            count += (n - d + 1) * (sum(power) + len(power)) * pairs
            if count > limit:
                return count
            power = {s + t for s in power for t in totals}
            if j in law.support:
                next_totals |= power
        totals = next_totals
    return count


def _convolve(a_dist: dict, b_dist: dict) -> dict:
    """The law of the sum of independent pairs (inside, total) with laws
    ``a_dist`` and ``b_dist``: len(a_dist) len(b_dist) products."""
    out: dict[tuple[int, int], Fraction] = {}
    for (i1, t1), q1 in a_dist.items():
        for (i2, t2), q2 in b_dist.items():
            key = (i1 + i2, t1 + t2)
            out[key] = out.get(key, Fraction(0)) + q1 * q2
    return out


def enumerate_exact(n: int, law: BranchingLaw, a: IntervalSet, p: float) -> Fraction:
    """Exact rational P(final fraction in sqrt(n)*A is >= p), by full enumeration.

    Feasible only for tiny trees: a request whose bound on the convolution
    products (`_enumeration_products`) passes _ENUMERATION_PRODUCTS = 10^6 is
    refused.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if _enumeration_products(n, law, _ENUMERATION_PRODUCTS) > _ENUMERATION_PRODUCTS:
        raise InfeasibleError(f"enumeration for n={n}, law {law} needs more than "
                              "10^6 products of exact rationals")
    target = a.scale(math.sqrt(n)) if n >= 1 else a
    law_fracs = [(k, Fraction(pk)) for k, pk in zip(law.support, law.probs)]
    half = Fraction(1, 2)
    # laws[x]: the law of (particles inside target, total) that one particle
    # at x leaves after d generations, at the sites reached from 0 in n - d steps
    laws = {x: {(int(target.contains(float(x))), 1): Fraction(1)}
            for x in range(-n, n + 1, 2)}
    for d in range(1, n + 1):
        below, laws = laws, {}
        for x in range(d - n, n - d + 1, 2):
            # one child: a step either way, then d - 1 generations
            child: dict[tuple[int, int], Fraction] = {}
            for side in (below[x + 1], below[x - 1]):
                for pair, q in side.items():
                    child[pair] = child.get(pair, Fraction(0)) + half * q
            dist, power, level = {}, {(0, 0): Fraction(1)}, 0
            for k, pk in law_fracs:
                while level < k:
                    power = _convolve(power, child)
                    level += 1
                for pair, q in power.items():
                    dist[pair] = dist.get(pair, Fraction(0)) + pk * q
            laws[x] = dist
    p_frac = Fraction(p)
    return sum((q for (inside, total), q in laws[0].items()
                if Fraction(inside, total) >= p_frac), Fraction(0))
