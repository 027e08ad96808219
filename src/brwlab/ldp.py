"""Strategy pricing and composed tail estimates.

The probability of pushing at least a p-fraction of generation-n particles
into sqrt(n)*A factorizes over a forced prefix (every particle has exactly b
children taking prescribed steps for s generations, an exactly priced event)
and b^s independent single-root successes, estimated by Monte Carlo.  The
composition is carried in log space with exact big integers for b^s, which is
why the doubly-exponentially small probabilities stay representable.

Only the factorized lower-bound route is priced; summing over all prefix
measures for the matching upper bound is out of reach at simulation scale and
is probed indirectly through the concentration experiment.

Replicas run in blocks of `engine.block_rows` rows, a number fixed by the
start and the generation count alone: block b holds replicas [b R, (b + 1) R)
(the last block may be shorter) and draws from the one stream
``derive(*seed, b)``.  Every ``seed`` argument below takes either an int or
an index path as a tuple; the CLI passes (seed, grid index), so no two grid
points or seeds share a stream.  Workers take whole blocks, so an estimate
is the same for any worker count.  Each block runs through
`engine.event_outcomes`, the one simulation kernel, which retires a replica
as soon as a fourth-moment bound of at most 1e-12 certifies whether its
final fraction clears the threshold, so in the shift regime replicas stop
after about 26 generations, however long the run, and in the concentration
probe the largest starts stop a generation or two before the end.  The
estimates report how many replicas were retired early (``decided_early``)
and the sum of their bounds (``misdecision_bound``), a union bound on the
chance that any of them decided otherwise than a full run would; the sum is
exactly rounded, so it does not depend on the worker count.  Neither field
enters the CSV data rows.

The ``workers`` argument is a count or a `WorkerPool`, and counts the
calling process: ``workers=N`` runs blocks in the caller and N - 1 child
processes.  Given a count, an estimate starts and shuts down its own
children; given a pool, it reuses the pool's.  A pool told the event counts
of several estimates ahead (`WorkerPool.expect`) runs all their blocks in
one map at the first of them, so the CLI runs each command's blocks in one
map of one pool.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .engine import BranchingLaw, ParticleMeasure, block_rows, event_outcomes
from .errors import InfeasibleError
from .gaussian import nu, nu_n_of_set, varphi
from .intervals import IntervalSet
from .rates import RateReport, classify
from .streams import derive

__all__ = [
    "StrategySpec",
    "SuccessEstimate",
    "LdpEstimate",
    "RateFit",
    "ConcentrationResult",
    "ProbeResult",
    "wilson_interval",
    "strategy_prefix_logprob",
    "composed_log_neg_log",
    "conditional_success_estimate",
    "ldp_lower_bound",
    "rate_fit",
    "concentration_probe",
    "typical_deviation_probe",
    "WorkerPool",
]

_Z95 = 1.959963984540054

Seed = Union[int, tuple[int, ...]]   # master seed, or an index path below it


def _sgn(x: float) -> int:
    # sign convention for the displacement rounding: sgn(0) = +1
    return -1 if x < 0 else 1


@dataclass(frozen=True)
class StrategySpec:
    """Shift or dilation strategy with its frozen integer roundings.

    w = floor(|x| sqrt(n)) * sgn(x) is the forced displacement, q = 2*floor(rn/2)
    the (even) number of stalling generations, s = q + |w| the forced prefix
    length, m = n - s the remaining free generations.
    """

    kind: str          # 'shift' | 'dilation'
    x: float
    r: float
    n: int
    w: int
    q: int
    s: int
    m: int

    @staticmethod
    def make(kind: str, x: float, r: float, n: int) -> "StrategySpec":
        if kind not in ("shift", "dilation"):
            raise ValueError(f"unknown strategy kind {kind!r}")
        if kind == "shift" and r != 0.0:
            raise ValueError("shift strategies have r = 0")
        if not 0.0 <= r < 1.0:
            raise ValueError(f"r must lie in [0, 1), got {r}")
        if n < 1:
            raise ValueError("n must be positive")
        w = math.floor(abs(x) * math.sqrt(n)) * _sgn(x)
        q = 2 * math.floor(r * n / 2.0)
        s = q + abs(w)
        m = n - s
        if s >= n:
            raise InfeasibleError(
                f"forced prefix s={s} must be shorter than n={n}")
        return StrategySpec(kind, float(x), float(r), int(n), w, q, s, m)


def wilson_interval(successes: int, trials: int,
                    z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval; at zero successes the upper end is z^2/(n+z^2)."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials
                         + z2 / (4.0 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def strategy_prefix_logprob(spec: StrategySpec, law: BranchingLaw) -> float:
    """Exact log-probability of the fully forced prefix.

    Every particle in generations 0..s-1 has exactly b children and each
    child takes the prescribed step, so log P = (b^s - 1)/(b - 1) *
    log(p_b 2^-b) with the particle count as an exact integer.  Values beyond
    float range come back as -inf; the composed estimate works in log space
    and does not lose them.
    """
    if spec.s == 0:
        return 0.0
    b = law.b
    per_particle = math.log(law.p_b) - b * math.log(2.0)
    count = (b ** spec.s - 1) // (b - 1)
    if count.bit_length() > 1020:
        return -math.inf
    return float(count) * per_particle


@dataclass(frozen=True)
class SuccessEstimate:
    """Monte Carlo estimate of the single-root success probability."""

    successes: int
    replicas: int
    q_hat: float
    ci_lo: float
    ci_hi: float
    zero_success: bool
    decided_early: int          # replicas retired by the certificate
    misdecision_bound: float    # union bound on any retired replica deciding wrong


class WorkerPool:
    """``workers`` processes in all, the caller included, shared by every
    estimate given this pool.

    Holds at most one process per core.  The ``workers - 1`` children start
    at the first map with more than one job, and `close`, or the end of a
    ``with`` block, shuts them down and reaps them.
    """

    def __init__(self, workers: int):
        self.workers = min(workers, os.cpu_count() or 1)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._expected: list[_EventTask] = []
        self._counted: dict[_EventTask, tuple[int, int, float]] = {}

    def map(self, fn, jobs: list) -> list:
        """``[fn(job) for job in jobs]``, spread over the caller and the children.

        The children take jobs from the front.  The caller runs the last job,
        then takes the jobs no child has started, from the back.  An
        exception from any job propagates, with the unstarted jobs dropped.
        """
        if self.workers <= 1 or len(jobs) <= 1:
            return [fn(job) for job in jobs]
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers - 1)
        futures = [self._pool.submit(fn, job) for job in jobs[:-1]]
        try:
            tail = [fn(jobs[-1])]
            # the executor starts jobs in order, so once one cannot be
            # cancelled, every job before it has started too
            while futures and futures[-1].cancel():
                futures.pop()
                tail.append(fn(jobs[len(futures)]))
            return [future.result() for future in futures] + tail[::-1]
        except BaseException:
            for future in futures:
                future.cancel()
            raise

    def expect(self, tasks: Sequence[_EventTask]) -> None:
        """Announce event counts that estimates given this pool will ask for.

        The first count asked for runs the blocks of every announced task in
        one map, in the order given; the others are then handed out as asked.
        """
        self._expected += tasks

    def count(self, task: _EventTask) -> tuple[int, int, float]:
        """(events, rows retired early, union bound on their misdecisions)."""
        if task not in self._counted:
            batch = self._expected if task in self._expected else self._expected + [task]
            self._expected = []
            blocks = [each.jobs() for each in batch]
            parts = iter(self.map(_count_events, [job for jobs in blocks for job in jobs]))
            for each, jobs in zip(batch, blocks):
                mine = [next(parts) for _ in jobs]
                retired = [b for _, bounds in mine for b in bounds]
                # fsum is exactly rounded, so the sum does not depend on the
                # worker split
                self._counted[each] = (sum(count for count, _ in mine),
                                       len(retired), math.fsum(retired))
        return self._counted.pop(task)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


Workers = Union[int, WorkerPool]


@dataclass(frozen=True)
class _EventTask:
    """One estimate's event count: ``replicas`` runs of ``steps`` generations
    from ``start`` particles at 0, each testing its final fraction in
    ``target`` against ``threshold`` (strictly or not), with block b drawing
    from ``derive(*seed, b)``."""

    law: BranchingLaw
    steps: int
    start: int
    target: IntervalSet
    threshold: float
    strict: bool
    seed: tuple[int, ...]
    replicas: int

    def jobs(self) -> list[tuple]:
        """One `_count_events` job per replica block."""
        rows = block_rows(ParticleMeasure.delta(0, count=self.start), self.steps)
        head = (self.law, self.steps, self.start, self.target, self.threshold,
                self.strict, self.seed)
        return [head + (first, min(first + rows, self.replicas))
                for first in range(0, self.replicas, rows)]


def _count_events(args) -> tuple[int, list[float]]:
    """(events, bounds of the rows retired early) over replicas [lo, hi).

    Both ends must be block boundaries (multiples of `block_rows`) or, for
    ``hi``, the estimate's replica count.
    """
    (law, steps, start, target, threshold, strict, seed, lo, hi) = args
    zeta0 = ParticleMeasure.delta(0, count=start)
    rows = block_rows(zeta0, steps)
    count = 0
    bounds: list[float] = []
    for first in range(lo, hi, rows):
        out = event_outcomes(zeta0, law, steps, target, threshold, strict,
                             min(rows, hi - first), derive(*seed, first // rows))
        count += int(np.count_nonzero(out.hits))
        bounds += out.bounds[out.decided_at < steps].tolist()
    return count, bounds


def _event_count(task: _EventTask, workers: Workers) -> tuple[int, int, float]:
    if isinstance(workers, WorkerPool):
        return workers.count(task)
    with WorkerPool(workers) as pool:
        return pool.count(task)


def _path(seed: Seed) -> tuple[int, ...]:
    return seed if isinstance(seed, tuple) else (seed,)


def _success_task(spec: StrategySpec, a: IntervalSet, p: float,
                  law: BranchingLaw, replicas: int, seed: Seed) -> _EventTask:
    """The event count of `conditional_success_estimate`, its arguments checked."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if replicas < 100:
        raise ValueError("need at least 100 replicas")
    target = a.scale(math.sqrt(spec.n)).shift(float(-spec.w))
    return _EventTask(law, spec.m, 1, target, p, False, _path(seed), replicas)


def _concentration_task(population: int, a: IntervalSet, delta: float, n: int,
                        law: BranchingLaw, replicas: int,
                        seed: Seed) -> _EventTask:
    """The event count of `concentration_probe`, its arguments checked."""
    if population < 1 or replicas < 1:
        raise ValueError("population and replicas must be positive")
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if n < 1:
        raise ValueError("n must be positive")
    return _EventTask(law, n, population, a, nu_n_of_set(n, a) + delta, True,
                      _path(seed), replicas)


def _typical_task(a: IntervalSet, t: float, n: int, law: BranchingLaw,
                  replicas: int, seed: Seed) -> _EventTask:
    """The event count of `typical_deviation_probe`, its arguments checked."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    if n < 1:
        raise ValueError("n must be positive")
    if replicas < 1:
        raise ValueError("replicas must be positive")
    return _EventTask(law, n, 1, a.scale(math.sqrt(n)), nu(a) + t / math.sqrt(n),
                      True, _path(seed), replicas)


def conditional_success_estimate(spec: StrategySpec, a: IntervalSet, p: float,
                                 law: BranchingLaw, replicas: int,
                                 seed: Seed = 0, workers: Workers = 1) -> SuccessEstimate:
    """Estimate of the single-root success q = P(fraction in sqrt(n)A - w >= p).

    Simulates the remaining m generations from one particle in the shifted
    frame and tests the final fraction against the displaced, sqrt(n)-scaled
    target.  Zero-success runs are reported with the one-sided interval and
    flagged; the composition then falls back to the interval's upper end.
    """
    successes, early, bound = _event_count(
        _success_task(spec, a, p, law, replicas, seed), workers)
    lo, hi = wilson_interval(successes, replicas)
    return SuccessEstimate(successes, replicas, successes / replicas, lo, hi,
                           successes == 0, early, bound)


def composed_log_neg_log(spec: StrategySpec, law: BranchingLaw, q: float) -> float:
    """log of -log P_hat for the factorized strategy at single-root success q.

    -log P_hat = (b^s - 1)/(b - 1) * -log(p_b 2^-b) + b^s * -log(q); the big
    integers enter through their logarithms, so the value survives arbitrarily
    long prefixes.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must lie in (0, 1], got {q}")
    b = law.b
    terms = []
    if spec.s > 0:
        count = (b ** spec.s - 1) // (b - 1)
        log_l0 = math.log(-(math.log(law.p_b) - b * math.log(2.0)))
        terms.append(math.log(count) + log_l0)
    if q < 1.0:
        terms.append(spec.s * math.log(b) + math.log(-math.log(q)))
    if not terms:
        return -math.inf
    out = terms[0]
    for t in terms[1:]:
        out = float(np.logaddexp(out, t))
    return out


@dataclass(frozen=True)
class LdpEstimate:
    """Composed lower-bound estimate of the tail probability, in log-log form.

    ``neg_log_p`` approximates -log P from below (the strategy is one way to
    realize the event), so ``log_neg_log`` approaches the theory value
    rate * scale(n) from above as n grows.
    """

    spec: StrategySpec
    replicas: int
    log_prefix_prob: float
    q_hat: float
    ci_lo: float
    ci_hi: float
    zero_success: bool
    neg_log_p: float
    log_neg_log: float
    theory_rate: float
    theory_scale: str
    relative_gap: float


def ldp_lower_bound(spec: StrategySpec, a: IntervalSet, p: float,
                    law: BranchingLaw, replicas: int, seed: Seed = 0,
                    workers: Workers = 1,
                    report: Optional[RateReport] = None) -> LdpEstimate:
    """Price the full strategy and compare against the classified rate.

    -log P_hat = (prefix particle count) * -log(p_b 2^-b) + b^s * -log(q_hat);
    both terms use exact integers and are reduced in log space.
    """
    value = varphi(a, spec.r, spec.x)
    if value < p - 1e-9:
        raise InfeasibleError(
            f"strategy (x={spec.x}, r={spec.r}) infeasible for p={p}: "
            f"varphi={value:.9f} falls short by {p - value:.3g}")
    est = conditional_success_estimate(spec, a, p, law, replicas, seed=seed,
                                       workers=workers)
    q_effective = est.q_hat if est.successes > 0 else est.ci_hi
    log_neg_log = composed_log_neg_log(spec, law, q_effective)
    theory = report if report is not None else classify(a, p, law.b)
    denom = theory.rate * theory.scale_factor(spec.n)
    gap = abs(log_neg_log / denom - 1.0) if 0.0 < denom < math.inf else math.inf
    neg_log_p = math.exp(log_neg_log) if log_neg_log < 709.0 else math.inf
    return LdpEstimate(spec, replicas, strategy_prefix_logprob(spec, law),
                       est.q_hat, est.ci_lo, est.ci_hi, est.zero_success,
                       neg_log_p, log_neg_log, theory.rate, theory.scale, gap)


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    residuals: tuple[float, ...]
    scale: str


def rate_fit(points: Sequence, scale: str) -> RateFit:
    """Least-squares slope of log(-log P) against sqrt(n) or n.

    Accepts (n, log_neg_log) pairs or LdpEstimate objects.
    """
    if scale not in ("sqrt_n", "n"):
        raise ValueError(f"unknown scale {scale!r}")
    rows = []
    for item in points:
        if isinstance(item, LdpEstimate):
            rows.append((item.spec.n, item.log_neg_log))
        else:
            n, y = item
            rows.append((int(n), float(y)))
    if len(rows) < 3:
        raise ValueError("need at least 3 grid points")
    ns = [n for n, _ in rows]
    if len(set(ns)) < 3:
        raise ValueError("degenerate grid")
    ts = np.array([math.sqrt(n) if scale == "sqrt_n" else float(n) for n, _ in rows])
    ys = np.array([y for _, y in rows])
    slope, intercept = np.polyfit(ts, ys, 1)
    resid = ys - (slope * ts + intercept)
    return RateFit(float(slope), float(intercept),
                   tuple(float(r) for r in resid), scale)


# -- probes -------------------------------------------------------------------

@dataclass(frozen=True)
class ConcentrationResult:
    """Frequency of an upward fraction deviation from N particles at the origin."""

    population: int
    delta: float
    n: int
    replicas: int
    frequency: float
    reference: float     # exact walk-law mass of the target set
    decided_early: int         # as in SuccessEstimate
    misdecision_bound: float


def concentration_probe(population: int, a: IntervalSet, delta: float, n: int,
                        law: BranchingLaw, replicas: int, seed: Seed = 0,
                        workers: Workers = 1) -> ConcentrationResult:
    """Estimate P(fraction in A > nu_n(A) + delta) from N particles at 0.

    The set is used unscaled; the reference is the exact lattice mass, which
    is the per-root mean for this start.  Frequencies decay in N (the probe
    checks the population-concentration behavior empirically; the decay
    constants themselves stay unfitted).
    """
    hits, early, bound = _event_count(
        _concentration_task(population, a, delta, n, law, replicas, seed), workers)
    return ConcentrationResult(population, delta, n, replicas, hits / replicas,
                               nu_n_of_set(n, a), early, bound)


@dataclass(frozen=True)
class ProbeResult:
    n: int
    threshold: float
    replicas: int
    probability: float
    decided_early: int         # as in SuccessEstimate
    misdecision_bound: float


def typical_deviation_probe(a: IntervalSet, t: float, n: int, law: BranchingLaw,
                            replicas: int, seed: Seed = 0,
                            workers: Workers = 1) -> ProbeResult:
    """Estimate P(fraction in sqrt(n)A > nu(A) + t/sqrt(n)) from one root."""
    task = _typical_task(a, t, n, law, replicas, seed)
    hits, early, bound = _event_count(task, workers)
    return ProbeResult(n, task.threshold, replicas, hits / replicas, early, bound)
