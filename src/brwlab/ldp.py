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

Replicas run in blocks of `engine.block_rows` rows, at most 256 (up to
n = 255 from one particle), a number fixed by the start and the generation
count alone: block b holds replicas [b R, (b + 1) R) (the last block may be
shorter) and draws from the one stream ``derive(*seed, b)``.  Every
``seed`` argument below takes either an int or an index path as a tuple;
the CLI passes (seed, grid index), so no two grid points or seeds share a
stream.  The estimates of one event (law, steps, target, threshold and
strictness) that a pool runs in one map, which differ only in start count,
seed and replicas, have their blocks cut together, in estimate order, into
runs of consecutive blocks, one per process, or more where a run would grow
too wide (`_jobs`); so a run holds blocks of one event, possibly of several
estimates.  Each run steps as one array through `engine.event_outcomes`,
the one simulation kernel, every block still drawing from its own stream;
so an estimate is the same for any worker count and any cut.  The kernel
retires a replica as soon as a 24th-moment bound of at most 1e-12
certifies whether its final fraction clears the threshold, so in the shift
regime replicas stop after 13 to 23 generations in the median, from n = 100
to n = 10^6, and in the 16-generation concentration probe starts of 100 to
1,600 particles stop after 6 to 9.
The estimates report how many replicas were retired early (``decided_early``)
and the sum of their bounds (``misdecision_bound``), a union bound on the
chance that any of them decided otherwise than a full run would; the sum is
exactly rounded, so it does not depend on the worker count.  Neither field
enters the CSV data rows.

The ``workers`` argument is a count or a `WorkerPool`, and counts the
calling process: ``workers=N`` runs blocks in the caller and up to N - 1
children, which `WorkerPool.map` forks and reaps anew at each map.  Before
the first fork the caller writes every ticket into one pipe, a ticket being
one job, a run of blocks (or consecutive jobs above PIPE_BUF / 4 jobs), and
every process takes tickets in order until the pipe is empty; the children
inherit the jobs' arguments, so only their results are pickled.  Where
``os.fork`` is missing, every job runs in the caller.  A pool told the
event counts of several estimates ahead (`WorkerPool.expect`) runs all
their runs of blocks in one map at the first of them, so the CLI runs each
command's blocks in one map, and the populations of a concentration probe,
all of one event, share their runs.
"""

from __future__ import annotations

import math
import os
import pickle
import select
import signal
import struct
import traceback
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .engine import (BranchingLaw, ParticleMeasure, _bound_terms, block_rows,
                     event_outcomes, run_blocks)
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
    """Monte Carlo estimate of the single-root success probability.

    ``decided_early`` counts the replicas that `engine.event_outcomes`
    retired on its 24th-moment certificate, and ``misdecision_bound`` is
    the sum of their bounds, each rounded up into (0, 1e-12]: a union bound
    on the chance that any of them decided otherwise than a full run would.
    """

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

    Holds at most one process per core that this process may run on.  The
    pool keeps no process between maps: each map forks its children and
    reaps them before it returns or raises, so there is nothing to close.
    """

    def __init__(self, workers: int):
        self.workers = min(workers, _usable_cores())
        self._expected: list[_EventTask] = []
        self._counted: dict[_EventTask, tuple[int, int, float]] = {}

    def map(self, fn, jobs: list) -> list:
        """``[fn(job) for job in jobs]``, spread over the caller and forked children.

        Up to ``workers - 1`` children are forked, one fewer than the jobs.
        They inherit ``fn`` and ``jobs``, so neither is pickled.  Every
        process takes `_Tickets` in job order, each one job or a run of
        consecutive jobs, from one pipe filled before the first fork, and
        runs the jobs of each ticket it takes; a child pickles its results
        back through a pipe of its own when the tickets run out.  An
        exception from a job in the caller kills the children.  One from a
        job in a child is raised again in the caller, with the child's
        traceback as its cause.  A child that ends without sending its
        results raises RuntimeError naming its exit status.  Every child is
        reaped before map returns or raises.  Without ``os.fork`` every job
        runs in the caller.
        """
        processes = min(self.workers, len(jobs))
        if processes <= 1 or not hasattr(os, "fork"):
            return [fn(job) for job in jobs]
        tickets = _Tickets(len(jobs))
        children: dict[int, int] = {}   # pid -> read end of its result pipe
        try:
            for _ in range(processes - 1):
                read_fd, write_fd = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(read_fd)
                    os.close(write_fd)
                    raise
                if pid == 0:   # the child
                    code = 1
                    try:
                        os.close(read_fd)
                        for fd in children.values():
                            os.close(fd)
                        _serve(fn, jobs, tickets, write_fd)
                        code = 0
                    finally:
                        # never return into the caller's stack, run its exit
                        # handlers or flush the stdout buffers it inherited
                        os._exit(code)
                os.close(write_fd)
                children[pid] = read_fd
            out = {i: fn(jobs[i]) for i in tickets}
            for pid, read_fd in list(children.items()):
                with open(read_fd, "rb", closefd=False) as pipe:
                    payload = pipe.read()
                status = os.waitpid(pid, 0)[1]
                os.close(children.pop(pid))
                if status != 0 or not payload:
                    raise RuntimeError(f"worker process {pid} ended with "
                                       f"{_describe(status)} before sending "
                                       "its results")
                results, error = pickle.loads(payload)
                if error is not None:
                    exc, text = error
                    raise exc from _ChildTraceback(text)
                out.update(results)
            return [out[i] for i in range(len(jobs))]
        finally:
            tickets.close()
            for pid, read_fd in children.items():
                os.close(read_fd)
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                os.waitpid(pid, 0)

    def expect(self, tasks: Sequence[_EventTask]) -> None:
        """Announce event counts that estimates given this pool will ask for.

        The first count asked for runs the blocks of every announced task in
        one map: the tasks of each event, in the order given, have their
        blocks cut together into runs for this pool's processes (`_jobs`),
        the events in the order of their first task.  The other counts are
        then handed out as asked.
        """
        self._expected += tasks

    def count(self, task: _EventTask) -> tuple[int, int, float]:
        """(events, rows retired early, union bound on their misdecisions)."""
        if task not in self._counted:
            batch = self._expected if task in self._expected else self._expected + [task]
            self._expected = []
            events: dict[tuple, list[_EventTask]] = {}
            for each in dict.fromkeys(batch):   # a task given twice is counted once
                events.setdefault(each.event, []).append(each)
                _bound_terms(each.law)   # built here, so forked children inherit them
            jobs = [job for tasks in events.values() for job in _jobs(tasks, self.workers)]
            parts: dict[_EventTask, list] = {}
            for job, counts in zip(jobs, self.map(_count_events, jobs)):
                for (each, _, _), part in zip(job, counts):
                    parts.setdefault(each, []).append(part)
            for each, mine in parts.items():
                retired = [b for _, bounds in mine for b in bounds]
                # fsum is exactly rounded, so the sum does not depend on the
                # worker split
                self._counted[each] = (sum(count for count, _ in mine),
                                       len(retired), math.fsum(retired))
        return self._counted.pop(task)


def _usable_cores() -> int:
    """Cores this process may run on: its affinity mask where the system has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_TICKET = struct.Struct("I")


class _Tickets:
    """The job indices 0, ..., count - 1 in a pipe, taken in order by any process.

    The caller writes every ticket in one write of at most PIPE_BUF bytes,
    which the empty pipe takes at once, and closes the write end; every
    process then reads one ticket at a time until end of file.  Up to
    PIPE_BUF / 4 jobs (1,024 on Linux) a ticket is one job; above that,
    ticket t is the jobs [t c, (t + 1) c), c = ceil(count / (PIPE_BUF / 4)).
    An estimator's job is already a run of replica blocks, so its maps pass
    that count only with hundreds of distinct events in one map, or with
    blocks too wide to stack.
    """

    def __init__(self, count: int):
        self.count = count
        self.run = -(-count // (select.PIPE_BUF // _TICKET.size))
        tickets = -(-count // self.run)
        data = struct.pack(f"{tickets}I", *range(tickets))
        read_fd, write_fd = os.pipe()
        try:
            if os.write(write_fd, data) != len(data):
                raise RuntimeError("the ticket pipe took only part of the tickets")
        except BaseException:
            os.close(read_fd)
            raise
        finally:
            os.close(write_fd)
        self.read_fd = read_fd

    def __iter__(self):
        while ticket := os.read(self.read_fd, _TICKET.size):
            first = _TICKET.unpack(ticket)[0] * self.run
            yield from range(first, min(first + self.run, self.count))

    def close(self) -> None:
        os.close(self.read_fd)


class _ChildTraceback(Exception):
    """The formatted traceback of an exception raised in a worker child."""


def _serve(fn, jobs: list, tickets: _Tickets, write_fd: int) -> None:
    """A child's part of `WorkerPool.map`.

    Runs the jobs it takes, then writes ``(results, error)`` to
    ``write_fd``: the results as (index, result) pairs, the error as None or
    (exception, formatted traceback).
    """
    results, error = [], None
    try:
        for i in tickets:
            results.append((i, fn(jobs[i])))
    except BaseException as exc:   # sent to the caller, which raises it again
        error = (exc, traceback.format_exc())
    try:
        payload = pickle.dumps((results, error))
    except Exception:   # a result or an exception that does not pickle
        text = (error[1] if error else "") + traceback.format_exc()
        payload = pickle.dumps(([], (RuntimeError("a job's result or error "
                                                  "does not pickle"), text)))
    with open(write_fd, "wb") as pipe:
        pipe.write(payload)


def _describe(status: int) -> str:
    """A wait status in words."""
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        return f"signal {-code} ({signal.Signals(-code).name})"
    return f"exit status {code}"


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

    @property
    def event(self) -> tuple:
        """What the tasks whose blocks share a run agree on: all but the
        start count, the seed and the replicas."""
        return (self.law, self.steps, self.target, self.threshold, self.strict)

    def blocks(self) -> list[int]:
        """The rows of each replica block, in block order."""
        size = block_rows(ParticleMeasure.delta(0, count=self.start), self.steps)
        return [min(size, self.replicas - first)
                for first in range(0, self.replicas, size)]


def _jobs(tasks: Sequence[_EventTask], processes: int) -> list[tuple]:
    """`_count_events` jobs for tasks of one event, one per run of replica
    blocks: each a tuple of (task, block, rows) triples, one per block.

    The tasks' blocks, in task order and then block order, are cut into as
    few runs as keep each within `engine.run_blocks` blocks, which keeps
    its arrays small, and at least ``processes`` runs where there are that
    many blocks, so every process can take one.  Run sizes differ by at
    most one block, so no run holds more than ceil(blocks / processes).
    Every start is one site at 0, so the tasks' blocks share one layout and
    one `engine.run_blocks`; and every block draws from its own stream
    whatever run it is in, so the cut changes no draw.
    """
    blocks = [(task, b, rows) for task in tasks for b, rows in enumerate(task.blocks())]
    first = tasks[0]
    budget = run_blocks(ParticleMeasure.delta(0, count=first.start), first.steps)
    runs = max(min(processes, len(blocks)), -(-len(blocks) // budget))
    cuts = [len(blocks) * i // runs for i in range(runs + 1)]
    return [tuple(blocks[a:b]) for a, b in zip(cuts, cuts[1:])]


def _count_events(job: tuple) -> list[tuple[int, list[float]]]:
    """(events, bounds of the rows retired early) of each block of one run."""
    task = job[0][0]   # the run's event
    rows = [r for _, _, r in job]
    out = event_outcomes([ParticleMeasure.delta(0, count=each.start) for each, _, _ in job],
                         task.law, task.steps, task.target, task.threshold, task.strict,
                         rows, [derive(*each.seed, b) for each, b, _ in job])
    ends = np.cumsum(rows)
    retired = out.decided_at < task.steps
    return [(int(np.count_nonzero(out.hits[a:b])), out.bounds[a:b][retired[a:b]].tolist())
            for a, b in zip(ends - rows, ends)]


def _event_count(task: _EventTask, workers: Workers) -> tuple[int, int, float]:
    pool = workers if isinstance(workers, WorkerPool) else WorkerPool(workers)
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

    ``log_neg_log`` is log(-log P_hat), where P_hat bounds P from below (the
    strategy is one way to realize the event), so it approaches the theory
    value rate * scale(n) from above as n grows.
    """

    spec: StrategySpec
    replicas: int
    log_prefix_prob: float
    q_hat: float
    ci_lo: float
    ci_hi: float
    zero_success: bool
    log_neg_log: float
    theory_rate: float
    relative_gap: float
    decided_early: int          # as in SuccessEstimate
    misdecision_bound: float


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
    return LdpEstimate(spec, replicas, strategy_prefix_logprob(spec, law),
                       est.q_hat, est.ci_lo, est.ci_hi, est.zero_success,
                       log_neg_log, theory.rate, gap, est.decided_early,
                       est.misdecision_bound)


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
