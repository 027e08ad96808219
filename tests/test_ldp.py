import contextlib
import itertools
import math
import os
import select
import signal
import time
from fractions import Fraction

import numpy as np
import pytest

from brwlab import engine, ldp
from brwlab.cli import main
from brwlab.engine import BranchingLaw, ParticleMeasure
from brwlab.errors import InfeasibleError
from brwlab.gaussian import nu_n_of_set
from brwlab.intervals import REALS, IntervalSet
from brwlab.rates import classify
from brwlab.streams import derive

LAW = BranchingLaw.binary_ternary()
HALF_LINE = IntervalSet.below(0)
Z80 = 0.8416212335729143


# -- StrategySpec -----------------------------------------------------------------

def test_spec_shift_roundings():
    spec = ldp.StrategySpec.make("shift", -Z80, 0.0, 900)
    assert spec.w == -25 and spec.q == 0 and spec.s == 25 and spec.m == 875


def test_spec_dilation_roundings():
    spec = ldp.StrategySpec.make("dilation", 0.3, 0.8318, 240)
    assert spec.q == 2 * math.floor(0.8318 * 240 / 2)
    assert spec.w == math.floor(0.3 * math.sqrt(240))
    assert spec.s == spec.q + abs(spec.w)
    assert spec.m == 240 - spec.s
    assert spec.q % 2 == 0


def test_spec_sign_convention_at_zero():
    spec = ldp.StrategySpec.make("dilation", 0.0, 0.5, 100)
    assert spec.w == 0
    # sgn(0) = +1: a sub-sqrt(n) positive x still floors to w = 0
    spec = ldp.StrategySpec.make("shift", 0.05, 0.0, 100)
    assert spec.w == 0


def test_spec_validation():
    with pytest.raises(ValueError):
        ldp.StrategySpec.make("shift", 1.0, 0.5, 100)
    with pytest.raises(ValueError):
        ldp.StrategySpec.make("walk", 1.0, 0.0, 100)
    with pytest.raises(InfeasibleError):
        ldp.StrategySpec.make("shift", 20.0, 0.0, 9)  # s >= n


def test_spec_target_measure():
    # the forced prefix (q stalling generations, then |w| steps towards w,
    # every particle with exactly b children) ends with b^s particles at w
    spec = ldp.StrategySpec.make("dilation", -0.5, 0.3, 100)
    b = 2
    steps = [1, -1] * (spec.q // 2) + [int(math.copysign(1, spec.w))] * abs(spec.w)
    assert len(steps) == spec.s
    counts = {0: 1}
    for step in steps:
        counts = {x + step: b * c for x, c in counts.items()}
    zeta = ParticleMeasure(counts, generation=len(steps))
    assert zeta.counts == {spec.w: b ** spec.s}
    assert zeta.generation == spec.s
    assert abs(spec.w) <= spec.s


# -- Wilson -----------------------------------------------------------------------

def test_wilson_basic():
    lo, hi = ldp.wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert hi - lo < 0.25


def test_wilson_zero_successes():
    lo, hi = ldp.wilson_interval(0, 1000)
    assert lo == 0.0
    assert 0.0 < hi < 0.005  # ~ z^2 / (n + z^2)


def test_wilson_validates():
    with pytest.raises(ValueError):
        ldp.wilson_interval(5, 0)
    with pytest.raises(ValueError):
        ldp.wilson_interval(7, 5)


# -- prefix pricing ----------------------------------------------------------------

def brute_forced_probability(law: BranchingLaw, s: int) -> Fraction:
    """Enumerate one particle's (offspring, steps) outcomes; multiply over the tree.

    The forced pattern asks every particle in generations 0..s-1 for exactly b
    children all stepping the same fixed direction.
    """
    per = Fraction(0)
    for k, pk in zip(law.support, law.probs):
        for steps in itertools.product((-1, 1), repeat=k):
            if k == law.b and all(step == -1 for step in steps):
                per += Fraction(pk) * Fraction(1, 2 ** k)
    particles = sum(law.b ** g for g in range(s))
    return per ** particles


@pytest.mark.parametrize("s", [0, 1, 2])
def test_prefix_logprob_matches_enumeration(s):
    spec = ldp.StrategySpec.make("shift", s / 10.0, 0.0, 100)
    assert spec.s == s
    got = ldp.strategy_prefix_logprob(spec, LAW)
    exact = brute_forced_probability(LAW, s)
    if s == 0:
        assert got == 0.0 and exact == 1
    else:
        want = math.log(exact.numerator) - math.log(exact.denominator)
        assert abs(got - want) < 1e-12


def test_prefix_logprob_closed_forms():
    spec3 = ldp.StrategySpec.make("shift", 0.3, 0.0, 100)  # w = 3
    assert spec3.s == 3
    assert abs(ldp.strategy_prefix_logprob(spec3, LAW) - 7 * math.log(0.125)) < 1e-12
    spec1 = ldp.StrategySpec.make("shift", 0.1, 0.0, 100)  # w = 1
    got = ldp.strategy_prefix_logprob(spec1, BranchingLaw.binary())
    assert abs(got - (-2 * math.log(2))) < 1e-15


def test_prefix_logprob_huge_prefix_is_neg_inf():
    spec = ldp.StrategySpec.make("dilation", 0.0, 0.9, 10_000)
    assert ldp.strategy_prefix_logprob(spec, LAW) == -math.inf
    # the log-space composition still carries it
    assert math.isfinite(ldp.composed_log_neg_log(spec, LAW, 0.5))


# -- conditional success -------------------------------------------------------------

def test_conditional_full_line_always_succeeds():
    # every replica retires early, and as a success
    spec = ldp.StrategySpec.make("shift", 0.5, 0.0, 64)
    est = ldp.conditional_success_estimate(spec, REALS, 0.7, LAW, 200, seed=1)
    assert est.q_hat == 1.0 and est.successes == 200
    assert est.decided_early == 200


def test_conditional_rejects_bad_inputs():
    spec = ldp.StrategySpec.make("shift", 0.5, 0.0, 64)
    with pytest.raises(ValueError):
        ldp.conditional_success_estimate(spec, REALS, 1.5, LAW, 200)
    with pytest.raises(ValueError):
        ldp.conditional_success_estimate(spec, REALS, 0.5, LAW, 50)


def test_conditional_slack_witness_band():
    # frozen pilot: with 0.1 shift slack at n=400 the single-root success is
    # essentially certain (pilot q_hat = 1.0, ci_lo > 0.99)
    spec = ldp.StrategySpec.make("shift", -(Z80 + 0.1), 0.0, 400)
    est = ldp.conditional_success_estimate(spec, HALF_LINE, 0.8, LAW, 300, seed=5)
    assert est.q_hat > 0.5


def test_conditional_zero_success_flag():
    # an unreachable target: positive fraction required far to the right
    spec = ldp.StrategySpec.make("shift", 0.0, 0.0, 16)
    far = IntervalSet.above(100.0)
    est = ldp.conditional_success_estimate(spec, far, 0.9, LAW, 150, seed=2)
    assert est.zero_success and est.q_hat == 0.0
    assert est.ci_hi > 0.0
    assert math.isfinite(ldp.composed_log_neg_log(spec, LAW, est.ci_hi))


def test_conditional_worker_determinism():
    spec = ldp.StrategySpec.make("shift", -Z80, 0.0, 100)
    kwargs = dict(seed=77)
    seq = ldp.conditional_success_estimate(spec, HALF_LINE, 0.8, LAW, 200,
                                           workers=1, **kwargs)
    par = ldp.conditional_success_estimate(spec, HALF_LINE, 0.8, LAW, 200,
                                           workers=2, **kwargs)
    assert seq.successes == par.successes


def test_estimators_worker_invariant_across_blocks(monkeypatch):
    # one, two and three workers cut the blocks into different runs: four
    # blocks of a shift point and of the probe, the last one short
    monkeypatch.setattr(ldp, "_usable_cores", lambda: 3)
    spec = ldp.StrategySpec.make("shift", -Z80, 0.0, 64)
    replicas = 3 * engine.block_rows(ParticleMeasure.delta(0), spec.m) + 44
    task = ldp._success_task(spec, HALF_LINE, 0.8, LAW, replicas, (78, 1))
    assert [len(ldp._jobs([task], workers)) for workers in (1, 2, 3)] == [1, 2, 3]
    runs = [ldp.conditional_success_estimate(spec, HALF_LINE, 0.8, LAW, replicas,
                                             seed=(78, 1), workers=workers)
            for workers in (1, 2, 3)]
    assert runs[0] == runs[1] == runs[2]
    assert 0 < runs[0].successes < replicas
    replicas = 3 * engine.block_rows(ParticleMeasure.delta(0, count=30), 8) + 8
    task = ldp._concentration_task(30, HALF_LINE, 0.02, 8, LAW, replicas, (79, 1))
    assert [len(ldp._jobs([task], workers)) for workers in (1, 2, 3)] == [1, 2, 3]
    probes = [ldp.concentration_probe(30, HALF_LINE, 0.02, 8, LAW, replicas,
                                      seed=(79, 1), workers=workers)
              for workers in (1, 2, 3)]
    assert probes[0] == probes[1] == probes[2]
    assert 0.0 < probes[0].frequency < 1.0


def _assert_no_child_left():
    # multiprocessing.active_children cannot see children of os.fork
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def _deadline(seconds):
    # SIGALRM turns a hang into a failure; forked children do not inherit
    # the alarm
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_worker_count_clamped_to_cores(monkeypatch, tmp_path):
    # at most one process per usable core, the caller included, so a map
    # forks one child fewer
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(ldp.os, "fork", counting_fork)
    monkeypatch.setattr(ldp.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    # four blocks, the last one short: enough for three workers
    replicas = 3 * engine.block_rows(ParticleMeasure.delta(0, count=20), 4) + 8
    args = (20, HALF_LINE, 0.02, 4, LAW, replicas)
    wide = ldp.concentration_probe(*args, seed=5, workers=10 ** 6)
    assert len(forks) == 2
    assert wide == ldp.concentration_probe(*args, seed=5, workers=1)
    assert len(forks) == 2
    _assert_no_child_left()
    # two estimates of one CLI run share one map, reaped before main returns
    monkeypatch.setattr(ldp.os, "sched_getaffinity", lambda pid: {0, 1})
    forks.clear()
    code = main(["probe-concentration", "--pop-grid", "20,30", "--n", "4",
                 "--replicas", str(replicas), "--threads", "2", "--seed", "5",
                 "--out", str(tmp_path / "out.csv")])
    assert code == 0
    assert len(forks) == 1
    _assert_no_child_left()


def test_worker_count_follows_the_affinity_mask(monkeypatch):
    # taskset or a cgroup cpuset limits the cores this process may use,
    # whatever the host has
    monkeypatch.setattr(ldp.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(ldp.os, "sched_getaffinity", lambda pid: {3})
    assert ldp.WorkerPool(8).workers == 1
    monkeypatch.setattr(ldp.os, "sched_getaffinity", lambda pid: {0, 5, 7})
    assert ldp.WorkerPool(8).workers == 3
    monkeypatch.delattr(ldp.os, "sched_getaffinity")
    assert ldp.WorkerPool(8).workers == 8
    monkeypatch.setattr(ldp.os, "cpu_count", lambda: None)
    assert ldp.WorkerPool(8).workers == 1   # an unknown core count runs in-process


def _job_and_pid(job):
    time.sleep(0.01)
    return job, os.getpid()


def _fail_at_three(job):
    if job == 3:
        raise ValueError("job 3 failed")
    return job


def test_worker_pool_map_runs_jobs_in_the_caller_too():
    pool = ldp.WorkerPool(3)
    out = pool.map(_job_and_pid, list(range(8)))
    assert [job for job, _ in out] == list(range(8))
    pids = {pid for _, pid in out}
    assert os.getpid() in pids
    assert len(pids - {os.getpid()}) <= pool.workers - 1
    _assert_no_child_left()


@pytest.mark.parametrize("jobs", [6, 4])
def test_worker_pool_map_propagates_a_job_error(jobs):
    # job 3 runs in the caller or in the child; either way map raises it
    with pytest.raises(ValueError, match="job 3 failed"):
        ldp.WorkerPool(2).map(_fail_at_three, list(range(jobs)))
    _assert_no_child_left()


# Jobs of the failure-path tests carry the caller's pid, so a job knows
# whether a child runs it.  A caller's job sleeps longer, so the children
# take jobs too.

def _jobs_with_caller(count):
    return [(index, os.getpid()) for index in range(count)]


def _killed_in_a_child(job):
    index, caller = job
    time.sleep(0.05 if os.getpid() == caller else 0.01)
    if os.getpid() != caller:
        os.kill(os.getpid(), signal.SIGKILL)
    return index


def _fails_in_a_child(job):
    index, caller = job
    time.sleep(0.05 if os.getpid() == caller else 0.01)
    if os.getpid() != caller:
        raise ValueError(f"job {index} failed in a child")
    return index


def _interrupted_in_the_caller(job):
    index, caller = job
    if os.getpid() != caller:
        time.sleep(60)   # still busy when the caller stops
    time.sleep(0.05)
    raise KeyboardInterrupt


def test_worker_pool_map_raises_for_a_killed_child(monkeypatch):
    monkeypatch.setattr(ldp, "_usable_cores", lambda: 2)
    with _deadline(30), pytest.raises(RuntimeError, match=r"signal 9 \(SIGKILL\)"):
        ldp.WorkerPool(2).map(_killed_in_a_child, _jobs_with_caller(8))
    _assert_no_child_left()


def test_worker_pool_map_raises_a_child_error_with_its_traceback(monkeypatch):
    monkeypatch.setattr(ldp, "_usable_cores", lambda: 2)
    with _deadline(30), pytest.raises(ValueError, match="failed in a child") as info:
        ldp.WorkerPool(2).map(_fails_in_a_child, _jobs_with_caller(8))
    cause = info.value.__cause__
    assert isinstance(cause, ldp._ChildTraceback)
    assert "Traceback (most recent call last)" in str(cause)
    assert "in _fails_in_a_child" in str(cause)
    _assert_no_child_left()


def test_worker_pool_map_interrupted_in_the_caller_leaves_no_child(monkeypatch):
    monkeypatch.setattr(ldp, "_usable_cores", lambda: 2)
    started = time.perf_counter()
    with _deadline(30), pytest.raises(KeyboardInterrupt):
        ldp.WorkerPool(2).map(_interrupted_in_the_caller, _jobs_with_caller(4))
    # the child, asleep in its job, was killed rather than waited for
    assert time.perf_counter() - started < 20
    _assert_no_child_left()


def test_worker_pool_map_outlasts_a_full_ticket_pipe(monkeypatch):
    # 20,000 tickets of four bytes would overfill a 64 KiB pipe before the
    # fork, so a ticket must stand for a run of jobs
    monkeypatch.setattr(ldp, "_usable_cores", lambda: 2)
    jobs = list(range(20_000))
    with _deadline(60):
        assert ldp.WorkerPool(2).map(abs, jobs) == jobs
    _assert_no_child_left()


def _job_and_pid_at_once(job):
    return job, os.getpid()


@pytest.mark.parametrize("extra", [0, 1])
def test_worker_pool_map_at_the_ticket_run_edge(monkeypatch, extra):
    # PIPE_BUF / 4 jobs take one ticket each; one more makes every ticket a
    # run of two consecutive jobs, which one process runs
    monkeypatch.setattr(ldp, "_usable_cores", lambda: 2)
    count = select.PIPE_BUF // 4 + extra
    with _deadline(60):
        out = ldp.WorkerPool(2).map(_job_and_pid_at_once, list(range(count)))
    assert [job for job, _ in out] == list(range(count))
    pids = [pid for _, pid in out]
    if extra:
        assert all(pids[i] == pids[i + 1] for i in range(0, count - 1, 2))
    tickets = ldp._Tickets(count)
    try:
        assert tickets.run == 1 + extra
        assert list(tickets) == list(range(count))
    finally:
        tickets.close()
    _assert_no_child_left()


def test_worker_pool_without_fork_runs_every_job_in_the_caller(monkeypatch):
    monkeypatch.setattr(ldp, "_usable_cores", lambda: 2)
    monkeypatch.delattr(ldp.os, "fork")
    out = ldp.WorkerPool(2).map(_job_and_pid, list(range(4)))
    assert out == [(job, os.getpid()) for job in range(4)]


def test_estimators_worker_invariant_on_short_last_block():
    # two full blocks leave a 2-row last block
    replicas = 2 * engine.block_rows(ParticleMeasure.delta(0, count=30), 8) + 2
    probes = [ldp.concentration_probe(30, HALF_LINE, 0.02, 8, LAW, replicas,
                                      seed=(80, 1), workers=workers)
              for workers in (1, 2)]
    assert probes[0] == probes[1]
    assert 0.0 < probes[0].frequency < 1.0
    # and at the shift point n = 100, under early decision
    spec = ldp.StrategySpec.make("shift", -Z80, 0.0, 100)
    replicas = 2 * engine.block_rows(ParticleMeasure.delta(0), spec.m) + 2
    runs = [ldp.conditional_success_estimate(spec, HALF_LINE, 0.8, LAW, replicas,
                                             seed=(81, 1), workers=workers)
            for workers in (1, 2)]
    assert runs[0] == runs[1]
    assert runs[0].decided_early > 0


def test_estimators_serial_with_fewer_blocks_than_workers(monkeypatch):
    # one 64-row block for two workers: runs in-process, as at one worker
    def no_fork():
        raise AssertionError("a child was forked")

    monkeypatch.setattr(ldp.os, "fork", no_fork)
    monkeypatch.setattr(ldp, "_usable_cores", lambda: 2)
    probes = [ldp.concentration_probe(30, HALF_LINE, 0.02, 8, LAW, 64,
                                      seed=(82, 1), workers=workers)
              for workers in (1, 2)]
    assert probes[0] == probes[1]


def test_count_events_jobs_sum_to_the_one_task_estimate(monkeypatch):
    # two blocks of R rows and one of 22, one job per run: the jobs' events
    # and retired rows, summed in job order, make the estimate, and every
    # cut gives the same ones
    monkeypatch.setattr(ldp, "_usable_cores", lambda: 3)
    spec = ldp.StrategySpec.make("shift", -Z80, 0.0, 64)
    size = engine.block_rows(ParticleMeasure.delta(0), spec.m)
    replicas = 2 * size + 22
    task = ldp._success_task(spec, HALF_LINE, 0.8, LAW, replicas, (83, 0))
    cuts = {1: [[(0, size), (1, size), (2, 22)]],
            2: [[(0, size)], [(1, size), (2, 22)]],
            3: [[(0, size)], [(1, size)], [(2, 22)]]}
    outcomes = []
    for workers, runs in cuts.items():
        jobs = ldp._jobs([task], workers)
        assert all(each is task for job in jobs for each, _, _ in job)
        assert [[(b, rows) for _, b, rows in job] for job in jobs] == runs
        parts = [part for job in jobs for part in ldp._count_events(job)]
        bounds = [b for _, retired in parts for b in retired]
        est = ldp.conditional_success_estimate(spec, HALF_LINE, 0.8, LAW, replicas,
                                               seed=(83, 0), workers=workers)
        assert est.successes == sum(count for count, _ in parts)
        assert est.decided_early == len(bounds)
        assert est.misdecision_bound == math.fsum(bounds)
        outcomes.append((est.successes, bounds))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert 0 < est.successes < replicas
    assert bounds


def test_count_events_of_a_shared_run_are_each_block_alone():
    # three populations of one event in one run: each block counts the
    # events and retired rows it counts as a run of its own
    tasks = [ldp._concentration_task(pop, HALF_LINE, 0.02, 8, LAW, 300, (85, i))
             for i, pop in enumerate((30, 400, 60))]
    job = tuple((task, b, rows) for task in tasks for b, rows in enumerate(task.blocks()))
    assert len(job) == 6
    assert ldp._count_events(job) == [part for block in job
                                      for part in ldp._count_events((block,))]


def test_concentration_populations_share_runs_and_equal_one_task_pools(monkeypatch):
    # a probe's populations are one event, so one pool cuts their blocks
    # together: at one worker into one run of all nine blocks, else into a
    # run per process.  Every estimate, its retired rows and their bound
    # included, is the one it gets from a pool of its own at any worker count
    monkeypatch.setattr(ldp, "_usable_cores", lambda: 3)
    maps = []
    original = ldp.WorkerPool.map

    def counting_map(self, fn, jobs):
        maps.append([len(job) for job in jobs])
        return original(self, fn, jobs)

    monkeypatch.setattr(ldp.WorkerPool, "map", counting_map)
    replicas = 2 * engine.block_rows(ParticleMeasure.delta(0), 8) + 8
    points = [(pop, HALF_LINE, 0.02, 8, LAW, replicas, (86, i))
              for i, pop in enumerate((30, 120, 480))]
    alone = [ldp.concentration_probe(*point, workers=1) for point in points]
    assert maps == [[3]] * 3
    assert alone[0].frequency > alone[1].frequency > 0.0
    assert alone[2].decided_early > 0 and alone[2].misdecision_bound > 0.0
    for workers in (1, 2, 3):
        maps.clear()
        pool = ldp.WorkerPool(workers)
        pool.expect([ldp._concentration_task(*point) for point in points])
        shared = [ldp.concentration_probe(*point, workers=pool) for point in points]
        assert maps == [{1: [9], 2: [4, 5], 3: [3, 3, 3]}[workers]]
        assert shared == alone
        assert [ldp.concentration_probe(*point, workers=workers)
                for point in points] == alone
    _assert_no_child_left()


def _assert_cut_into_runs(steps, tasks, processes):
    # the tasks' blocks, in task order and then block order, each once, in
    # runs of consecutive blocks: at most ceil(blocks / processes) of them
    # and within a block's budget of 2^16 sites at the final width, unless
    # one block alone exceeds it; no more runs than these two bounds and
    # one run per process ask for
    tasks = [ldp._EventTask(LAW, steps, start, HALF_LINE, 0.5, True, (0, i), replicas)
             for i, (start, replicas) in enumerate(tasks)]
    zeta0 = ParticleMeasure.delta(0)
    size = engine.block_rows(zeta0, steps)
    blocks = [(task, b, min(size, task.replicas - first)) for task in tasks
              for b, first in enumerate(range(0, task.replicas, size))]
    final_width = engine._layout(zeta0, steps)[3]
    jobs = ldp._jobs(tasks, processes)
    assert [block for job in jobs for block in job] == blocks
    for job in jobs:
        assert len(job) <= -(-len(blocks) // processes)
        assert sum(rows for _, _, rows in job) * final_width <= engine._BLOCK_SITES \
            or len(job) == 1
    budget = max(1, engine._BLOCK_SITES // (size * final_width))
    assert len(jobs) == max(min(processes, len(blocks)), -(-len(blocks) // budget))
    if steps == 10 ** 6:   # a one-row block over the budget is a run of its own
        assert all(len(job) == 1 for job in jobs)


@pytest.mark.parametrize("start,steps,replicas", [
    (1, 16, 500), (1, 16, 64 * 300), (100, 16, 130), (1, 127, 1000),
    (1, 128, 1000), (1, 511, 1000), (1, 512, 1000), (1, 10 ** 6, 3),
])
@pytest.mark.parametrize("processes", [1, 2, 3])
def test_event_task_jobs_cut_blocks_into_runs(start, steps, replicas, processes):
    # a group of one task: one estimate's blocks alone
    _assert_cut_into_runs(steps, [(start, replicas)], processes)


@pytest.mark.parametrize("steps,tasks", [
    (16, [(1, 500), (100, 130), (1600, 3)]), (16, [(7, 64 * 300), (9, 20)]),
    (128, [(1, 1000), (2, 300)]), (10 ** 6, [(1, 3), (2, 2)]),
], ids=["populations", "wide-and-short", "one-block-runs", "over-budget"])
@pytest.mark.parametrize("processes", [1, 2, 3])
def test_jobs_cut_the_blocks_of_several_tasks_into_runs(steps, tasks, processes):
    # tasks of one event: their blocks are cut together, and a run may hold
    # the end of one task's blocks and the start of the next one's
    _assert_cut_into_runs(steps, tasks, processes)


def test_estimators_worker_invariant_beyond_one_ticket_per_block(monkeypatch):
    # 520 estimates of two full blocks in one map, each of its own event (a
    # delta of its own), so no two share a run: at two workers each block is
    # a run of its own, and the 1,040 jobs exceed the PIPE_BUF / 4 tickets
    # of one pipe write (1,024 on Linux), so tickets stand for runs of jobs
    monkeypatch.setattr(ldp, "_usable_cores", lambda: 2)
    maps = []
    original = ldp.WorkerPool.map

    def counting_map(self, fn, jobs):
        maps.append(len(jobs))
        return original(self, fn, jobs)

    monkeypatch.setattr(ldp.WorkerPool, "map", counting_map)
    pops = range(1, 521)
    replicas = 2 * engine.block_rows(ParticleMeasure.delta(0, count=520), 1)
    points = [(pop, HALF_LINE, 0.01 + pop * 1e-9, 1, LAW, replicas, (84, pop))
              for pop in pops]
    assert 2 * len(pops) > select.PIPE_BUF // 4
    frequencies = []
    for workers in (1, 2):
        pool = ldp.WorkerPool(workers)
        pool.expect([ldp._concentration_task(*point) for point in points])
        with _deadline(60):
            frequencies.append([ldp.concentration_probe(*point, workers=pool).frequency
                                for point in points])
    assert maps == [len(pops), 2 * len(pops)]
    assert frequencies[0] == frequencies[1]
    assert 0.0 < min(frequencies[0]) and max(frequencies[0]) < 1.0
    _assert_no_child_left()


# -- certified early decision ------------------------------------------------------

def _surviving_fractions(start, law, n, target, rows, rng, decided_at):
    """Final fractions of the rows of an `event_outcomes` block that never
    retired, replaying the block's retirements on the same stream."""
    block = engine._VectorState([start], n, [rows], [rng])
    alive = np.arange(rows)
    for k in range(n):
        keep = decided_at[alive] != k
        if not keep.all():
            alive = alive[keep]
            if not alive.size:
                return alive, np.zeros(0)
            block.keep_rows(keep)
        block.step(law)
    return alive, block.fraction_in(*target.site_ranges())


DILATION_SET = IntervalSet.closed(-0.6744897501960817, 0.6744897501960817)
CONCENTRATION_LAW = BranchingLaw.parse("2:0.995,200:0.005")


def _ldp_point(kind, x, r, a, n):
    """(free generations, displaced target) of one `ldp` grid point."""
    spec = ldp.StrategySpec.make(kind, x, r, n)
    return spec.m, a.scale(math.sqrt(n)).shift(float(-spec.w))


def _concentration_point(population, idx, survivors):
    """A `probe-concentration` grid point at the CLI defaults but for its
    population."""
    threshold = nu_n_of_set(16, HALF_LINE) + 0.05
    return CONCENTRATION_LAW, population, 16, HALF_LINE, threshold, True, idx, survivors


def _shadow_run(start, law, n, target, p, strict, rows, rng):
    """A block stepped to the end without retiring, `_Certificate.settle`
    asked before every generation: each row's first certified (outcome,
    bound), by row, and every row's outcome from its own final fraction."""
    block = engine._VectorState([start], n, [rows], [rng])
    certificate = engine._Certificate(law, target, p)
    first = {}
    for k in range(n):
        settled, outcomes, bounds = certificate.settle(block, n - k)
        for row, outcome, bound in zip(settled.tolist(), outcomes.tolist(),
                                       bounds.tolist()):
            first.setdefault(row, (outcome, bound))
        block.step(law)
    fracs = block.fraction_in(*target.site_ranges())
    return first, (fracs > p if strict else fracs >= p).tolist()


@pytest.mark.parametrize("law,population,steps,target,p,strict,idx,survivors", [
    (LAW, 1, *_ldp_point("shift", -Z80, 0.0, HALF_LINE, 100), 0.8, False, 0, False),
    (LAW, 1, *_ldp_point("shift", -Z80, 0.0, HALF_LINE, 400), 0.8, False, 1, False),
    (LAW, 1, *_ldp_point("dilation", 0.0, 0.8318502626419066, DILATION_SET, 240),
     0.9, False, 2, False),
    _concentration_point(100, 0, True),
    _concentration_point(200, 1, True),
    _concentration_point(1600, 2, False),
    (CONCENTRATION_LAW, 1, *_ldp_point("shift", -Z80, 0.0, HALF_LINE, 100), 0.8,
     False, 0, False),
], ids=["0-100", "1-400", "dilation-2-240", "concentration-0-100",
        "concentration-1-200", "concentration-2-1600", "heavy-law-0-100"])
def test_early_decisions_match_full_runs(law, population, steps, target, p,
                                         strict, idx, survivors):
    # grid points of the three simulation workloads, on the block streams the
    # CLI derives for them at seed 11, and the shift point under the heavy
    # law 2:0.995,200:0.005; the concentration point of index 1 starts from
    # 200 particles, as in --pop-grid 100,200,1600, since in 256-row blocks
    # every row of the default 400 retires.  Shadow runs: every row runs to
    # the end, so each row's first certified outcome is checked against its
    # own final fraction.  Then `event_outcomes` on the same stream: its
    # retired rows carry bounds in (0, 1e-12], and rows that never retire
    # (only at the concentration points of 100 and 200 particles) end as
    # their replayed final fractions say.
    start = ParticleMeasure.delta(0, count=population)
    rows = engine.block_rows(start, steps)
    certified = never = 0
    for block, first_row in enumerate(range(0, 200, rows)):
        size = min(rows, 200 - first_row)
        first, full = _shadow_run(start, law, steps, target, p, strict, size,
                                  derive(11, idx, block))
        for row, (outcome, bound) in first.items():
            assert outcome == full[row], (block, row)
            assert 0.0 < bound <= 1e-12
        certified += len(first)
        never += size - len(first)
        out = engine.event_outcomes([start], law, steps, target, p, strict,
                                    [size], [derive(11, idx, block)])
        retired = out.decided_at < steps
        assert ((out.bounds[retired] > 0.0) & (out.bounds[retired] <= 1e-12)).all()
        assert (out.bounds[~retired] == 0.0).all()
        alive, fracs = _surviving_fractions(start, law, steps, target, size,
                                            derive(11, idx, block), out.decided_at)
        assert alive.tolist() == np.flatnonzero(~retired).tolist()
        assert out.hits[alive].tolist() == (fracs > p if strict else fracs >= p).tolist()
    assert certified > 0
    assert (never > 0) == survivors


def test_early_decisions_worker_invariant():
    spec = ldp.StrategySpec.make("shift", -Z80, 0.0, 100)
    runs = [ldp.conditional_success_estimate(spec, HALF_LINE, 0.8, LAW, 200,
                                             seed=(17, 0), workers=workers)
            for workers in (1, 2)]
    assert runs[0] == runs[1]
    assert 0 < runs[0].decided_early <= 200
    assert 0.0 < runs[0].misdecision_bound <= 200 * 1e-12


# -- composed estimates ----------------------------------------------------------------

def test_lower_bound_full_line_reduces_to_prefix():
    spec = ldp.StrategySpec.make("shift", 0.5, 0.0, 64)
    est = ldp.ldp_lower_bound(spec, REALS, 0.7, LAW, 200, seed=3)
    assert est.q_hat == 1.0
    assert est.log_neg_log == pytest.approx(
        math.log(-est.log_prefix_prob), abs=1e-12)


def test_lower_bound_dominates_prefix():
    spec = ldp.StrategySpec.make("shift", -Z80, 0.0, 144)
    est = ldp.ldp_lower_bound(spec, HALF_LINE, 0.8, LAW, 200, seed=4)
    assert est.log_neg_log >= math.log(-est.log_prefix_prob) - 1e-12


def test_lower_bound_stable_under_more_replicas():
    # more replicas may move the composed -log P only within the smaller run's
    # confidence band
    spec = ldp.StrategySpec.make("shift", -Z80, 0.0, 100)
    small = ldp.ldp_lower_bound(spec, HALF_LINE, 0.8, LAW, 300, seed=40)
    big = ldp.ldp_lower_bound(spec, HALF_LINE, 0.8, LAW, 1200, seed=41)
    hi = ldp.composed_log_neg_log(spec, LAW, max(small.ci_lo, 1e-12))
    lo = ldp.composed_log_neg_log(spec, LAW, min(small.ci_hi, 1.0 - 1e-12))
    assert lo - 1e-9 <= big.log_neg_log <= hi + 1e-9


def test_lower_bound_infeasible_names_deficit():
    spec = ldp.StrategySpec.make("shift", 0.2, 0.0, 100)
    with pytest.raises(InfeasibleError, match="falls short"):
        ldp.ldp_lower_bound(spec, HALF_LINE, 0.9, LAW, 200)


def test_composed_log_neg_log_validates():
    spec = ldp.StrategySpec.make("shift", 0.5, 0.0, 64)
    with pytest.raises(ValueError):
        ldp.composed_log_neg_log(spec, LAW, 0.0)
    assert ldp.composed_log_neg_log(
        ldp.StrategySpec.make("shift", 0.05, 0.0, 100), LAW, 1.0) == -math.inf


# -- rate_fit ------------------------------------------------------------------------

def test_rate_fit_exact_sqrt_line():
    points = [(n, 2.0 * math.sqrt(n)) for n in (100, 400, 900)]
    fit = ldp.rate_fit(points, "sqrt_n")
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert max(abs(r) for r in fit.residuals) < 1e-10


def test_rate_fit_exact_linear():
    points = [(n, 0.7 * n + 3.0) for n in (60, 120, 240)]
    fit = ldp.rate_fit(points, "n")
    assert fit.slope == pytest.approx(0.7, abs=1e-12)
    assert fit.intercept == pytest.approx(3.0, abs=1e-9)


def test_rate_fit_degenerate_grid():
    with pytest.raises(ValueError):
        ldp.rate_fit([(100, 1.0), (100, 2.0), (100, 3.0)], "sqrt_n")
    with pytest.raises(ValueError):
        ldp.rate_fit([(100, 1.0), (200, 2.0)], "n")
    with pytest.raises(ValueError):
        ldp.rate_fit([(100, 1.0), (200, 2.0), (300, 3.0)], "log_n")


# -- probes ---------------------------------------------------------------------------

def test_concentration_delta_above_one_impossible():
    # the threshold p = nu_n + 1 exceeds 1, so every row fails.  At n = 2 no
    # row retires: 50 particles lie below the gate K (23!! / 1e-12)^(1/12),
    # about 97, and their at most 150 children, at -1 or 1, have mu_1 >= 1/2,
    # so b = p^2 K / (N (p - mu_1)^2) >= 0.0139 with p = 1.75, and the bound
    # is at least 23!! b^12 > 1.7e-11.  At n = 8 every row retires, as a
    # failure: before the last generation it holds N >= 50 2^7 particles and
    # |mu_k - p| >= nu_8 > 0.63, so b = p^2 K / (N (mu_k - p)^2) < 1.2e-3
    # and the bound is below 1e-13
    res = ldp.concentration_probe(50, HALF_LINE, 1.0, 2, LAW, 100, seed=6)
    assert res.frequency == 0.0 and res.decided_early == 0
    res = ldp.concentration_probe(50, HALF_LINE, 1.0, 8, LAW, 100, seed=6)
    assert res.frequency == 0.0 and res.decided_early == 100
    assert 0.0 < res.misdecision_bound <= 100 * 1e-12


def test_concentration_probe_validates():
    # the probe asks for an upward deviation, so delta must be positive
    for delta in (0.0, -1.0):
        with pytest.raises(ValueError):
            ldp.concentration_probe(50, HALF_LINE, delta, 8, LAW, 100)
    for population, replicas in ((0, 100), (50, 0)):
        with pytest.raises(ValueError):
            ldp.concentration_probe(population, HALF_LINE, 0.05, 8, LAW, replicas)
    with pytest.raises(ValueError):
        ldp.concentration_probe(50, HALF_LINE, 0.05, 0, LAW, 100)


def test_concentration_reference_is_exact_lattice_mass():
    res = ldp.concentration_probe(10, HALF_LINE, 0.5, 2, LAW, 100, seed=6)
    assert res.reference == 0.75


def test_concentration_smoke_decreasing():
    law = BranchingLaw.parse("2:0.995,200:0.005")
    f_small = ldp.concentration_probe(50, HALF_LINE, 0.05, 16, law, 1500, seed=8)
    f_large = ldp.concentration_probe(400, HALF_LINE, 0.05, 16, law, 1500, seed=9)
    assert f_small.frequency > f_large.frequency


def test_typical_probe_full_line_is_zero():
    # the threshold p = 1 + 0.5 / sqrt(n) exceeds 1 and mu_k = 1, so
    # b = 4 p^2 K n / N, and a row retires once b is about 2e-3 or less.  At
    # n = 8 that needs N > 3^7, more than a row holds before the last
    # generation, so no row retires; at n = 40 every row holds N >= 2^19 by
    # generation 19 and retires, as a failure
    for n, early in ((8, 0), (40, 100)):
        res = ldp.typical_deviation_probe(REALS, 0.5, n, LAW, 100, seed=10)
        assert res.probability == 0.0 and res.decided_early == early


def test_typical_probe_small_t_near_half_odd_n():
    # frozen pilot at n=65 (odd n has no lattice atom at the boundary): 0.495
    res = ldp.typical_deviation_probe(HALF_LINE, 1e-9, 65, LAW, 1500, seed=11)
    assert 0.40 < res.probability < 0.60


def test_typical_probe_positive_floor():
    # frozen pilot at t=1: probabilities ~0.047, flat across n
    for n, seed in ((64, 21), (256, 22), (1024, 23)):
        res = ldp.typical_deviation_probe(HALF_LINE, 1.0, n, LAW, 300, seed=seed)
        assert res.probability > 0.015, (n, res.probability)


def test_typical_probe_validates():
    with pytest.raises(ValueError):
        ldp.typical_deviation_probe(HALF_LINE, 0.0, 16, LAW, 100)
    with pytest.raises(ValueError):
        ldp.typical_deviation_probe(HALF_LINE, 1.0, 0, LAW, 100)
    for replicas in (0, -3):
        with pytest.raises(ValueError):
            ldp.typical_deviation_probe(HALF_LINE, 1.0, 16, LAW, replicas)
