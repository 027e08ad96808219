"""brwlab benchmark: the real CLI, driven in-process, on four workloads.

Usage, from the root of a brwlab checkout:

    python3 perfbench/run.py --workload shift-ldp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off:

On a shared virtual machine the host's other tenants slow the benchmark by
up to 1.5 times, for seconds or minutes at a time, and a fixed reference load
(``calibrate``) slows with it.  So every timed sample is bracketed by two runs
of that load, in as many processes at once as the sample keeps busy (two for
the ``--threads 2`` passes, one otherwise), and reported at the reference
speed: sample x REFERENCE_CALIB_S / (mean of the two load times).  A change
to brwlab moves the sample and not the load; a busy host moves both.  The raw
samples go to the run record beside them, and the table prints their median.

- ``wall_s``: median over passes of the wall time of one pass (the
  workload's CLI invocations) at the reference speed, after one untimed
  warm-up pass.  Passes repeat while a typical pass still ends within
  ``--seconds``, at least three of them.  Too few passes fit for a high
  percentile with ten passes beyond it, so none is reported.
- ``replicas_per_s``: work items of one pass over ``wall_s``.  An item is
  one simulated replica (one ``evolve`` run) on the simulation workloads.
  ``analytic`` simulates nothing; there an item is one rate case or one
  clt-scan grid point, so that every workload reports the metric.
- ``setup_s``: median over five fresh interpreters importing ``brwlab.cli``
  (numpy and scipy included), at the reference speed.
- ``peak_rss_mb``: peak resident memory of this process plus that of its
  largest pool worker, in 10^6 bytes.

``--trace 1`` gives the per-layer metrics (see layers.py and README.md) from
a fixed sequence, whatever ``--seconds`` says: one untimed warm-up pass, one
pass at ``--threads 2`` that times only the estimates, one untraced pass at
``--threads 1`` and one traced pass at ``--threads 1``.

Every invocation's output is checked (workloads.py); the last line of
standard output is the JSON result, the lines before it a readable table.
Records and spans go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from scipy.special import ndtr

from layers import UNITS as LAYER_UNITS, estimate_targets, layer_metrics, targets
from tracer import Tracer
from workloads import WORKLOADS, data_rows, with_threads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
MIN_PASSES = 3
SETUP_REPEATS = 5
# Time of the reference load run in 1 and in 2 processes at once, on the
# baseline machine (perfbench/README.md) at its usual speed.
REFERENCE_CALIB_S = {1: 0.35, 2: 0.38}

END_TO_END_UNITS = {"wall_s": "s", "replicas_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


# -- measuring -------------------------------------------------------------------

class _Pair:
    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        self.lo, self.hi = lo, hi


def calibrate() -> float:
    """Seconds for a fixed reference load (machine speed): pure-Python
    arithmetic, small Python objects kept in a dict, and numpy and scipy
    work on arrays from 32 KB to 512 KB, as brwlab mixes them."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i & 7
    table: dict[int, _Pair] = {}
    total = 0.0
    for i in range(80_000):
        pair = _Pair(i * 0.5, i * 0.5 + 1.0)
        table[i & 1023] = pair
        total += table.get((i * 7) & 1023, pair).hi - pair.lo
    a = np.linspace(0.0, 1.0, 4096)
    for _ in range(4000):
        a = np.sqrt(a * a + 1.0) * 0.5
    b = np.linspace(-3.0, 3.0, 65536)
    for _ in range(100):
        b = ndtr(b) * 6.0 - 3.0
        b.sort()
    return time.perf_counter() - t0


class Reference:
    """The reference load run in ``processes`` processes at once, timed until all end.

    A pass at ``--threads 2`` waits for the slower of two pool workers, so
    its speed is compared with the slower of two copies of the load.  The
    copies run in worker processes that wait on a pipe between calls.
    """

    def __init__(self, processes: int):
        self.workers: list[tuple[multiprocessing.Process, object]] = []
        if processes > 1:
            ctx = multiprocessing.get_context("fork")
            for _ in range(processes):
                ours, theirs = ctx.Pipe()
                proc = ctx.Process(target=_reference_worker, args=(theirs,),
                                   daemon=True)
                proc.start()
                self.workers.append((proc, ours))

    def __call__(self) -> float:
        if not self.workers:
            return calibrate()
        t0 = time.perf_counter()
        for _, conn in self.workers:
            conn.send(True)
        for _, conn in self.workers:
            conn.recv()
        return time.perf_counter() - t0

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        for proc, conn in self.workers:
            try:
                conn.send(False)
            except OSError:
                proc.terminate()
        for proc, _ in self.workers:
            proc.join()


def _reference_worker(conn) -> None:
    while conn.recv():
        conn.send(calibrate())


def at_reference_speed(times: list[float], calibs: list[float],
                       processes: int) -> list[float]:
    """Each time scaled by the reference load's time around it (``calibs`` brackets ``times``)."""
    return [t * REFERENCE_CALIB_S[processes] / ((before + after) / 2)
            for t, before, after in zip(times, calibs, calibs[1:])]


def measure_setup() -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters importing brwlab.cli from the checkout,
    and the reference load times around them.

    No timeout: with one, subprocess polls the child every 50 ms and the
    times come out in 50 ms steps.
    """
    times, calibs = [], [calibrate()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import brwlab.cli"], cwd=SRC,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        calibs.append(calibrate())
    return times, calibs


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) * 1024 / 1e6


def run_pass(cli, invocations, threads: int) -> tuple[float, list[tuple[int, str]]]:
    """Wall time and (exit code, stdout) of each invocation, through brwlab.cli.main."""
    results = []
    t0 = time.perf_counter()
    for inv in invocations:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(with_threads(inv.argv, threads))
        except Exception:  # a crash is a failed invocation, not a crashed run
            traceback.print_exc()
            code = -1
        results.append((code, buf.getvalue()))
    return time.perf_counter() - t0, results


class Checker:
    """Counts attempted and failed invocations; keeps the first problems seen."""

    def __init__(self, invocations):
        self.invocations = invocations
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest = ""

    def add(self, results) -> None:
        sha = hashlib.sha256()
        for inv, (code, out) in zip(self.invocations, results):
            self.attempted += 1
            found = [f"exit code {code}"] if code != 0 else inv.check(out)
            if found:
                self.failed += 1
                if len(self.problems) < 10:
                    self.problems.append(f"{' '.join(inv.argv)}: {'; '.join(found)}")
            sha.update("\n".join(data_rows(out)).encode() + b"\n")
        self.digest = sha.hexdigest()[:16]


# -- the two modes -----------------------------------------------------------------

def end_to_end(cli, invocations, checker: Checker, seconds: float):
    """(metrics, extra record fields) with tracing off, at --threads 2."""
    items = sum(inv.items for inv in invocations)
    processes = 2 if any("--threads" in inv.argv for inv in invocations) else 1
    checker.add(run_pass(cli, invocations, 2)[1])   # warm-up, untimed
    with Reference(processes) as reference:
        walls, calibs = [], [reference()]
        deadline = time.perf_counter() + seconds
        # Start a pass only if a typical pass still ends before the deadline.
        while (len(walls) < MIN_PASSES
               or time.perf_counter() + statistics.median(walls) <= deadline):
            wall, results = run_pass(cli, invocations, 2)
            calibs.append(reference())
            walls.append(wall)
            checker.add(results)
        rss = peak_rss_mb()   # before the reference workers end and count
    setup, setup_calibs = measure_setup()
    wall_samples = at_reference_speed(walls, calibs, processes)
    setup_samples = at_reference_speed(setup, setup_calibs, 1)
    wall = statistics.median(wall_samples)
    metrics = {"wall_s": (wall, len(walls)),
               "replicas_per_s": (items / wall, len(walls)),
               "setup_s": (statistics.median(setup_samples), len(setup)),
               "peak_rss_mb": (rss, 1)}
    extra = {"pass_walls_s": walls, "pass_walls_at_reference_s": wall_samples,
             "setup_samples_s": setup, "setup_at_reference_s": setup_samples,
             "raw_wall_s": statistics.median(walls),
             "raw_setup_s": statistics.median(setup),
             "reference_processes": processes, "pass_calib_samples_s": calibs,
             "calib_samples_s": setup_calibs, "items_per_pass": items}
    return metrics, extra


def per_layer(cli, invocations, checker: Checker, spans_path: Path):
    """(metrics, extra record fields) from one traced pass at --threads 1."""
    checker.add(run_pass(cli, invocations, 2)[1])   # warm-up, untimed
    with Tracer().install(estimate_targets()) as light:
        _, results = run_pass(cli, invocations, 2)
    checker.add(results)
    estimate_t2 = light.summary().get("ldp.estimate", {}).get("s", 0.0)

    untraced_wall, results = run_pass(cli, invocations, 1)
    checker.add(results)
    with Tracer().install(targets()) as full:
        traced_wall, results = run_pass(cli, invocations, 1)
    checker.add(results)
    full.save(spans_path)
    metrics = layer_metrics(full, estimate_t2)
    extra = {"untraced_wall_t1_s": untraced_wall, "traced_wall_t1_s": traced_wall,
             "tracing_overhead_s": traced_wall - untraced_wall,
             "estimate_wall_t2_s": estimate_t2, "spans": len(full.start),
             "span_summary": full.summary()}
    return metrics, extra


# -- reporting ---------------------------------------------------------------------

def report(workload: str, seed: int, trace: int, metrics: dict, extra: dict,
           checker: Checker, calib: list[float]) -> dict:
    """Print the table, write the run record, and return the JSON result."""
    units = LAYER_UNITS if trace else END_TO_END_UNITS
    failed_frac = checker.failed / checker.attempted
    print(f"brwlab benchmark  workload={workload}  seed={seed}  trace={trace}  "
          f"nproc={os.cpu_count()}  python={platform.python_version()}  "
          f"numpy={np.__version__}")
    print(f"{'metric':32s} {'value':>14s}  {'unit':6s} samples")
    for name, (value, samples) in metrics.items():
        print(f"{name:32s} {value:14.6g}  {units[name]:6s} {samples}")
    print(f"{'failed_frac':32s} {failed_frac:14.6g}  {'1':6s} "
          f"{checker.attempted} invocations")
    print(f"{'machine.calib_s':32s} {statistics.median(calib):14.6g}  {'s':6s} "
          f"{len(calib)} (min {min(calib):.4f}, max {max(calib):.4f})")
    if not trace:
        print(f"{'raw.wall_s':32s} {extra['raw_wall_s']:14.6g}  {'s':6s} "
              f"{len(extra['pass_walls_s'])} (not at reference speed)")
        print(f"{'raw.setup_s':32s} {extra['raw_setup_s']:14.6g}  {'s':6s} "
              f"{len(extra['setup_samples_s'])} (not at reference speed)")
    else:
        print(f"{'trace.untraced_wall_t1_s':32s} "
              f"{extra['untraced_wall_t1_s']:14.6g}  {'s':6s} 1")
        print(f"{'trace.overhead_s':32s} {extra['tracing_overhead_s']:14.6g}  "
              f"{'s':6s} 1 ({extra['spans']} spans)")
    print(f"{'csv.digest':32s} {checker.digest:>14s}  (information only)")
    for problem in checker.problems:
        print(f"FAILED {problem}")

    result = {"correct": checker.failed == 0, "attempted": checker.attempted,
              "failed": checker.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, (value, _) in metrics.items()}}
    record = {"workload": workload, "seed": seed, "trace": trace,
              "nproc": os.cpu_count(), "python": platform.python_version(),
              "numpy": np.__version__, "machine.calib_s": calib,
              "failed_frac": failed_frac, "csv_digest": checker.digest,
              "problems": checker.problems,
              "samples": {name: samples for name, (_, samples) in metrics.items()},
              **extra, "result": result}
    path = OUT_DIR / f"run-{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1, default=float) + "\n")
    return result


def run_one(name: str, seed: int, seconds: float, trace: int) -> int:
    if not (SRC / "brwlab" / "cli.py").is_file():
        print(f"perfbench: no brwlab sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import brwlab.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "brwlab":
        print(f"perfbench: imported brwlab from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    invocations = WORKLOADS[name](seed)
    checker = Checker(invocations)
    OUT_DIR.mkdir(exist_ok=True)
    if trace:
        calib = [calibrate()]
        metrics, extra = per_layer(cli, invocations, checker,
                                   OUT_DIR / f"spans-{name}.npz")
        calib.append(calibrate())
    else:
        metrics, extra = end_to_end(cli, invocations, checker, seconds)
        calib = extra["calib_samples_s"]
    result = report(name, seed, trace, metrics, extra, checker, calib)
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run_one(args.workload, args.seed, args.seconds, args.trace)
    status = 0
    for name in WORKLOADS:   # one process each, so peak memory is per workload
        status |= subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
