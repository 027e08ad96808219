"""Draw calls, kernel steps, settles and runs per benchmark pass in two
brwlab trees.

Usage, from the root of a brwlab checkout (the change), with the parent
commit checked out in a separate directory:

    python3 tools/draw_calls.py --parent ../parent --change . --seeds 1,2,3 \
        --out BENCH_block_rows.json

For each simulation workload of ``perfbench``, each seed and each of
``--threads`` 1 and 2, a fresh interpreter per tree runs one pass of the
workload with ``BranchingLaw.totals``, ``engine._VectorState.step``,
``engine._Certificate.settle`` and ``ldp.WorkerPool.map`` wrapped, and
counts the totals calls, the parent counts they draw for (the sites), the
steps, the settles and the runs (jobs) of each map.  The wrapped map runs
every job in the calling process, with the runs cut for that many
processes whatever the machine's core count, so every count is made where
it can be seen.  Every generation of a replica block makes one totals call
over its small sites, so the calls show how the blocks share numpy's fixed
cost per call; every generation of a run of blocks makes one step and one
settle, so those show how the runs share the kernel's fixed cost per
generation.  It also wraps ``engine.event_outcomes`` (as ``ldp`` calls it)
and records, over the rows the certificate retired early (those with a
positive bound), the median and the 90th percentile (numpy's linear
interpolation) of the generation each retired at (``decided_at``), and
their count; a certificate that passes sooner shows there first.  The
counts repeat exactly for a given tree and seed.  The record goes under the
key ``draw_calls`` of ``--out``; other keys of an existing file are kept,
and an empty file counts as none.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
WORKLOADS = ("shift-ldp", "dilation-ldp", "concentration")
THREADS = (1, 2)

# run in the tree
COUNT = """
import contextlib, io, json, sys
import numpy as np
sys.path[:0] = ["perfbench", "src"]
from brwlab import cli, engine, ldp
from workloads import WORKLOADS, with_threads
threads = int(sys.argv[3])
counts = {"calls": 0, "sites": 0, "steps": 0, "settles": 0, "runs": []}
totals, step = engine.BranchingLaw.totals, engine._VectorState.step
settle, outcomes = engine._Certificate.settle, ldp.event_outcomes
retired_at = []
def recording(*args):
    out = outcomes(*args)
    retired_at.extend(out.decided_at[out.bounds > 0.0].tolist())
    return out
def counting(self, parents, rng):
    counts["calls"] += 1
    counts["sites"] += int(parents.size)
    return totals(self, parents, rng)
def counting_step(self, law):
    counts["steps"] += 1
    step(self, law)
def counting_settle(self, *args):
    counts["settles"] += 1
    return settle(self, *args)
def serial_map(self, fn, jobs):
    counts["runs"].append(len(jobs))
    return [fn(job) for job in jobs]
engine.BranchingLaw.totals = counting
engine._VectorState.step = counting_step
engine._Certificate.settle = counting_settle
ldp.event_outcomes = recording
ldp.WorkerPool.map = serial_map
ldp._usable_cores = lambda: threads
for inv in WORKLOADS[sys.argv[1]](int(sys.argv[2])):
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(with_threads(inv.argv, threads)) != 0:
            sys.exit(f"nonzero exit from {inv.argv}")
counts["retired"] = len(retired_at)
counts["retired_median"] = float(np.median(retired_at)) if retired_at else None
counts["retired_p90"] = float(np.percentile(retired_at, 90)) if retired_at else None
print(json.dumps(counts))
"""

KEYS = ("calls", "sites", "steps", "settles", "runs", "retired", "retired_median",
        "retired_p90")


def count_pass(tree: Path, workload: str, seed: int, threads: int) -> dict:
    """The counts of `KEYS` of one pass of ``workload`` in ``tree``, its runs
    cut for ``threads`` processes."""
    proc = subprocess.run([sys.executable, "-c", COUNT, workload, str(seed), str(threads)],
                          cwd=tree, check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seeds", default="1,2,3",
                        help="comma-separated workload seeds")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seeds = [int(s) for s in args.seeds.split(",") if s]
    record = {w: {side: {str(t): [count_pass(trees[side], w, seed, t) for seed in seeds]
                         for t in THREADS}
                  for side in SIDES}
              for w in WORKLOADS}
    for w, sides in record.items():
        for side, by_threads in sides.items():
            for t, counts in by_threads.items():
                print(f"{w:14s} {side:7s} threads {t}" + "".join(
                    f"  {key} " + " ".join(str(c[key]).replace(" ", "") for c in counts)
                    for key in KEYS))
    text = args.out.read_text() if args.out.exists() else ""
    out = json.loads(text) if text.strip() else {}
    out["draw_calls"] = {"threads": list(THREADS), "seeds": seeds, "workloads": record}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
