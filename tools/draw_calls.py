"""Draw calls and kernel steps per benchmark pass in two brwlab trees.

Usage, from the root of a brwlab checkout (the change), with the parent
commit checked out in a separate directory:

    python3 tools/draw_calls.py --parent ../parent --change . --seeds 1,2,3 \
        --out BENCH_block_rows.json

For each simulation workload of ``perfbench`` and each seed, a fresh
interpreter per tree runs one pass of the workload at ``--threads 1`` with
``BranchingLaw.totals`` and ``engine._VectorState.step`` wrapped, and
counts the totals calls, the parent counts they draw for (the sites) and
the steps.  Every generation of a replica block makes one totals call over
its small sites, so the calls show how the blocks share numpy's fixed cost
per call; every generation of a run of blocks makes one step, so the steps
show how the runs share the kernel's fixed cost per step.  It also wraps
``engine.event_outcomes`` (as ``ldp`` calls it) and records, over the rows
the certificate retired early, the median and the 90th percentile (numpy's
linear interpolation) of the generation each retired at (``decided_at``),
and their count; a certificate that passes sooner shows there first.  The
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

# run in the tree
COUNT = """
import contextlib, io, json, sys
import numpy as np
sys.path[:0] = ["perfbench", "src"]
from brwlab import cli, engine, ldp
from workloads import WORKLOADS, with_threads
counts = {"calls": 0, "sites": 0, "steps": 0}
totals, step, outcomes = engine.BranchingLaw.totals, engine._VectorState.step, ldp.event_outcomes
retired_at = []
def recording(starts, law, n, *args):
    out = outcomes(starts, law, n, *args)
    retired_at.extend(out.decided_at[out.decided_at < n].tolist())
    return out
def counting(self, parents, rng):
    counts["calls"] += 1
    counts["sites"] += int(parents.size)
    return totals(self, parents, rng)
def counting_step(self, law):
    counts["steps"] += 1
    step(self, law)
engine.BranchingLaw.totals = counting
engine._VectorState.step = counting_step
ldp.event_outcomes = recording
for inv in WORKLOADS[sys.argv[1]](int(sys.argv[2])):
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(with_threads(inv.argv, 1)) != 0:
            sys.exit(f"nonzero exit from {inv.argv}")
counts["retired"] = len(retired_at)
counts["retired_median"] = float(np.median(retired_at)) if retired_at else None
counts["retired_p90"] = float(np.percentile(retired_at, 90)) if retired_at else None
print(json.dumps(counts))
"""

KEYS = ("calls", "sites", "steps", "retired", "retired_median", "retired_p90")


def count_pass(tree: Path, workload: str, seed: int) -> dict:
    """The counts of `KEYS` of one pass of ``workload`` in ``tree``."""
    proc = subprocess.run([sys.executable, "-c", COUNT, workload, str(seed)],
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
    record = {w: {side: [count_pass(trees[side], w, seed) for seed in seeds]
                  for side in SIDES}
              for w in WORKLOADS}
    for w, sides in record.items():
        for side, counts in sides.items():
            print(f"{w:14s} {side:7s}" + "".join(
                f"  {key} " + " ".join(str(c[key]) for c in counts)
                for key in KEYS))
    text = args.out.read_text() if args.out.exists() else ""
    out = json.loads(text) if text.strip() else {}
    out["draw_calls"] = {"threads": 1, "seeds": seeds, "workloads": record}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
