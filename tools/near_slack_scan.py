"""Paired timings of the dilation r-scan where p lies within the grid slack of
the sup over shifts, in two brwlab trees, written as one BENCH JSON file.

Usage, from the root of a brwlab checkout (the change), with the parent
commit checked out in a separate directory:

    python3 tools/near_slack_scan.py --parent ../parent --change . \\
        --rounds 10 --cases 20 --seed 61 --out BENCH_near_slack.json

The sample is seeded and the same in both trees: ``--cases`` bounded sets of
2 to 4 components, their endpoints sorted draws of a normal law with
standard deviation 3, each with p = sup + u * slack, u uniform on
(0.02, 0.98).  Here sup is the set's sup over shifts and slack the grid
slack 2k pdf(1) SUP_STEP^2 / 8 of k components, so p is within reach of a
row's first screen from the start of the r-scan.  Draws with p >= 1 are
skipped.

Each round runs every tree once in a fresh interpreter, the parent first in
even rounds and the change first in odd ones, with the bytecode state of
``bench_pairs.py``.  The interpreter times ``rates.classify(s, p, 2)`` per
case over ``--passes`` passes after one untimed pass and keeps each case's
fastest, then counts the refined rows (``_dilated_sup`` calls inside
``_first_crossing``) in one more untimed pass.  The record holds both
sides' median and quartiles of the summed case times, the rounds the
change wins, every value, the refined rows per case, and whether both trees
gave equal reports.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

from bench_pairs import BYTECODE, bytecode_cache, commit_of, quartiles

SIDES = ("parent", "change")

WORKER = """
import json, sys, time
import numpy as np
from brwlab import rates
from brwlab.intervals import IntervalSet

seed, count, passes = (int(a) for a in sys.argv[1:4])
rng = np.random.default_rng(seed)
cases = []
while len(cases) < count:
    k = int(rng.integers(2, 5))
    cuts = np.sort(rng.normal(0.0, 3.0, size=2 * k))
    s = IntervalSet.empty()
    for i in range(k):
        s = s.union(IntervalSet.closed(float(cuts[2 * i]), float(cuts[2 * i + 1])))
    if len(s.components) < 2:
        continue
    sup = rates.sup_shift_measure(s)[0]
    p = sup + rates._grid_slack(s.lo.size) * float(rng.uniform(0.02, 0.98))
    if p < 1.0:
        cases.append((s, p))
for s, p in cases:                       # untimed pass
    rates.classify(s, p, 2)
best = [float("inf")] * count
for _ in range(passes):
    for i, (s, p) in enumerate(cases):
        t0 = time.perf_counter()
        rates.classify(s, p, 2)
        best[i] = min(best[i], time.perf_counter() - t0)
calls = [0]
dilated_sup, first_crossing = rates._dilated_sup, rates._first_crossing
def counting_sup(*args):
    calls[0] += 1
    return dilated_sup(*args)
def counting_crossing(*args):
    rates._dilated_sup = counting_sup
    try:
        return first_crossing(*args)
    finally:
        rates._dilated_sup = dilated_sup
rates._first_crossing = counting_crossing
refined, reports = [], []
for s, p in cases:
    calls[0] = 0
    rep = rates.classify(s, p, 2)
    refined.append(calls[0])
    reports.append(repr((str(s), p, rep.regime, rep.j_tilde, rep.x_star_dilation)))
print(json.dumps({"case_s": best, "refined": refined, "reports": reports}))
"""


def run_once(tree: Path, seed: int, cases: int, passes: int) -> dict:
    """Per-case fastest times, refined rows and reports of one interpreter in ``tree``."""
    with bytecode_cache(tree, "brwlab.rates") as env:
        env["PYTHONPATH"] = str(tree / "src")
        proc = subprocess.run([sys.executable, "-c", WORKER, str(seed), str(cases),
                               str(passes)], cwd=tree, env=env, check=True,
                              capture_output=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--cases", type=int, default=20)
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {side: [] for side in SIDES}
    for i in range(args.rounds):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            runs[side].append(run_once(trees[side], args.seed, args.cases, args.passes))
            print(f"round {i} {side}: {sum(runs[side][-1]['case_s']) * 1e3:.1f} ms",
                  flush=True)
    totals = {side: [sum(r["case_s"]) for r in runs[side]] for side in SIDES}
    record = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "platform": platform.platform()},
        "commits": {side: commit_of(tree) for side, tree in trees.items()},
        "command": "rates.classify(s, p, 2) over the near-slack sample",
        "bytecode": BYTECODE,
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "seed": args.seed, "cases": args.cases, "passes": args.passes,
        "rounds": args.rounds,
        "first_side": "parent in even rounds, change in odd rounds",
        "total_s": {side: {**quartiles(totals[side]), "values": totals[side]}
                    for side in SIDES},
        "change_wins": sum(c < p for p, c in zip(totals["parent"], totals["change"])),
        "case_median_s": {side: np.median([r["case_s"] for r in runs[side]],
                                          axis=0).tolist() for side in SIDES},
        "refined_rows": {side: runs[side][0]["refined"] for side in SIDES},
        "reports_equal": runs["parent"][0]["reports"] == runs["change"][0]["reports"],
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for side in SIDES:
        print(f"{side}: median {record['total_s'][side]['median'] * 1e3:.1f} ms, "
              f"{sum(record['refined_rows'][side])} refined rows")
    print(f"change wins {record['change_wins']} of {args.rounds} rounds; reports "
          + ("equal" if record["reports_equal"] else "differ"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
