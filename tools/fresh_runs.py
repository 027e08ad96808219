"""Fresh-process wall times of one brwlab command line in two trees.

Usage, from the root of a brwlab checkout (the change), with the parent
commit checked out in a separate directory:

    python3 tools/fresh_runs.py --parent ../parent --change . --runs 6 \
        --out BENCH_no_scipy.json

Every run is a new interpreter that imports ``brwlab.cli`` from the tree's
``src/`` and runs the criterion-7 ``ldp`` line (shift regime, n = 100, 400
and 900, 1,000 replicas, seed 1), so a run pays everything a user's command
pays, import included.  Each run has its own bytecode cache, as in
``bench_pairs.py``: the tree's modules are compiled from source, and the
rest loads from bytecode.  For each ``--threads`` value the runs alternate
parent and change, the parent first in even rounds and the change first in
odd ones.  The tool records each side's median and every wall time, and
whether the two trees printed the same data rows.  The record goes under the
key ``fresh_ldp`` of ``--out``; other keys of an existing file are kept,
and an empty file counts as none.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import BYTECODE, bytecode_cache

SIDES = ("parent", "change")
COMMAND = ["ldp", "--set", "(-inf,0]", "--p", "0.8", "--n-grid", "100,400,900",
           "--replicas", "1000", "--seed", "1"]
LAUNCH = "import sys; from brwlab.cli import main; sys.exit(main(sys.argv[1:]))"


def run_once(tree: Path, threads: int, cwd: str) -> tuple[float, list[str]]:
    """Wall seconds of one fresh command in ``tree`` and its data rows."""
    with bytecode_cache(tree, "brwlab.cli") as env:
        env["PYTHONPATH"] = str(tree / "src")
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", LAUNCH, *COMMAND,
                               "--threads", str(threads)],
                              cwd=cwd, env=env, check=True, capture_output=True,
                              text=True)
        wall = time.perf_counter() - t0
    return wall, [ln for ln in proc.stdout.splitlines() if not ln.startswith("#")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--runs", type=int, default=6,
                        help="runs per side and thread count")
    parser.add_argument("--threads", default="1,2",
                        help="comma-separated --threads values")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = {"command": "brwlab " + " ".join(COMMAND), "runs": args.runs,
              "first_side": "parent in even rounds, change in odd rounds",
              "nproc": os.cpu_count(), "bytecode": BYTECODE,
              "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
              "threads": {}}
    rows = {side: set() for side in SIDES}
    with tempfile.TemporaryDirectory() as cwd:
        for threads in (int(t) for t in args.threads.split(",") if t):
            walls = {side: [] for side in SIDES}
            for i in range(args.runs):
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    wall, data = run_once(trees[side], threads, cwd)
                    walls[side].append(wall)
                    rows[side].add("\n".join(data))
                    print(f"--threads {threads} round {i} {side}: {wall:.3f} s",
                          flush=True)
            record["threads"][str(threads)] = {
                side: {"median_s": statistics.median(walls[side]),
                       "values_s": walls[side]} for side in SIDES}
    record["rows_equal"] = len(rows["parent"] | rows["change"]) == 1
    # an empty file, as mktemp makes, holds no record yet
    text = args.out.read_text() if args.out.exists() else ""
    out = json.loads(text) if text.strip() else {}
    out["fresh_ldp"] = record
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    for threads, sides in record["threads"].items():
        print(f"--threads {threads}: parent {sides['parent']['median_s']:.3f} s, "
              f"change {sides['change']['median_s']:.3f} s")
    print("data rows equal" if record["rows_equal"] else "data rows differ")
    return 0


if __name__ == "__main__":
    sys.exit(main())
