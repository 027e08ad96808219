"""Paired benchmark runs of two brwlab trees, written as one BENCH JSON file.

Usage, from the root of a brwlab checkout (the change), with the parent
commit checked out in a separate directory:

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workloads shift-ldp,dilation-ldp,concentration,analytic \
        --pairs 10 --seconds 20 --seed 401 --out BENCH_block_streams.json

Pair i runs ``perfbench/run.py --workload W --seed <seed + i> --seconds T
--trace 0`` once in each tree, each in a fresh interpreter; the parent runs
first in even pairs and the change first in odd ones.  The last line a run
prints is its JSON result.  For every workload and end-to-end metric of
``BENCHMARK.json`` the file records both sides' median and quartiles, the
pairs the change wins (better in the metric's direction; ties count for
neither), the pair count, every raw value, a verdict, the failed
invocations, and the machine's core count and versions.  Each tree
benchmarks its own sources with its own ``perfbench/``, and the file names
both: each tree's ``git describe`` where it is a checkout, and a sha256 of
its ``src/`` and ``perfbench/`` sources (`sources_digest`) in any case.

Both trees run in the same bytecode state (`bytecode_cache`): every run
compiles the tree's own modules from source, as in a fresh checkout, and
loads everything else from bytecode, whatever ``__pycache__`` directories
either tree holds.  Stale or missing ``.pyc`` files of one tree would
otherwise show in its ``setup_s`` and ``peak_rss_mb``.

A metric's verdict is the first that applies of:

- ``gain``: the change wins at least 9 of 10 pairs and its median is better
  than the parent's by more than the parent's interquartile range;
- ``regression``: the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json`` (a fraction of the parent's
  median);
- ``unresolved``: the parent's interquartile range is wider than the bound
  and not every run of the change is better than every run of the parent;
- ``within bound``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


BYTECODE = ("a fresh PYTHONPYCACHEPREFIX per run, holding the bytecode of every "
            "module the run imports but the tree's own")


@contextlib.contextmanager
def bytecode_cache(tree: Path, modules: str):
    """The environment of one run in ``tree``: a fresh PYTHONPYCACHEPREFIX
    that holds the bytecode of what importing ``modules`` (with ``perfbench``
    and ``src`` on the path) loads, except the tree's own modules.

    Under a prefix Python neither reads nor writes ``__pycache__``
    directories, so the run sees none of the tree's ``.pyc`` files.  An
    empty prefix would make every interpreter compile numpy too (0.6 s
    instead of 0.2 s for a fresh ``import brwlab.cli`` on 2 vCPUs).  The run
    keeps PYTHONDONTWRITEBYTECODE as given: where it is set, every
    interpreter of the run compiles the tree's modules; else the first one
    caches them for the rest.
    """
    with tempfile.TemporaryDirectory(prefix="pycache-") as cache:
        env = dict(os.environ, PYTHONPYCACHEPREFIX=cache)
        warm = {k: v for k, v in env.items() if k != "PYTHONDONTWRITEBYTECODE"}
        subprocess.run([sys.executable, "-c", "import sys; sys.path[:0] = "
                        f"['perfbench', 'src']; import {modules}"],
                       cwd=tree, env=warm, check=True, capture_output=True)
        shutil.rmtree(Path(cache, *tree.resolve().parts[1:]), ignore_errors=True)
        yield env


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result of one untraced benchmark run in ``tree``."""
    with bytecode_cache(tree, "run, brwlab.cli") as env:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=tree, env=env, check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def sources_digest(tree: Path) -> str:
    """sha256 over the ``*.py`` files under the tree's ``src/`` and
    ``perfbench/``: each file's relative path, its length and its bytes, in
    sorted path order."""
    digest = hashlib.sha256()
    for path in sorted(p.relative_to(tree).as_posix() for top in ("src", "perfbench")
                       for p in (tree / top).rglob("*.py")):
        data = (tree / path).read_bytes()
        digest.update(f"{path}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def commit_of(tree: Path) -> str:
    """The tree's ``git describe``, if it is a checkout, and its
    `sources_digest`, so a tree copied without ``.git`` is named too."""
    proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=tree,
                          capture_output=True, text=True)
    digest = f"sha256:{sources_digest(tree)}"
    return f"{proc.stdout.strip()} {digest}" if proc.stdout.strip() else digest


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def verdict(m: dict, bound: float) -> str:
    """gain, regression, unresolved or within bound: see the module docstring."""
    parent, change = m["parent"], m["change"]
    sign = -1.0 if m["better"] == "lower" else 1.0
    gap = sign * (change["median"] - parent["median"])   # > 0: the change is better
    iqr = parent["q3"] - parent["q1"]
    if 10 * m["wins"] >= 9 * m["pairs"] and gap > iqr:
        return "gain"
    if -gap > bound * parent["median"]:
        return "regression"
    separated = (min(sign * v for v in m["change_values"])
                 > max(sign * v for v in m["parent_values"]))
    if iqr > bound * parent["median"] and not separated:
        return "unresolved"
    return "within bound"


def summarize(runs: dict, metrics: list) -> dict:
    """Per-metric medians, quartiles, wins and verdicts of the change over ``runs``."""
    out = {}
    for metric in metrics:
        name, direction = metric["name"], metric["better"]
        sides = {side: [r["metrics"][name]["value"] for r in runs[side]]
                 for side in SIDES}
        sign = -1.0 if direction == "lower" else 1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
        parent, change = quartiles(sides["parent"]), quartiles(sides["change"])
        out[name] = {"unit": runs["parent"][0]["metrics"][name]["unit"],
                     "better": direction, "parent": parent, "change": change,
                     "ratio": change["median"] / parent["median"],
                     "wins": int(wins), "pairs": len(sides["parent"]),
                     "parent_values": sides["parent"],
                     "change_values": sides["change"]}
        out[name]["verdict"] = verdict(out[name], metric["bound"])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workloads", required=True,
                        help="comma-separated perfbench workload names")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of the first pair; pair i uses seed + i")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    workloads = [w for w in args.workloads.split(",") if w]
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                result = run_once(trees[side], workload, args.seed + i, args.seconds)
                runs[workload][side].append(result)
                print(f"pair {i} {workload} {side}: "
                      + " ".join(f"{k}={v['value']:.4g}"
                                 for k, v in result["metrics"].items()),
                      flush=True)
    record = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "platform": platform.platform()},
        "commits": {side: commit_of(tree) for side, tree in trees.items()},
        "command": "perfbench/run.py --trace 0",
        "bytecode": BYTECODE,
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "seconds": args.seconds, "pairs": args.pairs,
        "seeds": [args.seed + i for i in range(args.pairs)],
        "first_side": "parent in even pairs, change in odd pairs",
        "workloads": {
            w: {"metrics": summarize(runs[w], spec["end_to_end"]),
                "failed": {side: sum(r["failed"] for r in runs[w][side])
                           for side in SIDES},
                "attempted": {side: sum(r["attempted"] for r in runs[w][side])
                              for side in SIDES},
                "correct": {side: all(r["correct"] for r in runs[w][side])
                            for side in SIDES}}
            for w in workloads},
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for w in workloads:
        for name, m in record["workloads"][w]["metrics"].items():
            print(f"{w:14s} {name:15s} {m['parent']['median']:10.4g} -> "
                  f"{m['change']['median']:10.4g} {m['unit']:4s} "
                  f"wins {m['wins']}/{m['pairs']}  {m['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
