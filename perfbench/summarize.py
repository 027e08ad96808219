"""Summarize benchmark run records: medians and spreads across seeds.

    for s in 1 2 3 4 5 6 7 8 9 10; do
        python3 perfbench/run.py --workload concentration --seed $s --seconds 20 --trace 0
    done
    python3 perfbench/summarize.py [--write perfbench/baseline.json]

For every workload and metric, end-to-end (``--trace 0`` records) and
per-layer (``--trace 1`` records), this prints the median over runs, the
distance between the first and third quartile as a share of that median (the
spread that BENCHMARK.json's bounds must cover) and the number of runs and
timed passes.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench_out"


def load(directory: Path, trace: int) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.glob(f"run-*-trace{trace}.json")):
        record = json.loads(path.read_text())
        runs.setdefault(record["workload"], []).append(record)
    return runs


def _spread(values: list[float]) -> float | None:
    """Distance between the first and third quartile, as a share of the median."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def summarize(records: list[dict]) -> dict:
    out = {"runs": len(records), "seeds": sorted(r["seed"] for r in records),
           "passes": sum(len(r.get("pass_walls_s", [])) for r in records),
           "failed": sum(r["result"]["failed"] for r in records),
           "attempted": sum(r["result"]["attempted"] for r in records),
           "machine.calib_s": statistics.median(
               statistics.mean(r["machine.calib_s"]) for r in records),
           "metrics": {}}
    for name, entry in records[0]["result"]["metrics"].items():
        values = [r["result"]["metrics"][name]["value"] for r in records]
        median = statistics.median(values)
        spread = _spread(values)
        out["metrics"][name] = {"median": median, "unit": entry["unit"],
                                "spread": spread}
    if "raw_wall_s" in records[0]:   # end-to-end: the samples before scaling
        for name in ("raw_wall_s", "raw_setup_s"):
            values = [r[name] for r in records]
            out[name] = {"median": statistics.median(values),
                         "spread": _spread(values)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", type=Path, default=OUT_DIR,
                        help="directory of run records (default: .perfbench_out)")
    parser.add_argument("--write", help="also write the summary as JSON here")
    args = parser.parse_args(argv)
    doc = {}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        doc[key] = {}
        for workload, records in load(args.dir, trace).items():
            s = doc[key][workload] = summarize(records)
            for field in ("nproc", "python", "numpy"):
                doc.setdefault(field, records[0][field])
            print(f"{workload} (trace {trace}): {s['runs']} runs, "
                  f"{s['passes']} passes, {s['failed']}/{s['attempted']} failed, "
                  f"machine.calib_s {s['machine.calib_s']:.4f}")
            rows = [(name, m["median"], m["unit"], m["spread"])
                    for name, m in s["metrics"].items()]
            rows += [(name, s[name]["median"], "s", s[name]["spread"])
                     for name in ("raw_wall_s", "raw_setup_s") if name in s]
            for name, median, unit, spread in rows:
                spread = "-" if spread is None else f"{spread:.4f}"
                print(f"  {name:34s} {median:14.6g} {unit:6s} spread {spread}")
    if args.write:
        Path(args.write).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
