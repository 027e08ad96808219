"""Sha256 digests of the data rows of brwlab's estimating commands, kept in
``ROWS.json``.

Usage, from the root of a brwlab checkout:

    python3 tools/row_digests.py --out ROWS.json      # record this version's rows
    python3 tools/row_digests.py --check ROWS.json    # compare with the record
    python3 tools/row_digests.py --tree ../parent --check ROWS.json

Each seeded group is one command line (`GROUPS`): ``ldp`` in the shift and
the dilation regime at the sizes of the benchmark's ``shift-ldp`` and
``dilation-ldp`` workloads, ``probe-concentration`` at the size of its
``concentration`` workload, and the README's ``probe-typical`` line.  Every
seeded group runs in process through ``cli.main`` at seeds 1 and 11-15 and
at ``--threads`` 1, 2 and 3, the runs cut for that many processes whatever
the machine's core count.  The seedless groups (`SEEDLESS`) are commands
that draw nothing: the ``analytic`` workload's 20-case ``rate`` suite; two
``clt-scan`` lines, the README's and one at n = 1022, 1024 and 1100, where
the path counts pass the float range; the README's ``interp`` line and one
at spacing exponent 1; and the README's ``enumerate`` line and one of six
generations.  Each runs once.  A digest is the sha256 of the header and
data rows of a group's command lines, the lines that do not start with
``#``, so the comment lines, which carry the version, stay out of it.  The
README promises the same rows at any ``--threads``, so a group whose rows
differ between thread counts is a failure.

``--out`` records the digests under the version of the brwlab it ran, with
the numpy version, and keeps the entries of other versions; ``--check``
compares them with that version's entry and exits 1 on any difference.
``--tree`` runs the brwlab of another checkout (default: this one), so a
parent commit's rows can be checked against the record.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import sys
from pathlib import Path

GROUPS = {
    "ldp-shift": ["ldp", "--set", "(-inf,0]", "--p", "0.8", "--law", "2:0.5,3:0.5",
                  "--n-grid", "100,400,900", "--replicas", "100"],
    "ldp-dilation": ["ldp", "--set", "[-0.6744897501960817,0.6744897501960817]",
                     "--p", "0.9", "--n-grid", "60,120,240", "--replicas", "500"],
    "probe-concentration": ["probe-concentration", "--replicas", "500"],
    "probe-typical": ["probe-typical", "--set", "(-inf,0]", "--t", "1",
                      "--n-grid", "64,256,1024", "--replicas", "1000"],
}
# (set, p) of the `analytic` workload's rate suite (perfbench/workloads.py)
RATE_SUITE = [
    ("(-inf,0]", 0.8), ("(-inf,1.3]", 0.6), ("[0,inf)", 0.75),
    ("[-0.6744898,0.6744898]", 0.9), ("[-1,1]", 0.95), ("[-2,-1]", 0.5),
    ("[1,2]", 0.3), ("[1,2]", 0.5), ("[-1,0] U [2,3]", 0.55),
    ("[-3,-2] U [2,3]", 0.4), ("(0,1)", 0.34), ("(-inf,-2] U [5,6]", 0.9),
    ("[-0.5,0.5]", 0.9), ("[-0.5,0.5] U [1.5,2.5]", 0.8), ("[0,4]", 0.85),
    ("[0,4]", 0.97), ("R", 0.5), ("(-inf,-1)", 0.9),
    ("[-1.2,-0.2] U [0.7,1.9]", 0.6), ("[2.5,3.5]", 0.25),
]
SEEDLESS = {
    "rate-suite": [["rate", "--set", text, "--p", repr(p)] for text, p in RATE_SUITE],
    "clt-scan": [["clt-scan", "--set", "(-inf,0]", "--R", "2", "--n-grid", "25,100,400"]],
    "clt-scan-1022": [["clt-scan", "--set", "(-inf,0]", "--R", "2",
                       "--n-grid", "1022,1024,1100"]],
    "interp": [["interp", "--alpha", "0.75", "--p", "0.5", "--delta", "0.05"]],
    "interp-delta-1": [["interp", "--alpha", "0.75", "--p", "0.5", "--delta", "1.0",
                        "--k0", "2", "--n-grid", "100,1000,10000,100000"]],
    "enumerate": [["enumerate", "--n", "2", "--law", "2:1.0", "--set", "(-inf,0]",
                   "--p", "1"]],
    "enumerate-6": [["enumerate", "--n", "6", "--law", "2:1", "--set", "(-inf,0]",
                     "--p", "0.5"]],
}
SEEDS = (1, 11, 12, 13, 14, 15)
THREADS = (1, 2, 3)


def load(tree: Path):
    """brwlab's ``cli`` and ``ldp`` modules from ``tree``'s sources, with the
    pool's core count set to the most threads asked for."""
    sys.path.insert(0, str(tree.resolve() / "src"))
    cli, ldp = (importlib.import_module(f"brwlab.{name}") for name in ("cli", "ldp"))
    ldp._usable_cores = lambda: max(THREADS)
    return cli


def lines_digest(cli, lines: list[list[str]]) -> str:
    """The sha256 of the header and data rows that the command ``lines``
    print, one after another."""
    out = io.StringIO()
    for argv in lines:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"exit {code} from {argv}")
    rows = "".join(line + "\n" for line in out.getvalue().splitlines()
                   if not line.startswith("#"))
    return hashlib.sha256(rows.encode()).hexdigest()


def digest(cli, argv: list[str], seed: int, threads: int) -> str:
    """The sha256 of the header and data rows that ``argv`` prints."""
    return lines_digest(cli, [argv + ["--seed", str(seed), "--threads", str(threads)]])


def record(cli) -> tuple[dict, list[str]]:
    """This brwlab's entry, every group's digest per seed, and the groups
    and seeds whose rows differ between thread counts."""
    import numpy as np

    groups, split = {}, []
    for name, argv in GROUPS.items():
        digests = {}
        for seed in SEEDS:
            found = [digest(cli, argv, seed, threads) for threads in THREADS]
            if len(set(found)) != 1:
                split.append(f"{name} seed {seed}")
            digests[str(seed)] = found[0]
        groups[name] = {"argv": argv, "sha256": digests}
    seedless = {name: {"argv": lines, "sha256": lines_digest(cli, lines)}
                for name, lines in SEEDLESS.items()}
    return ({"numpy": np.__version__, "seeds": list(SEEDS), "threads": list(THREADS),
             "groups": groups, "seedless": seedless}, split)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parent.parent)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", type=Path)
    mode.add_argument("--check", type=Path)
    args = parser.parse_args(argv)
    cli = load(args.tree)
    version = importlib.import_module("brwlab").__version__
    entry, split = record(cli)
    for each in split:
        print(f"rows differ between --threads {THREADS}: {each}", file=sys.stderr)
    if split:
        return 1
    path = args.out or args.check
    text = path.read_text() if path.exists() else ""
    golden = json.loads(text) if text.strip() else {}
    if args.out:
        golden[version] = entry
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(GROUPS)} seeded and {len(SEEDLESS)} seedless groups "
              f"at {version} in {path}")
        return 0
    if version not in golden:
        print(f"{path} has no entry for version {version}", file=sys.stderr)
        return 1
    want = golden[version]
    moved = [f"{name} seed {seed}" for name, group in entry["groups"].items()
             for seed, sha in group["sha256"].items()
             if want["groups"].get(name, {}).get("sha256", {}).get(seed) != sha]
    moved += [name for name, group in entry["seedless"].items()
              if want.get("seedless", {}).get(name, {}).get("sha256") != group["sha256"]]
    for each in moved:
        print(f"rows moved: {each} (recorded under numpy {want['numpy']}, "
              f"run under numpy {entry['numpy']})", file=sys.stderr)
    print(f"{'moved' if moved else 'same'}: {len(GROUPS)} groups x {len(SEEDS)} seeds "
          f"x --threads {', '.join(map(str, THREADS))} and {len(SEEDLESS)} seedless "
          f"groups at {version}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
