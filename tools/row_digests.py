"""Sha256 digests of the data rows of brwlab's estimating commands, kept in
``ROWS.json``.

Usage, from the root of a brwlab checkout:

    python3 tools/row_digests.py --out ROWS.json      # record this version's rows
    python3 tools/row_digests.py --check ROWS.json    # compare with the record
    python3 tools/row_digests.py --tree ../parent --check ROWS.json

Each group is one command line (`GROUPS`): ``ldp`` in the shift and the
dilation regime at the sizes of the benchmark's ``shift-ldp`` and
``dilation-ldp`` workloads, ``probe-concentration`` at the size of its
``concentration`` workload, and the README's ``probe-typical`` line.  Every
group runs in process through ``cli.main`` at seeds 1 and 11-15 and at
``--threads`` 1, 2 and 3, the runs cut for that many processes whatever
the machine's core count.  A digest is the sha256 of the header and data
rows, the lines that do not start with ``#``, so the comment lines, which
carry the version, stay out of it.  The README promises the same rows at
any ``--threads``, so a group whose rows differ between thread counts is a
failure.

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
SEEDS = (1, 11, 12, 13, 14, 15)
THREADS = (1, 2, 3)


def load(tree: Path):
    """brwlab's ``cli`` and ``ldp`` modules from ``tree``'s sources, with the
    pool's core count set to the most threads asked for."""
    sys.path.insert(0, str(tree.resolve() / "src"))
    cli, ldp = (importlib.import_module(f"brwlab.{name}") for name in ("cli", "ldp"))
    ldp._usable_cores = lambda: max(THREADS)
    return cli


def digest(cli, argv: list[str], seed: int, threads: int) -> str:
    """The sha256 of the header and data rows that ``argv`` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + ["--seed", str(seed), "--threads", str(threads)])
    if code != 0:
        raise RuntimeError(f"exit {code} from {argv} at seed {seed}")
    rows = "".join(line + "\n" for line in out.getvalue().splitlines()
                   if not line.startswith("#"))
    return hashlib.sha256(rows.encode()).hexdigest()


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
    return ({"numpy": np.__version__, "seeds": list(SEEDS), "threads": list(THREADS),
             "groups": groups}, split)


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
        print(f"recorded {len(GROUPS)} groups at {version} in {path}")
        return 0
    if version not in golden:
        print(f"{path} has no entry for version {version}", file=sys.stderr)
        return 1
    want = golden[version]
    moved = [f"{name} seed {seed}" for name, group in entry["groups"].items()
             for seed, sha in group["sha256"].items()
             if want["groups"].get(name, {}).get("sha256", {}).get(seed) != sha]
    for each in moved:
        print(f"rows moved: {each} (recorded under numpy {want['numpy']}, "
              f"run under numpy {entry['numpy']})", file=sys.stderr)
    print(f"{'moved' if moved else 'same'}: {len(GROUPS)} groups x {len(SEEDS)} seeds "
          f"x --threads {', '.join(map(str, THREADS))} at {version}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
