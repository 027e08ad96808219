"""Batch command-line front end.

Subcommands: rate, simulate, ldp, interp, enumerate, probe-concentration,
probe-typical, clt-scan.  Every output artifact embeds the seed, a hash of the
science-relevant configuration, and the tool version, and re-running with the
same seed reproduces the data rows byte for byte regardless of --threads.
--threads N runs the replica blocks of ldp and the probes in N processes in
all, the calling process included.  Each such command cuts every grid
point's blocks into runs of consecutive blocks, at least one per process
where there are enough, and hands all the runs to one map, which forks the
N - 1 children and reaps them before it returns; without os.fork, every run
steps in this process.  Every block draws from its own stream in any run,
so the cut, which depends on N, changes no data row.  ldp and the probes
also print the comment line ``decided_early=D replicas=R
misdecision_bound=B``: D of all R replicas were retired early by the
certificate, and B is the exactly rounded sum of their misdecision bounds,
a union bound on any of them deciding otherwise than its full run; the line
is the same at any --threads.

Exit codes: 0 success, 2 usage or parse problems, 3 infeasible domain
requests, 4 internal numeric failures.

A config file of KEY=VALUE lines (# comments allowed) may supply any long
option for the chosen subcommand; explicit flags win, and a key that names no
such option is a usage error.  The default seed comes from BRWLAB_SEED when
set.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import math
import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__
from .engine import BranchingLaw, ParticleMeasure, block_rows, enumerate_exact, evolve
from .errors import InfeasibleError, NumericError
from .gaussian import clt_uniformity_scan
from .intervals import INF, ParseError, parse_set
from .ldp import (
    StrategySpec,
    WorkerPool,
    _concentration_task,
    _success_task,
    _typical_task,
    concentration_probe,
    ldp_lower_bound,
    rate_fit,
    typical_deviation_probe,
)
from .rates import classify, interpolation_cost_exponent
from .streams import derive

SEED_ENV = "BRWLAB_SEED"


@dataclass(frozen=True)
class Opt:
    name: str
    type: Callable
    default: object
    help: str
    in_hash: bool = True


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _fmt(value) -> str:
    if isinstance(value, float):
        value = float(value)  # plain repr even for numpy scalars
        if value == INF:
            return "inf"
        if value == -INF:
            return "-inf"
        return repr(value)
    if value is None:
        return ""
    return str(value)


_CSV_NATIVE = frozenset({str, int, float, type(None)})

_COMMON = [
    Opt("seed", int, None, "master seed (default: $BRWLAB_SEED or 0)"),
    Opt("out", str, None, "output path (default: stdout)", in_hash=False),
    Opt("threads", int, 1, "max processes for replica runs, this one included",
        in_hash=False),
    Opt("config", str, None, "KEY=VALUE config file; flags override", in_hash=False),
]

_SPECS: dict[str, list[Opt]] = {
    "rate": [
        Opt("set", str, None, "target set, e.g. \"(-inf,0]\""),
        Opt("p", float, None, "target fraction in (0,1)"),
        Opt("b", int, 2, "minimal offspring count"),
    ],
    "simulate": [
        Opt("law", str, "2:0.5,3:0.5", "offspring law, k:prob[,k:prob...]"),
        Opt("n", int, 100, "generations"),
        Opt("replicas", int, 1, "independent runs"),
        Opt("set", str, "(-inf,0]", "fraction target set (sqrt(k)-scaled per generation)"),
    ],
    "ldp": [
        Opt("set", str, None, "target set"),
        Opt("p", float, None, "target fraction"),
        Opt("law", str, "2:0.5,3:0.5", "offspring law"),
        Opt("kind", str, "auto", "shift | dilation | auto (from the classified regime)"),
        Opt("x", float, None, "strategy shift (default: classified witness)"),
        Opt("r", float, None, "strategy time fraction (default: classified witness)"),
        Opt("n-grid", _int_list, (100, 400, 900), "comma-separated n grid"),
        Opt("replicas", int, 1000, "replicas per conditional estimate"),
    ],
    "interp": [
        Opt("alpha", float, 0.75, "target exponent in (1/2,1)"),
        Opt("p", float, 0.5, "target fraction"),
        Opt("delta", float, 0.05, "spacing exponent"),
        Opt("k0", int, 2, "first family index"),
        Opt("n-grid", _int_list, (100, 1000, 10_000, 100_000), "n grid"),
        Opt("b", int, 2, "minimal offspring count"),
    ],
    "enumerate": [
        Opt("n", int, None, "generations (tiny)"),
        Opt("law", str, "2:1.0", "offspring law"),
        Opt("set", str, None, "target set"),
        Opt("p", float, None, "target fraction in [0,1]"),
    ],
    "probe-concentration": [
        Opt("pop-grid", _int_list, (100, 400, 1600), "start population grid"),
        Opt("set", str, "(-inf,0]", "target set (unscaled)"),
        Opt("delta", float, 0.05, "deviation size"),
        Opt("n", int, 16, "generations"),
        Opt("law", str, "2:0.995,200:0.005", "offspring law"),
        Opt("replicas", int, 10_000, "replicas per population"),
    ],
    "probe-typical": [
        Opt("set", str, "(-inf,0]", "target set"),
        Opt("t", float, 1.0, "deviation in units of 1/sqrt(n)"),
        Opt("n-grid", _int_list, (64, 256, 1024), "n grid"),
        Opt("law", str, "2:0.5,3:0.5", "offspring law"),
        Opt("replicas", int, 1000, "replicas per n"),
    ],
    "clt-scan": [
        Opt("set", str, None, "target set"),
        Opt("R", float, 2.0, "dilation range bound (> 1)"),
        Opt("n-grid", _int_list, (25, 100, 400), "n grid"),
        Opt("rho-points", int, 21, "rho grid resolution"),
    ],
}


@lru_cache(maxsize=None)
def _parser(command: Optional[str]) -> argparse.ArgumentParser:
    """The parser of one subcommand, or of all eight for ``command`` None.

    Each of the nine is built once per process, on first use: argparse
    keeps no state from one parse to the next, and help text is laid out, at
    the terminal's width then, only when printed.  With one subcommand, its metavar keeps
    the top-level usage line listing all eight, so help and error text are
    those of the full parser.
    """
    parser = argparse.ArgumentParser(
        prog="brwlab",
        description="Branching random walk deviation laboratory")
    parser.add_argument("--version", action="version", version=f"brwlab {__version__}")
    subs = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(_SPECS) + "}")
    for name in _SPECS if command is None else (command,):
        sub = subs.add_parser(name)
        for opt in _SPECS[name] + _COMMON:
            sub.add_argument(f"--{opt.name}", dest=opt.name.replace("-", "_"),
                             type=opt.type, default=None, help=opt.help)
    return parser


def _read_config(path: str, known: set[str]) -> dict[str, str]:
    """KEY=VALUE lines of ``path``; a key outside ``known`` is an error."""
    values: dict[str, str] = {}
    with open(path) as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected KEY=VALUE, got {line!r}")
            key, value = line.split("=", 1)
            key = key.strip()
            name = key.replace("-", "_")
            if name not in known:
                raise ValueError(f"{path}:{lineno}: unknown option {key!r} "
                                 "for this subcommand")
            values[name] = value.strip()
    return values


def _resolve(args: argparse.Namespace, command: str) -> dict:
    """Merge CLI flags over config-file values over defaults."""
    opts = _SPECS[command] + _COMMON
    config: dict[str, str] = {}
    if args.config:
        config = _read_config(args.config,
                              {opt.name.replace("-", "_") for opt in opts})
    resolved = {}
    for opt in opts:
        key = opt.name.replace("-", "_")
        value = getattr(args, key, None)
        if value is None and key in config:
            value = opt.type(config[key])
        if value is None:
            value = opt.default
        resolved[key] = value
    if resolved.get("seed") is None:
        resolved["seed"] = int(os.environ.get(SEED_ENV, "0"))
    for key in ("p",):
        if key in resolved and resolved[key] is not None:
            if command != "enumerate" and not 0.0 < resolved[key] < 1.0:
                raise ValueError(f"p must lie in (0,1), got {resolved[key]}")
    if "replicas" in resolved and resolved["replicas"] is not None:
        if resolved["replicas"] < 1:
            raise ValueError("replicas must be positive")
    if resolved["threads"] < 1:
        raise ValueError("threads must be positive")
    for opt in opts:
        key = opt.name.replace("-", "_")
        if opt.default is None and resolved[key] is None and opt.name not in (
                "seed", "out", "config", "x", "r"):
            raise ValueError(f"--{opt.name} is required")
    return resolved


def _config_hash(command: str, resolved: dict) -> str:
    parts = [command]
    for opt in sorted(_SPECS[command] + _COMMON, key=lambda o: o.name):
        if not opt.in_hash:
            continue
        key = opt.name.replace("-", "_")
        parts.append(f"{opt.name}={resolved.get(key)}")
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:12]


def _emit(resolved: dict, command: str, header_cols: Sequence[str],
          rows: Sequence[Sequence], extra_comments: Sequence[str] = ()) -> None:
    buffer = io.StringIO()
    buffer.write(f"# brwlab {__version__}\n")
    buffer.write(f"# seed={resolved['seed']} config={_config_hash(command, resolved)} "
                 f"command={command}\n")
    for comment in extra_comments:
        buffer.write(f"# {comment}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header_cols)
    # csv writes these types as _fmt does (floats by repr, None as empty);
    # only the rest, numpy scalars among them, go through _fmt
    writer.writerows([v if type(v) in _CSV_NATIVE else _fmt(v) for v in row]
                     for row in rows)
    text = buffer.getvalue()
    if resolved.get("out"):
        with open(resolved["out"], "w", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# -- subcommands ---------------------------------------------------------------

def _grid_estimates(threads: int, task: Callable, estimate: Callable,
                    points: Sequence[tuple], **kwargs) -> list:
    """``estimate(*point, **kwargs)`` for every grid point, from one pool.

    ``task(*point)`` is the point's event count: the pool runs every point's
    blocks in one map, at the first estimate.
    """
    pool = WorkerPool(threads)
    pool.expect([task(*point) for point in points])
    return [estimate(*point, workers=pool, **kwargs) for point in points]


def _retirements(estimates: Sequence) -> str:
    """The comment line of an estimating command: the replicas the
    certificate retired early, all replicas, and the exactly rounded sum of
    the retired replicas' misdecision bounds over every grid point."""
    return (f"decided_early={sum(est.decided_early for est in estimates)} "
            f"replicas={sum(est.replicas for est in estimates)} "
            f"misdecision_bound={_fmt(math.fsum(est.misdecision_bound for est in estimates))}")


def _cmd_rate(resolved: dict) -> None:
    target = parse_set(resolved["set"])
    report = classify(target, resolved["p"], resolved["b"])
    regime = "degenerate" if report.degenerate else report.regime
    rows = [[resolved["set"], report.p, report.b, regime, report.scale,
             report.i_tilde, report.x_star, report.j_tilde, report.r_star,
             report.x_star_dilation, report.i_rate, report.j_rate,
             int(report.near_critical)]]
    _emit(resolved, "rate",
          ["set", "p", "b", "regime", "scale", "i_tilde", "x_star", "j_tilde",
           "r_star", "x_star_dilation", "i_rate", "j_rate", "near_critical"],
          rows)


def _cmd_simulate(resolved: dict) -> None:
    law = BranchingLaw.parse(resolved["law"])
    target = parse_set(resolved["set"])
    start = ParticleMeasure.delta(0)
    n, replicas = resolved["n"], resolved["replicas"]
    size = block_rows(start, n)
    rows = []
    # block b holds replicas [b size, (b + 1) size) and draws from (seed, b)
    for block, first in enumerate(range(0, replicas, size)):
        stats, _ = evolve(start, law, n, min(size, replicas - first),
                          derive(resolved["seed"], block), target)
        # (replica, generation, statistic), the statistics in column order
        table = np.stack(list(stats.values()), axis=-1).swapaxes(0, 1).tolist()
        for r, trajectory in enumerate(table):
            rows += ([first + r, k, *values] for k, values in enumerate(trajectory))
    _emit(resolved, "simulate",
          ["replica", "generation", "total_log", "normalized_total",
           "mean_position", "fraction_A"], rows,
          [f"law={law} set={resolved['set']}"])


def _cmd_ldp(resolved: dict) -> None:
    law = BranchingLaw.parse(resolved["law"])
    target = parse_set(resolved["set"])
    p = resolved["p"]
    report = classify(target, p, law.b)
    kind = resolved["kind"]
    if kind == "auto":
        kind = report.regime
    if kind not in ("shift", "dilation"):
        raise ValueError(f"unknown strategy kind {kind!r}")
    x = resolved["x"]
    r = resolved["r"]
    if x is None:
        x = report.x_star if kind == "shift" else report.x_star_dilation
        if x is None:
            raise InfeasibleError("no finite shift witness; use --kind dilation")
    if r is None:
        r = 0.0 if kind == "shift" else report.r_star
    points = [(StrategySpec.make(kind, x, r, n), target, p, law,
               resolved["replicas"], (resolved["seed"], idx))
              for idx, n in enumerate(resolved["n_grid"])]
    estimates = _grid_estimates(resolved["threads"], _success_task,
                                ldp_lower_bound, points, report=report)
    rows = [[est.spec.n, kind, est.spec.x, est.spec.r, est.spec.w, est.spec.q,
             est.spec.s, est.log_prefix_prob, est.q_hat, est.ci_lo, est.ci_hi,
             est.log_neg_log, est.theory_rate, est.relative_gap]
            for est in estimates]
    comments = [f"law={law} regime={report.regime} scale={report.scale}"]
    if len({est.spec.n for est in estimates}) >= 3:   # rate_fit needs 3 distinct n
        fit = rate_fit(estimates, report.scale)
        comments.append(f"fit_slope={_fmt(fit.slope)} fit_scale={fit.scale}")
    comments.append(_retirements(estimates))
    _emit(resolved, "ldp",
          ["n", "kind", "x", "r", "w", "q", "s", "log_prefix", "q_hat",
           "ci_lo", "ci_hi", "log_neg_log", "theory_rate", "gap"],
          rows, comments)


def _cmd_interp(resolved: dict) -> None:
    fit = interpolation_cost_exponent(resolved["alpha"], resolved["p"],
                                      resolved["delta"], resolved["k0"],
                                      resolved["n_grid"], resolved["b"])
    rows = [[resolved["alpha"], resolved["delta"], resolved["p"], resolved["k0"],
             resolved["b"], n, k, w, cost, fit.alpha_hat]
            for n, k, w, cost in fit.points]
    _emit(resolved, "interp",
          ["alpha", "delta", "p", "k0", "b", "n", "k", "w", "cost_exponent",
           "alpha_hat"],
          rows, [f"alpha_hat={_fmt(fit.alpha_hat)}"])


def _cmd_enumerate(resolved: dict) -> None:
    if not 0.0 <= resolved["p"] <= 1.0:
        raise ValueError(f"p must lie in [0,1], got {resolved['p']}")
    law = BranchingLaw.parse(resolved["law"])
    target = parse_set(resolved["set"])
    exact = enumerate_exact(resolved["n"], law, target, resolved["p"])
    rows = [[resolved["n"], str(law), resolved["set"], resolved["p"],
             f"{exact.numerator}/{exact.denominator}", float(exact)]]
    _emit(resolved, "enumerate",
          ["n", "law", "set", "p", "probability_exact", "probability"], rows)


def _cmd_probe_concentration(resolved: dict) -> None:
    law = BranchingLaw.parse(resolved["law"])
    target = parse_set(resolved["set"])
    points = [(pop, target, resolved["delta"], resolved["n"], law,
               resolved["replicas"], (resolved["seed"], idx))
              for idx, pop in enumerate(resolved["pop_grid"])]
    results = _grid_estimates(resolved["threads"], _concentration_task,
                              concentration_probe, points)
    rows = [[res.population, res.delta, res.n, res.replicas, res.frequency,
             res.reference] for res in results]
    _emit(resolved, "probe-concentration",
          ["population", "delta", "n", "replicas", "frequency", "reference"],
          rows, [f"law={law}", _retirements(results)])


def _cmd_probe_typical(resolved: dict) -> None:
    law = BranchingLaw.parse(resolved["law"])
    target = parse_set(resolved["set"])
    points = [(target, resolved["t"], n, law, resolved["replicas"],
               (resolved["seed"], idx))
              for idx, n in enumerate(resolved["n_grid"])]
    results = _grid_estimates(resolved["threads"], _typical_task,
                              typical_deviation_probe, points)
    rows = [[res.n, resolved["t"], res.threshold, res.replicas, res.probability]
            for res in results]
    _emit(resolved, "probe-typical",
          ["n", "t", "threshold", "replicas", "probability"], rows,
          [f"law={law}", _retirements(results)])


def _cmd_clt_scan(resolved: dict) -> None:
    target = parse_set(resolved["set"])
    rows = []
    for n in resolved["n_grid"]:
        res = clt_uniformity_scan(target, resolved["R"], n,
                                  rho_points=resolved["rho_points"])
        rows.append([n, resolved["R"], res.rho_points, res.sup_error,
                     res.rho_at, res.xi_at, res.xi_radius, res.xi_step])
    _emit(resolved, "clt-scan",
          ["n", "R", "rho_points", "sup_error", "rho_at", "xi_at",
           "xi_radius", "xi_step"], rows)


_DISPATCH = {
    "rate": _cmd_rate,
    "simulate": _cmd_simulate,
    "ldp": _cmd_ldp,
    "interp": _cmd_interp,
    "enumerate": _cmd_enumerate,
    "probe-concentration": _cmd_probe_concentration,
    "probe-typical": _cmd_probe_typical,
    "clt-scan": _cmd_clt_scan,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a subcommand first gets its own parser; --help, --version or an
    # unknown name, the full one
    command = argv[0] if argv and argv[0] in _SPECS else None
    args = _parser(command).parse_args(argv)
    try:
        resolved = _resolve(args, args.command)
        _DISPATCH[args.command](resolved)
    except ParseError as exc:
        print(f"brwlab: parse error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"brwlab: infeasible: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"brwlab: {exc}", file=sys.stderr)
        return 2
    except (NumericError, FloatingPointError, OverflowError) as exc:
        print(f"brwlab: numeric failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
