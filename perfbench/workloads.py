"""The four benchmark workloads: CLI invocations made from a seed, and their checks.

Each workload is a list of ``brwlab`` command lines (one *pass*).  Every
invocation carries a check that reads the CSV the command printed and returns
a list of problems; the checks hold for any seed and any legitimate change of
random draws, so they gate correctness without pinning output bytes.

Replica counts keep one pass short enough for several passes per run:

- ``shift-ldp`` uses 100 replicas, the least ``ldp`` accepts (5-8 s per pass
  on 2 cores);
- ``dilation-ldp`` uses 500 (about 2 s per pass) and ``concentration`` 500
  (about 1 s per pass).
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtr

LOG2 = math.log(2.0)
INF = math.inf

LDP_COLUMNS = ["n", "kind", "x", "r", "w", "q", "s", "log_prefix", "q_hat",
               "ci_lo", "ci_hi", "log_neg_log", "theory_rate", "gap"]
CONCENTRATION_COLUMNS = ["population", "delta", "n", "replicas", "frequency",
                         "reference"]
RATE_COLUMNS = ["set", "p", "b", "regime", "scale", "i_tilde", "x_star",
                "j_tilde", "r_star", "x_star_dilation", "i_rate", "j_rate",
                "near_critical"]
CLT_COLUMNS = ["n", "R", "rho_points", "sup_error", "rho_at", "xi_at",
               "xi_radius", "xi_step"]

SHIFT_REPLICAS = 100
DILATION_REPLICAS = 500
CONCENTRATION_REPLICAS = 500
RANDOM_RATE_CASES = 4

# Exact 16-step walk mass of (-inf, 0]: 39203 / 65536.
CONCENTRATION_REFERENCE = 0.5981903076171875

# The 20-case rate suite with the regime and rates (i_rate, j_rate) that
# `brwlab rate` printed at brwlab 0.1.0.  Checked within RATE_TOL.
RATE_SUITE = [
    ("(-inf,0]", 0.8, "shift", 0.5833673854049795, 0.0),
    ("(-inf,1.3]", 0.6, "degenerate", 0.0, 0.0),
    ("[0,inf)", 0.75, "shift", 0.46752066912665957, 0.0),
    ("[-0.6744898,0.6744898]", 0.9, "dilation", INF, 0.5765946470113349),
    ("[-1,1]", 0.95, "dilation", INF, 0.512708651570795),
    ("[-2,-1]", 0.5, "dilation", INF, 0.31224385820940376),
    ("[1,2]", 0.3, "shift", 0.5347661064355304, 0.0),
    ("[1,2]", 0.5, "dilation", INF, 0.31224385820940376),
    ("[-1,0] U [2,3]", 0.55, "dilation", INF, 0.38937581935221777),
    ("[-3,-2] U [2,3]", 0.4, "dilation", INF, 0.06299991016690444),
    ("(0,1)", 0.34, "degenerate", 0.0, 0.0),
    ("(-inf,-2] U [5,6]", 0.9, "shift", 2.2745982159208977, 0.0),
    ("[-0.5,0.5]", 0.9, "dilation", INF, 0.6290983869930075),
    ("[-0.5,0.5] U [1.5,2.5]", 0.8, "dilation", INF, 0.5876088491545751),
    ("[0,4]", 0.85, "shift", 0.7230363135691228, 0.0),
    ("[0,4]", 0.97, "dilation", INF, 0.1043986863493526),
    ("R", 0.5, "degenerate", 0.0, 0.0),
    ("(-inf,-1)", 0.9, "shift", 1.5814510353609526, 0.0),
    ("[-1.2,-0.2] U [0.7,1.9]", 0.6, "dilation", INF, 0.29709502046866093),
    ("[2.5,3.5]", 0.25, "shift", 1.4121019318432115, 0.0),
]
RATE_TOL = 1e-3


@dataclass(frozen=True)
class Invocation:
    """One CLI command line, the work items it completes, and its output check."""

    argv: tuple[str, ...]
    items: int
    check: Callable[[str], list[str]]


def with_threads(argv: tuple[str, ...], threads: int) -> list[str]:
    """``argv`` with its ``--threads`` value replaced (commands without it unchanged)."""
    out = list(argv)
    if "--threads" in out:
        out[out.index("--threads") + 1] = str(threads)
    return out


# -- CSV reading -----------------------------------------------------------------

def parse_csv(text: str) -> tuple[list[str], list[str], list[dict[str, str]]]:
    """(comment lines, header, rows) of one brwlab CSV artifact."""
    lines = text.splitlines()
    comments = [line[1:].strip() for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    if not body:
        return comments, [], []
    reader = csv.reader(body)
    header = next(reader)
    return comments, header, [dict(zip(header, row)) for row in reader]


def data_rows(text: str) -> list[str]:
    """The data rows of an artifact (no comments, no header)."""
    body = [line for line in text.splitlines() if not line.startswith("#")]
    return body[1:]


def _comment_value(comments: list[str], key: str) -> float:
    for line in comments:
        for token in line.split():
            if token.startswith(key + "="):
                return float(token.split("=", 1)[1])
    raise KeyError(key)


def _shape(header, rows, columns, count) -> list[str]:
    problems = []
    if header != columns:
        problems.append(f"header {header} != {columns}")
    if len(rows) != count:
        problems.append(f"{len(rows)} rows, expected {count}")
    return problems


# -- Gaussian measure, independent of brwlab ----------------------------------

def _components(text: str) -> list[tuple[float, float]]:
    if text.strip() == "R":
        return [(-INF, INF)]
    parts = []
    for term in text.split("U"):
        lo, hi = term.strip()[1:-1].split(",")
        parts.append((float(lo), float(hi)))
    return parts


def _gauss_shifted(parts, xs: np.ndarray) -> np.ndarray:
    """x -> Gaussian mass of (S - x), for an array of shifts."""
    total = np.zeros_like(xs)
    for lo, hi in parts:
        total += ndtr(hi - xs) - ndtr(lo - xs)
    return total


# -- checks ----------------------------------------------------------------------

def _check_ldp(grid, theory, tol, slope_bound=None):
    def check(out: str) -> list[str]:
        comments, header, rows = parse_csv(out)
        problems = _shape(header, rows, LDP_COLUMNS, len(grid))
        if problems:
            return problems
        if [int(r["n"]) for r in rows] != list(grid):
            problems.append("n column does not follow the grid")
        for r in rows:
            q, lo, hi = float(r["q_hat"]), float(r["ci_lo"]), float(r["ci_hi"])
            if not lo <= q <= hi:
                problems.append(f"n={r['n']}: q_hat {q} outside [{lo}, {hi}]")
            if abs(float(r["theory_rate"]) - theory) > tol:
                problems.append(f"n={r['n']}: theory_rate {r['theory_rate']} "
                                f"differs from {theory} by more than {tol}")
        if slope_bound is not None:
            slope = _comment_value(comments, "fit_slope")
            if not abs(slope / theory - 1.0) <= slope_bound:
                problems.append(f"fit slope {slope} not within "
                                f"{slope_bound:.0%} of {theory}")
        return problems
    return check


def _check_concentration(pops, replicas):
    def check(out: str) -> list[str]:
        _, header, rows = parse_csv(out)
        problems = _shape(header, rows, CONCENTRATION_COLUMNS, len(pops))
        if problems:
            return problems
        if [int(r["population"]) for r in rows] != list(pops):
            problems.append("population column does not follow the grid")
        for r in rows:
            if int(r["replicas"]) != replicas:
                problems.append(f"replicas {r['replicas']} != {replicas}")
            if float(r["reference"]) != CONCENTRATION_REFERENCE:
                problems.append(f"reference {r['reference']} != "
                                f"{CONCENTRATION_REFERENCE}")
            if not 0.0 <= float(r["frequency"]) <= 1.0:
                problems.append(f"frequency {r['frequency']} outside [0, 1]")
        return problems
    return check


def _close(got: float, want: float, tol: float) -> bool:
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= tol


def _check_rate(regime, i_rate, j_rate):
    def check(out: str) -> list[str]:
        _, header, rows = parse_csv(out)
        problems = _shape(header, rows, RATE_COLUMNS, 1)
        if problems:
            return problems
        row = rows[0]
        if row["regime"] != regime:
            problems.append(f"regime {row['regime']} != {regime}")
        if not _close(float(row["i_rate"]), i_rate, RATE_TOL):
            problems.append(f"i_rate {row['i_rate']} != {i_rate}")
        if not _close(float(row["j_rate"]), j_rate, RATE_TOL):
            problems.append(f"j_rate {row['j_rate']} != {j_rate}")
        return problems
    return check


def _check_random_shift(text: str, p: float):
    """Shift-regime case: the witness reaches p and no grid shift of smaller size does."""
    parts = _components(text)

    def check(out: str) -> list[str]:
        _, header, rows = parse_csv(out)
        problems = _shape(header, rows, RATE_COLUMNS, 1)
        if problems:
            return problems
        row = rows[0]
        if row["regime"] != "shift":
            return [f"regime {row['regime']} != shift"]
        cost, x = float(row["i_tilde"]), float(row["x_star"])
        if abs(float(row["i_rate"]) - LOG2 * cost) > 1e-12:
            problems.append(f"i_rate {row['i_rate']} != log 2 * {cost}")
        if abs(abs(x) - cost) > 1e-12:
            problems.append(f"|x_star| {abs(x)} != i_tilde {cost}")
        if _gauss_shifted(parts, np.array([x]))[0] < p - 1e-6:
            problems.append(f"witness x={x} does not reach p={p}")
        steps = np.arange(1e-3, cost - 2e-3, 1e-3)
        grid = np.concatenate([[0.0], steps, -steps])
        if grid.size and _gauss_shifted(parts, grid).max() >= p:
            problems.append(f"a shift smaller than {cost} reaches p={p}")
        return problems
    return check


def _check_clt(grid):
    def check(out: str) -> list[str]:
        _, header, rows = parse_csv(out)
        problems = _shape(header, rows, CLT_COLUMNS, len(grid))
        if problems:
            return problems
        err = {int(r["n"]): float(r["sup_error"]) for r in rows}
        if set(err) != set(grid):
            return ["n column does not follow the grid"]
        if not (err[grid[-1]] < err[grid[0]] and err[grid[-1]] <= 0.05):
            problems.append(f"err({grid[-1]})={err[grid[-1]]} is not below "
                            f"err({grid[0]})={err[grid[0]]} and 0.05")
        return problems
    return check


# -- workloads -------------------------------------------------------------------

def shift_ldp(seed: int) -> list[Invocation]:
    grid = (100, 400, 900)
    argv = ("ldp", "--set", "(-inf,0]", "--p", "0.8", "--law", "2:0.5,3:0.5",
            "--n-grid", ",".join(map(str, grid)), "--replicas", str(SHIFT_REPLICAS),
            "--threads", "2", "--seed", str(seed))
    theory = LOG2 * 0.8416212
    return [Invocation(argv, SHIFT_REPLICAS * len(grid),
                       _check_ldp(grid, theory, 1e-6, slope_bound=0.15))]


def dilation_ldp(seed: int) -> list[Invocation]:
    grid = (60, 120, 240)
    argv = ("ldp", "--set", "[-0.6744897501960817,0.6744897501960817]",
            "--p", "0.9", "--n-grid", ",".join(map(str, grid)),
            "--replicas", str(DILATION_REPLICAS), "--threads", "2",
            "--seed", str(seed))
    return [Invocation(argv, DILATION_REPLICAS * len(grid),
                       _check_ldp(grid, LOG2 * 0.831842, LOG2 * 1e-3))]


def concentration(seed: int) -> list[Invocation]:
    pops = (100, 400, 1600)
    argv = ("probe-concentration", "--replicas", str(CONCENTRATION_REPLICAS),
            "--threads", "2", "--seed", str(seed))
    return [Invocation(argv, CONCENTRATION_REPLICAS * len(pops),
                       _check_concentration(pops, CONCENTRATION_REPLICAS))]


def random_shift_cases(seed: int, count: int) -> list[tuple[str, float]]:
    """Seeded (set, p) cases: a half-line plus one interval, so the shift regime applies.

    Dilation cases are left to the fixed suite: their cost varies tenfold
    between sets, which would make the pass time depend on the seed.
    """
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        a = round(rng.uniform(-2.0, 1.0), 3)
        b = round(a + rng.uniform(0.3, 2.0), 3)
        c = round(b + rng.uniform(0.2, 1.5), 3)
        if rng.random() < 0.5:
            text = f"(-inf,{a}] U [{b},{c}]"
        else:
            text = f"[{-c},{-b}] U [{-a},inf)"
        base = float(_gauss_shifted(_components(text), np.zeros(1))[0])
        p = round(base + (1.0 - base) * rng.uniform(0.1, 0.9), 4)
        cases.append((text, p))
    return cases


def analytic(seed: int) -> list[Invocation]:
    out = [Invocation(("rate", "--set", text, "--p", repr(p)), 1,
                      _check_rate(regime, i_rate, j_rate))
           for text, p, regime, i_rate, j_rate in RATE_SUITE]
    out += [Invocation(("rate", "--set", text, "--p", repr(p)), 1,
                       _check_random_shift(text, p))
            for text, p in random_shift_cases(seed, RANDOM_RATE_CASES)]
    grid = (25, 100, 400)
    out.append(Invocation(("clt-scan", "--set", "(-inf,0]", "--R", "2",
                           "--n-grid", ",".join(map(str, grid))),
                          len(grid), _check_clt(grid)))
    return out


# Name -> invocations of one pass for a seed; BENCHMARK.json says why each exists.
WORKLOADS = {
    "shift-ldp": shift_ldp,
    "dilation-ldp": dilation_ldp,
    "concentration": concentration,
    "analytic": analytic,
}
