"""Layer map: which brwlab functions the tracer wraps, and the per-layer metrics.

Layers are the modules: cli, ldp, engine, streams, rates, gaussian, intervals.
Every function the CLI calls in another layer on the four workloads is
wrapped, so that the self time of ``cli.main`` is the CLI's own parsing,
dispatch and CSV emit.

``.calls`` and the derived counts (generations, grid points) come from spans,
arguments and return values, never from timers, so they repeat exactly for a
given seed.  ``.s`` are busy seconds in the traced pass at ``--threads 1``.
"""

from __future__ import annotations

import inspect

METRICS = [   # (name, unit), by layer from the outside in
    ("cli.self_s", "s"),
    ("ldp.estimate.s", "s"),
    ("ldp.pool_overhead_s", "s"),
    ("engine.evolve.calls", "count"),
    ("engine.evolve.s", "s"),
    ("engine.step_exact.calls", "count"),
    ("engine.step_exact.s", "s"),
    ("engine.sample_total.calls", "count"),
    ("engine.sample_total.s", "s"),
    ("engine.exact_generations", "count"),
    ("engine.vector_generations", "count"),
    ("engine.vector_us_per_gen", "us"),
    ("streams.derive.calls", "count"),
    ("streams.derive.s", "s"),
    ("rates.classify.calls", "count"),
    ("rates.classify.s", "s"),
    ("rates.i_tilde.calls", "count"),
    ("rates.i_tilde.s", "s"),
    ("rates.j_tilde.calls", "count"),
    ("rates.j_tilde.s", "s"),
    ("gaussian.nu.calls", "count"),
    ("gaussian.nu.s", "s"),
    ("gaussian.nu_shifted_grid.calls", "count"),
    ("gaussian.nu_shifted_grid.points", "count"),
    ("gaussian.nu_shifted_grid.s", "s"),
    ("gaussian.nu_n_of_set.calls", "count"),
    ("gaussian.nu_n_of_set.s", "s"),
    ("gaussian.varphi.calls", "count"),
    ("intervals.shift.calls", "count"),
    ("intervals.shift.s", "s"),
    ("intervals.scale.calls", "count"),
]
UNITS = dict(METRICS)
# Counts derived from arguments and return values rather than from spans.
DERIVED_COUNTS = ("engine.exact_generations", "engine.vector_generations",
                  "gaussian.nu_shifted_grid.points")


def _generation_counter(evolve):
    """Hook adding the exact and vector generations of one evolve call.

    They follow from n, mode and switched_at: hybrid runs are exact up to
    switched_at (all n when it is None), aggregated runs are vector throughout.
    """
    signature = inspect.signature(evolve)

    def count(tracer, args, kwargs, result) -> None:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        n, mode = bound.arguments["n"], bound.arguments["mode"]
        if mode == "aggregated":
            exact = 0
        elif result.switched_at is None:
            exact = n
        else:
            exact = result.switched_at
        tracer.count("engine.exact_generations", exact)
        tracer.count("engine.vector_generations", n - exact)
    return count


def _count_points(tracer, args, kwargs, result) -> None:
    tracer.count("gaussian.nu_shifted_grid.points", result.size)


def estimate_targets():
    """Only the Monte-Carlo estimates, which run in the main process at any --threads."""
    from brwlab import cli, ldp
    return [("ldp.estimate", ldp, "conditional_success_estimate", None),
            ("ldp.estimate", cli, "concentration_probe", None)]


def targets():
    """(span name, owner, attribute, count hook) for every traced function."""
    from brwlab import cli, engine, gaussian, intervals, ldp, rates, streams
    return [
        ("cli.main", cli, "main", None),
        ("ldp.ldp_lower_bound", ldp, "ldp_lower_bound", None),
        ("ldp.rate_fit", ldp, "rate_fit", None),
        ("ldp.make", ldp.StrategySpec, "make", None),
        *estimate_targets(),
        ("engine.parse", engine.BranchingLaw, "parse", None),
        ("engine.evolve", engine, "evolve", _generation_counter(engine.evolve)),
        ("engine.step_exact", engine, "step_exact", None),
        ("engine.sample_total", engine.BranchingLaw, "sample_total", None),
        ("streams.derive", streams, "derive", None),
        ("rates.classify", rates, "classify", None),
        ("rates.i_tilde", rates, "i_tilde", None),
        ("rates.j_tilde", rates, "j_tilde", None),
        ("gaussian.nu", gaussian, "nu", None),
        ("gaussian.varphi", gaussian, "varphi", None),
        ("gaussian.nu_shifted_grid", gaussian, "nu_shifted_grid", _count_points),
        ("gaussian.nu_n_of_set", gaussian, "nu_n_of_set", None),
        ("gaussian.clt_uniformity_scan", gaussian, "clt_uniformity_scan", None),
        ("intervals.parse_set", intervals, "parse_set", None),
        ("intervals.shift", intervals.IntervalSet, "shift", None),
        ("intervals.scale", intervals.IntervalSet, "scale", None),
    ]


def layer_metrics(tracer, estimate_wall_t2: float) -> dict[str, tuple[float, int]]:
    """Every per-layer metric as (value, samples) from one traced pass.

    ``ldp.pool_overhead_s`` is the estimate wall at --threads 2 minus half the
    evolve busy time at --threads 1: pool start-up plus load imbalance.
    """
    spans = tracer.summary()

    def span(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0)

    out: dict[str, float] = {}
    for name in UNITS:
        prefix, field = name.rsplit(".", 1)
        if field in ("calls", "s"):
            out[name] = span(prefix, field)
    out.update({key: tracer.counts.get(key, 0) for key in DERIVED_COUNTS})
    out["cli.self_s"] = span("cli.main", "self_s")
    out["ldp.pool_overhead_s"] = estimate_wall_t2 - 0.5 * out["engine.evolve.s"]
    vector = out["engine.vector_generations"]
    out["engine.vector_us_per_gen"] = (
        1e6 * (out["engine.evolve.s"] - out["engine.step_exact.s"]) / vector
        if vector else 0.0)
    return {name: (out[name], 1) for name in UNITS}
