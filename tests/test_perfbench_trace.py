"""The benchmark's layer map must still name functions that exist.

`perfbench/layers.py` wraps brwlab functions by name; a renamed or deleted
target would only fail in `perfbench/run.py --trace 1`.  This test installs
the tracer over the targets, runs one traced command, and uninstalls it.
"""

import importlib.util
from pathlib import Path

from brwlab import cli, engine, gaussian, ldp
from brwlab.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_probe(tracer_mod, targets, tmp_path):
    """Span summary of one probe-concentration run with ``targets`` traced."""
    with tracer_mod.Tracer().install(targets) as tracer:
        code = main(["probe-concentration", "--pop-grid", "3", "--n", "2",
                     "--replicas", "5", "--out", str(tmp_path / "out.csv")])
    assert code == 0
    return tracer.summary()


def test_tracer_installs_over_every_layer_target(tmp_path):
    layers, tracer_mod = _load("layers"), _load("tracer")
    names = {name for name, *_ in layers.targets()}
    assert {"engine.step_exact", "engine.sample_total", "gaussian.nu_shifted_grid",
            "gaussian.varphi"} <= names
    originals = (engine.step_exact, engine.BranchingLaw.__dict__["sample_total"],
                 gaussian.varphi, ldp.derive, cli.concentration_probe)
    # as in the benchmark's two traced passes: every target, then only the
    # estimates
    spans = _traced_probe(tracer_mod, layers.targets(), tmp_path)
    assert spans["ldp.estimate"]["calls"] == 1
    assert spans["streams.derive"]["calls"] == 1   # five replicas, one block
    spans = _traced_probe(tracer_mod, layers.estimate_targets(), tmp_path)
    assert set(spans) == {"ldp.estimate"}
    assert (engine.step_exact, engine.BranchingLaw.__dict__["sample_total"],
            gaussian.varphi, ldp.derive, cli.concentration_probe) == originals
