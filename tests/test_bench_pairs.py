"""Verdicts of `tools/bench_pairs.py` on one metric's paired runs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _summary(parent, change, better="lower", bound=0.25):
    runs = {side: [{"metrics": {"wall_s": {"value": v, "unit": "s"}}} for v in values]
            for side, values in (("parent", parent), ("change", change))}
    return bench_pairs.summarize(runs, [{"name": "wall_s", "better": better,
                                         "bound": bound}])["wall_s"]


PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]   # IQR 0.045


@pytest.mark.parametrize("change,better,expected", [
    ([v - 0.2 for v in PARENT], "lower", "gain"),
    ([v + 0.2 for v in PARENT], "higher", "gain"),
    # nine wins of ten, by more than the parent's IQR
    ([v - 0.2 for v in PARENT[:9]] + [2.0], "lower", "gain"),
    # eight wins of ten are not enough
    ([v - 0.2 for v in PARENT[:8]] + [2.0, 2.0], "lower", "within bound"),
    # every pair won, by less than the parent's IQR
    ([v - 0.01 for v in PARENT], "lower", "within bound"),
    ([v * 1.3 for v in PARENT], "lower", "regression"),
    ([v * 0.7 for v in PARENT], "higher", "regression"),
    ([v * 1.2 for v in PARENT], "lower", "within bound"),
])
def test_verdicts(change, better, expected):
    assert _summary(PARENT, change, better)["verdict"] == expected


def test_a_noisy_parent_leaves_a_mixed_change_unresolved():
    parent = [0.6, 0.8, 1.0, 1.2, 1.4, 0.6, 0.8, 1.0, 1.2, 1.4]   # IQR 0.4 of 1.0
    assert _summary(parent, [1.1] * 10)["verdict"] == "unresolved"
    # winning every pair is not enough
    assert _summary(parent, [v - 0.01 for v in parent])["verdict"] == "unresolved"
    # every change run better than every parent run settles it
    assert _summary(parent, [0.59] * 10)["verdict"] == "gain"
    assert _summary(parent, [0.59] * 8 + [2.0] * 2)["verdict"] == "unresolved"
