"""Verdicts of `tools/bench_pairs.py` on one metric's paired runs, and the
bytecode state its runs start in."""

import importlib.util
import shutil
import subprocess
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


def test_every_run_has_a_fresh_cache_without_the_tree_bytecode(tmp_path, monkeypatch):
    # one tree's stale or valid .pyc files must not reach its runs, and
    # what one run caches must not reach the next
    tree = tmp_path / "tree"
    tree.mkdir()
    mirror = Path(*tree.resolve().parts[1:])
    runs = []

    def fake_run(argv, cwd, env, **kwargs):
        cache = Path(env["PYTHONPYCACHEPREFIX"])
        if "perfbench/run.py" not in argv:
            # the warm-up: it caches everything it imports, the tree's modules too
            assert "PYTHONDONTWRITEBYTECODE" not in env
            assert not any(cache.iterdir())
            (cache / mirror / "src" / "brwlab").mkdir(parents=True)
            (cache / mirror / "src" / "brwlab" / "rates.pyc").write_bytes(b"")
            (cache / "numpy.pyc").write_bytes(b"")
            return subprocess.CompletedProcess(argv, 0)
        assert env.get("PYTHONDONTWRITEBYTECODE") == "1"
        assert (cache / "numpy.pyc").exists() and not (cache / mirror).exists()
        runs.append(cache)
        return subprocess.CompletedProcess(argv, 0, stdout='{"metrics": {}}\n')

    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    for _ in range(2):
        assert bench_pairs.run_once(tree, "analytic", 1, 1.0) == {"metrics": {}}
    assert len(set(runs)) == 2 and not any(cache.exists() for cache in runs)


def test_a_tree_without_git_is_named_by_its_sources(tmp_path):
    # the BENCH file names the code it measured even where git cannot
    repo = TOOL.parent.parent
    trees = [tmp_path / "a", tmp_path / "b"]
    for tree in trees:
        for top in ("src", "perfbench"):
            shutil.copytree(repo / top, tree / top,
                            ignore=shutil.ignore_patterns("__pycache__"))
    digest = bench_pairs.sources_digest(trees[0])
    assert len(digest) == 64 and not (trees[0] / ".git").exists()
    assert bench_pairs.commit_of(trees[0]).endswith(f"sha256:{digest}")
    assert bench_pairs.sources_digest(trees[1]) == digest
    engine = trees[1] / "src" / "brwlab" / "engine.py"
    text = bytearray(engine.read_bytes())
    text[-1] ^= 1   # one edited byte
    engine.write_bytes(bytes(text))
    assert bench_pairs.sources_digest(trees[1]) != digest
