"""The data rows of the estimating commands against their digests in
`ROWS.json`, written by `tools/row_digests.py`."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from brwlab import __version__, cli, ldp

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("row_digests", ROOT / "tools" / "row_digests.py")
row_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(row_digests)

RECORDED = json.loads((ROOT / "ROWS.json").read_text())[__version__]


def test_rows_json_records_every_group_seed_and_thread_count():
    # the record covers what the tool runs, under the numpy it ran
    assert set(RECORDED["groups"]) == set(row_digests.GROUPS)
    assert RECORDED["seeds"] == [1, 11, 12, 13, 14, 15]
    assert RECORDED["threads"] == [1, 2, 3]
    assert RECORDED["numpy"].count(".") == 2
    for name, group in RECORDED["groups"].items():
        assert group["argv"] == row_digests.GROUPS[name]
        assert sorted(group["sha256"], key=int) == [str(s) for s in RECORDED["seeds"]]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("group", sorted(row_digests.GROUPS))
def test_rows_equal_their_recorded_digests(group, threads, monkeypatch):
    # seed 1 of each group, its runs cut for one process and for two; the
    # tool checks every seed at --threads 1, 2 and 3
    monkeypatch.setattr(ldp, "_usable_cores", lambda: 2)
    got = row_digests.digest(cli, row_digests.GROUPS[group], 1, threads)
    assert got == RECORDED["groups"][group]["sha256"]["1"], (
        f"recorded under numpy {RECORDED['numpy']}, run under numpy {np.__version__}")
