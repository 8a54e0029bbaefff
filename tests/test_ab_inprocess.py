"""``tools/ab_inprocess.py`` on two imports of this tree."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

import anonflow.worldgen

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def ab_inprocess(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))   # for bench_pairs
    spec = importlib.util.spec_from_file_location(
        "ab_inprocess", ROOT / "tools" / "ab_inprocess.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_tree_is_imported_afresh(ab_inprocess):
    modules = dict(sys.modules)
    a = ab_inprocess.import_tree(ROOT / "src")
    b = ab_inprocess.import_tree(ROOT / "src")
    assert a.worldgen is not b.worldgen
    assert anonflow.worldgen not in (a.worldgen, b.worldgen)
    assert a.worldgen.load_dataset.__globals__ is vars(a.worldgen)
    assert dict(sys.modules) == modules


def test_compare_times_each_side(ab_inprocess):
    result = ab_inprocess.compare(
        {"base": ROOT / "src", "change": ROOT / "src"},
        setup="assert work.is_dir()\nx = 1.5",
        stmt="anonflow.worldgen._round9(x)", repeats=4)
    assert [len(result["samples_ms"][s]) for s in ("base", "change")] == [4, 4]
    assert result["base_ms"] > 0 and result["change_ms"] > 0
    assert math.isfinite(result["paired_over_base"])
