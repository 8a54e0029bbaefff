"""``tools/bench_pairs.py summarize`` on synthetic pairs of runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PASS_S = {"name": "pass_s", "better": "lower", "bound": 0.25}


def pairs(base, change, name="pass_s"):
    return [({"metrics": {name: b}}, {"metrics": {name: c}})
            for b, c in zip(base, change)]


BASE = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


def test_claim_met():
    s = bench_pairs.summarize(pairs(BASE, [b - 0.2 for b in BASE]), PASS_S)
    assert s["pairs"] == 10 and s["change_better_pairs"] == 10
    assert s["median_gap"] == pytest.approx(0.2)
    assert s["claim_met"] and s["regression"] == "none"


def test_claim_not_met_in_eight_of_ten_pairs():
    change = [b - 0.2 for b in BASE[:8]] + [b + 0.01 for b in BASE[8:]]
    s = bench_pairs.summarize(pairs(BASE, change), PASS_S)
    assert s["change_better_pairs"] == 8
    assert not s["claim_met"] and s["regression"] == "none"


def test_claim_not_met_when_gap_within_base_spread():
    s = bench_pairs.summarize(pairs(BASE, [b - 0.01 for b in BASE]), PASS_S)
    assert s["change_better_pairs"] == 10 and s["median_gap"] < s["base_iqr"]
    assert not s["claim_met"]


def test_worse_past_the_bound():
    s = bench_pairs.summarize(pairs(BASE, [1.4 * b for b in BASE]), PASS_S)
    assert s["regression"] == "worse" and not s["claim_met"]
    # within the bound, a slower change is not a regression
    s = bench_pairs.summarize(pairs(BASE, [1.2 * b for b in BASE]), PASS_S)
    assert s["regression"] == "none"


def test_worse_for_higher_is_better():
    rate = {"name": "rate", "better": "higher", "bound": 0.1}
    s = bench_pairs.summarize(pairs(BASE, [0.8 * b for b in BASE], "rate"),
                              rate)
    assert s["regression"] == "worse"
    assert s["median_gap"] < 0 and s["change_better_pairs"] == 0


def test_unresolved_when_base_spread_exceeds_the_bound():
    wide = [0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5]
    s = bench_pairs.summarize(pairs(wide, wide[::-1]), PASS_S)
    assert s["base_iqr"] > 0.25 * s["base"]["median"]
    assert s["regression"] == "unresolved"
    # unless every change run beats every base run
    s = bench_pairs.summarize(pairs(wide, [0.5 * b for b in wide]), PASS_S)
    assert s["regression"] == "unresolved"
    s = bench_pairs.summarize(pairs(wide, [0.1 * b for b in wide]), PASS_S)
    assert s["regression"] == "none"


def test_unfinished_runs_and_unbounded_metrics():
    runs = pairs(BASE, BASE)
    runs[3] = ({"error": "exit 1"}, runs[3][1])
    s = bench_pairs.summarize(runs, {"name": "pass_s", "better": "lower"})
    assert s["pairs"] == 9 and "regression" not in s
    assert bench_pairs.summarize(runs[:1], PASS_S) == {"pairs": 1}
