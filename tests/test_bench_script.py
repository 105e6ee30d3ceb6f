"""scripts/bench.py's summary: quartiles per side, the gain rule, the
no-regression verdict and the lines printed from them."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"
_spec = importlib.util.spec_from_file_location("bench", _PATH)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

METRICS = {"items_per_s": {"better": "higher", "bound": 0.25},
           "op_p50_ms": {"better": "lower", "bound": 0.25}}


def _runs(parent: list[float], change: list[float]) -> list[dict]:
    out = []
    for pair, values in enumerate(zip(parent, change)):
        for side, value in zip(bench.SIDES, values):
            out.append({"workload": "w", "pair": pair, "side": side,
                        "failed": 0,
                        "metrics": {"items_per_s": value,
                                    "op_p50_ms": 1000 / value}})
    return out


def test_quartiles_of_one_and_of_many():
    assert bench.quartiles([3.0]) == {"q1": 3.0, "median": 3.0, "q3": 3.0}
    assert bench.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == {
        "q1": 2.0, "median": 3.0, "q3": 4.0}


def test_gain_rule_follows_each_metrics_direction():
    parent = [100.0 + i for i in range(10)]
    change = [120.0 + i for i in range(10)]
    change[3] = 90.0          # one lost pair of ten still meets 9/10
    rows = bench.summarize(_runs(parent, change), METRICS)["w"]
    assert rows["pairs"] == 10
    for name in METRICS:
        assert rows[name]["change_wins"] == 9
        assert rows[name]["gain_rule_holds"]
    assert rows["items_per_s"]["change_over_parent"] == pytest.approx(
        rows["items_per_s"]["change"]["median"] / 104.5)


def test_gain_rule_needs_nine_tenths_and_a_gap_beyond_the_spread():
    parent = [100.0 + i for i in range(10)]
    two_lost = [120.0 + i for i in range(10)]
    two_lost[3] = two_lost[4] = 90.0
    assert not bench.summarize(_runs(parent, two_lost),
                               METRICS)["w"]["items_per_s"]["gain_rule_holds"]
    # wins every pair, but by less than the parent's interquartile range
    narrow = [p + 1 for p in parent]
    rows = bench.summarize(_runs(parent, narrow), METRICS)["w"]
    assert rows["items_per_s"]["change_wins"] == 10
    assert not rows["items_per_s"]["gain_rule_holds"]


def test_unfinished_pair_is_left_out():
    runs = _runs([100.0, 101.0], [120.0, 121.0])[:-1]
    assert bench.summarize(runs, METRICS)["w"]["pairs"] == 1


@pytest.mark.parametrize("change,verdict", [
    # 15% fewer items per second, 18% more time per operation
    ([85.0 + i * 0.85 for i in range(10)], "ok"),
    ([150.0 + i for i in range(10)], "ok"),
    # 30% fewer items per second, 43% more time per operation
    ([70.0 + i * 0.7 for i in range(10)], "worse")],
    ids=["within-bound", "better", "past-bound"])
def test_no_regression_against_a_narrow_parent(change, verdict):
    parent = [100.0 + i for i in range(10)]
    rows = bench.summarize(_runs(parent, change), METRICS)["w"]
    for name in METRICS:
        assert rows[name]["no_regression"] == verdict


def test_no_regression_is_unresolved_past_a_wide_parent_spread():
    # the parent's interquartile range is 40% of its median
    parent = [60.0, 80.0, 100.0, 120.0, 140.0] * 2
    level = [p + 1 for p in parent]
    rows = bench.summarize(_runs(parent, level), METRICS)["w"]
    assert rows["items_per_s"]["no_regression"] == "unresolved"
    # unless every change run beats every parent run
    ahead = [200.0 + i for i in range(10)]
    rows = bench.summarize(_runs(parent, ahead), METRICS)["w"]
    for name in METRICS:
        assert rows[name]["no_regression"] == "ok"


def test_summary_lines_read_off_each_metric():
    parent = [100.0 + i for i in range(10)]
    change = [120.0 + i for i in range(10)]
    change[3] = 90.0
    summary = bench.summarize(_runs(parent, change), METRICS)
    assert bench.summary_lines(summary, METRICS) == [
        "w items_per_s: 104.5 [102.2-106.8] -> 124.5 [121.2-126.8], "
        "wins 9/10, gain rule holds, no regression ok",
        "w op_p50_ms: 9.57 [9.368-9.78] -> 8.032 [7.89-8.248], "
        "wins 9/10, gain rule holds, no regression ok"]


def test_summary_lines_skip_a_metric_no_run_reported():
    summary = bench.summarize(_runs([100.0, 101.0], [99.0, 98.0]), METRICS)
    del summary["w"]["op_p50_ms"]
    metrics = {**METRICS, "setup_s": {"better": "lower", "bound": 0.25}}
    assert bench.summary_lines(summary, metrics) == [
        "w items_per_s: 100.5 [100.2-100.8] -> 98.5 [98.25-98.75], "
        "wins 0/2, gain rule fails, no regression ok"]
