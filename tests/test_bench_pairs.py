"""`tools/bench_pairs.py` applies the pair rule for a claimed gain."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

OLD = [100.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0, 101.0, 99.0]


def test_quartiles_wins_and_the_rule():
    new = [v - 10.0 for v in OLD]
    s = bench_pairs.summary(OLD, new, "lower")
    assert s["old"] == (99.0, 100.0, 101.0)
    assert s["new"] == (89.0, 90.0, 91.0)
    assert (s["wins"], s["ties"], s["pairs"]) == (10, 0, 10)
    assert s["holds"]


def test_nine_wins_of_ten_hold_and_eight_do_not():
    nine = [v - 10.0 for v in OLD[:9]] + [OLD[9] + 1.0]
    assert bench_pairs.summary(OLD, nine, "lower")["holds"]
    eight = [v - 10.0 for v in OLD[:8]] + [OLD[8], OLD[9] + 1.0]
    s = bench_pairs.summary(OLD, eight, "lower")
    assert (s["wins"], s["ties"]) == (8, 1) and not s["holds"]


def test_a_gap_inside_the_old_spread_does_not_hold():
    # Every pair won, but the medians differ by 1.5, less than the old
    # side's interquartile range of 2.
    s = bench_pairs.summary(OLD, [v - 1.5 for v in OLD], "lower")
    assert s["wins"] == 10 and not s["holds"]


def test_higher_is_better_counts_the_other_way():
    s = bench_pairs.summary(OLD, [v + 10.0 for v in OLD], "higher")
    assert s["wins"] == 10 and s["holds"]
    assert bench_pairs.summary(OLD, [v + 10.0 for v in OLD], "lower")["wins"] == 0


def test_report_lists_every_metric():
    rows = {"wall_s": bench_pairs.summary(OLD, [v - 10.0 for v in OLD], "lower")}
    table = bench_pairs.report(rows)
    assert "| wall_s | 99 / 100 / 101 | 89 / 90 / 91 | 10 of 10 | holds |" in table
