"""`tools/bench_pairs.py` applies the pair rule for a claimed gain and the
no-regression rule of each end-to-end metric."""

import bench_pairs

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


def test_a_median_worse_by_more_than_the_bound_is_worse():
    # The old median is 100 and the bound a quarter of it.
    assert bench_pairs.summary(OLD, [v + 30.0 for v in OLD], "lower", 0.25)["regression"] == "worse"
    assert bench_pairs.summary(OLD, [v + 20.0 for v in OLD], "lower", 0.25)["regression"] == "no worse"
    assert bench_pairs.summary(OLD, [v - 30.0 for v in OLD], "higher", 0.25)["regression"] == "worse"
    assert bench_pairs.summary(OLD, [v + 30.0 for v in OLD], "higher", 0.25)["regression"] == "no worse"


def test_an_old_spread_wider_than_the_bound_is_unresolved():
    # The old interquartile range is 2 % of its median, twice the bound.
    assert bench_pairs.summary(OLD, OLD, "lower", 0.01)["regression"] == "unresolved"
    # unless every new run beats every old run ...
    assert bench_pairs.summary(OLD, [v - 10.0 for v in OLD], "lower", 0.01)["regression"] == "no worse"
    one_slow = [v - 10.0 for v in OLD[:9]] + [OLD[9]]
    assert bench_pairs.summary(OLD, one_slow, "lower", 0.01)["regression"] == "unresolved"
    # ... and a median worse by more than the bound is worse all the same.
    assert bench_pairs.summary(OLD, [v + 5.0 for v in OLD], "lower", 0.01)["regression"] == "worse"


def test_report_gives_the_regression_verdict_of_end_to_end_metrics_only():
    rows = {"wall_s": bench_pairs.summary(OLD, OLD, "lower", 0.25),
            "simulation.steps": bench_pairs.summary(OLD, OLD, "lower")}
    table = bench_pairs.report(rows)
    assert "| wall_s | 99 / 100 / 101 | 99 / 100 / 101 | 0 of 10 (10 ties) | no | no worse |" in table
    assert "| simulation.steps | 99 / 100 / 101 | 99 / 100 / 101 | 0 of 10 (10 ties) | no | - |" in table
