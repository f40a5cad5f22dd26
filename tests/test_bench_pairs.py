"""tools/bench_pairs.py reads paired runs as the gain rule does: wins per pair,
medians, and the gap against the base runs' interquartile range; and as the
no-regression rule does: the change's median against the base median and a
relative bound."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def runs(values):
    """Fake run results with wall_s as given and calib.speed (higher is better) as its reciprocal."""
    return [{"correct": True, "failed": 0, "attempted": 10,
             "metrics": {"wall_s": {"value": v, "unit": "s"}, "calib.speed": {"value": 1.0 / v, "unit": "ratio"}}}
            for v in values]


def test_spread_is_median_and_quartiles():
    assert bench_pairs.spread([4.0, 1.0, 3.0, 2.0, 5.0]) == (3.0, 2.0, 4.0)
    assert bench_pairs.spread([2.0]) == (2.0, 2.0, 2.0)


def test_report_counts_wins_in_each_metric_direction(capsys):
    base = [1.00, 1.02, 0.98, 1.01, 0.99]
    change = [0.90, 1.03, 0.91, 0.92, 0.89]  # one pair lost
    bench_pairs.report("w", {"base": runs(base), "change": runs(change)},
                       {"wall_s": "lower", "calib.speed": "higher"})
    lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()[3:]}
    assert lines["wall_s"].split()[-2:] == ["4/5", "yes"]
    # 1/wall is higher for the change in the same pairs
    assert lines["calib.speed"].split()[-2:] == ["4/5", "yes"]


def test_a_gap_inside_the_base_spread_is_not_a_gain(capsys):
    bench_pairs.report("w", {"base": runs([1.0, 1.2, 0.8, 1.1]), "change": runs([0.99, 1.19, 0.79, 1.09])},
                       {"wall_s": "lower"})
    line = next(line for line in capsys.readouterr().out.splitlines() if line.split()[0] == "wall_s")
    assert line.split()[-2:] == ["4/4", "no"]


def test_better_directions_read_the_benchmark_file():
    directions = bench_pairs.better_directions(str(Path(__file__).resolve().parents[1]))
    assert directions["wall_s"] == "lower" and directions["calib.speed"] == "higher"


def test_bound_column_applies_the_no_regression_rule(capsys):
    # the change's wall_s median is 10% worse: inside a 25% bound, outside a 5% one
    base, change = [1.0, 1.0, 1.0], [1.1, 1.1, 1.1]
    for bound, verdict in ((0.25, "yes"), (0.05, "no")):
        bench_pairs.report("w", {"base": runs(base), "change": runs(change)},
                           {"wall_s": "lower", "calib.speed": "higher"}, {"wall_s": bound, "calib.speed": bound})
        lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()[3:]}
        # 1/wall is about 9% lower, worse in its own direction
        assert lines["wall_s"].split()[-3] == lines["calib.speed"].split()[-3] == verdict
    bench_pairs.report("w", {"base": runs(base), "change": runs(change)}, {"wall_s": "lower"})
    line = next(line for line in capsys.readouterr().out.splitlines() if line.split()[0] == "wall_s")
    assert line.split()[-3] == "-"


def test_bounds_read_the_benchmark_file():
    bounds = bench_pairs.relative_bounds(str(Path(__file__).resolve().parents[1]))
    assert bounds["wall_s"] == 0.25 and bounds["peak_rss_mb"] == 0.05
    assert "calib.speed" not in bounds
