"""The summary of ``tools/bench_pairs.py`` on synthetic runs."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import bench_pairs  # noqa: E402

BOUNDS = bench_pairs.load_bounds(ROOT / "BENCHMARK.json")


def runs(workload, parent, change):
    """One run per side and seed; ``parent`` and ``change`` map each
    metric to its values, one per seed."""
    out = []
    for side, values in (("parent", parent), ("change", change)):
        n = len(next(iter(values.values())))
        for seed in range(n):
            metrics = {name: {"value": v[seed], "unit": "s"}
                       for name, v in values.items()}
            out.append({"side": side, "workload": workload, "seed": seed,
                        "final": {"correct": True, "failed": 0,
                                  "metrics": metrics}})
    return out


def verdicts(lines):
    """The verdict of each metric line, by metric name."""
    return {line.split(":")[0].strip(): line.rsplit(", ", 1)[1]
            for line in lines if line.startswith("  ")}


STEADY = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
# quartile spread about 40% of the median, wider than a 25% bound
NOISY = [0.8, 1.2, 0.7, 1.3, 1.0, 0.9, 1.1, 0.75, 1.25, 1.0]


def test_bounds_come_from_the_benchmark_file():
    assert BOUNDS["wall_s"]["bound"] == 0.25
    assert BOUNDS["peak_rss_mb"]["bound"] == 0.1
    assert all(m["better"] == "lower" for m in BOUNDS.values())


def test_each_metric_gets_a_verdict():
    parent = {"setup_s": STEADY, "wall_s": STEADY,
              "stable_p90_ms": NOISY, "peak_rss_mb": STEADY}
    change = {"setup_s": [v * 1.1 for v in STEADY],
              "wall_s": [v * 1.3 for v in STEADY],
              "stable_p90_ms": NOISY[::-1],
              "peak_rss_mb": [v * 0.5 for v in STEADY]}
    lines = bench_pairs.summarize(runs("w", parent, change), BOUNDS)
    assert lines[0] == ("w: 10 pairs, all correct: True, "
                        "failed parent/change: 0/0")
    assert verdicts(lines) == {
        "setup_s": "within bound (25%)",
        "wall_s": "worse than bound (25%)",
        "stable_p90_ms": "unresolved (25%)",
        "peak_rss_mb": "within bound (10%)",
    }


def test_a_wide_parent_spread_resolves_when_every_change_run_wins():
    wins = [v * 0.5 for v in STEADY]
    assert max(wins) < min(NOISY)
    assert bench_pairs.verdict(NOISY, wins, 0.25, "lower") == "within bound"
    # one change run slower than the fastest parent run leaves it open
    assert bench_pairs.verdict(
        NOISY, wins[:-1] + [0.75], 0.25, "lower") == "unresolved"


def test_higher_is_better_reverses_the_sides():
    assert bench_pairs.verdict(
        STEADY, [v * 0.7 for v in STEADY], 0.25, "higher"
    ) == "worse than bound"
    assert bench_pairs.verdict(
        STEADY, [v * 1.3 for v in STEADY], 0.25, "higher"
    ) == "within bound"


def test_detail_seconds_are_summarized_by_median():
    out = runs("w", {"wall_s": STEADY}, {"wall_s": STEADY})
    for r in out:
        r["seconds"] = {"pathway_s": 0.2 if r["side"] == "parent" else 0.05}
    lines = bench_pairs.summarize(out, BOUNDS)
    assert lines[-1] == "  detail.pathway_s: parent 0.2 -> change 0.05"
