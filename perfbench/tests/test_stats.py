"""The percentile rule and the spread statistic."""

from __future__ import annotations

import statistics

import pytest

from perfbench.stats import (
    MIN_BEYOND,
    latency_summary,
    percentile,
    quartile_spread,
    tail_percentile,
)


@pytest.mark.parametrize(
    ("n", "expected"),
    [
        (19, None),  # even the median has fewer than ten samples beyond it
        (20, 50.0),
        (99, 50.0),
        (100, 90.0),
        (999, 90.0),
        (1000, 99.0),  # exactly ten beyond p99
        (2029, 99.0),
        (9999, 99.0),
        (10_000, 99.9),
        (25_784, 99.9),
        (100_000, 99.99),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert n * (1 - expected / 100) >= MIN_BEYOND - 1e-9


def test_percentile_matches_linear_interpolation():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50.0) == 3.0
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 100.0) == 5.0
    assert percentile(values, 90.0) == pytest.approx(4.6)


def test_latency_summary_reports_count_and_microseconds():
    samples = [i * 1e-6 for i in range(1, 1001)]  # 1 .. 1000 us
    summary = latency_summary(samples)
    assert summary["samples"] == 1000
    assert summary["tail_pct"] == 99.0
    assert summary["p50_us"] == pytest.approx(500.5)
    assert summary["tail_us"] == pytest.approx(990.01)


def test_latency_summary_too_few_samples_is_zero():
    assert latency_summary([1.0] * 5) == {
        "p50_us": 0.0, "tail_us": 0.0, "tail_pct": 0.0, "samples": 5.0
    }


def test_quartile_spread_uses_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.4]
    q1, med, q3, spread = quartile_spread(values)
    assert (q1, med, q3) == tuple(statistics.quantiles(values, n=4))
    assert spread == pytest.approx((q3 - q1) / med)
