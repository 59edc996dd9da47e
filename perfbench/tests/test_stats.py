"""Percentile arithmetic."""

import math

import pytest

from perfbench.stats import percentile, windowed_percentile


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0


def test_weighted_percentile_counts_each_call_per_arrival():
    # One slow call that decided 64 arrivals outweighs 36 fast single ones.
    values, weights = [1.0] * 36 + [9.0], [1] * 36 + [64]
    assert percentile(values, 36, weights) == 1.0
    assert percentile(values, 37, weights) == 9.0
    assert percentile(values, 50, weights) == 9.0
    expanded = [1.0] * 36 + [9.0] * 64
    for q in (1, 25, 36, 37, 50, 99, 100):
        assert percentile(values, q, weights) == percentile(expanded, q)


def test_failed_replies_sort_above_every_latency():
    latencies = [1.0] * 98 + [math.inf, math.inf]
    assert percentile(latencies, 98) == 1.0
    assert percentile(latencies, 99) == math.inf


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_windowed_percentile_is_the_median_of_repetition_percentiles():
    # Each repetition: its calls' latencies and how many arrivals each decided.
    # Their p99s are 9 (the 64th of 64 arrivals), 8 and 40; the median is 9,
    # while the pooled p99 is set by the one slow repetition.
    reps = [([3.0, 9.0], [63, 1]), ([3.0, 8.0], [60, 4]), ([30.0, 40.0], [1, 1])]
    assert windowed_percentile(reps, 99) == 9.0
    pooled = [v for values, _ in reps for v in values]
    weights = [w for _, ws in reps for w in ws]
    assert percentile(pooled, 99, weights) == 30.0
    with pytest.raises(ValueError):
        windowed_percentile([], 99)
