import math
import statistics

import pytest

from benchmarks.perf import stats


def test_percentile_is_nearest_rank():
    samples = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert stats.percentile(samples, 50) == 3.0
    assert stats.percentile(samples, 0) == 1.0
    assert stats.percentile(samples, 100) == 5.0
    assert stats.percentile(samples, 95) == 5.0
    assert stats.percentile(list(range(1, 101)), 95) == 95
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_failed_operations_count_as_infinite_latency():
    samples = [0.1] * 18 + [math.inf] * 2
    assert stats.percentile(samples, 50) == 0.1
    assert stats.percentile(samples, 95) == math.inf


def test_pooling_is_over_samples_not_over_process_medians():
    groups = [[1.0, 1.0, 1.0, 1.0], [9.0]]
    assert stats.percentile(stats.pooled(groups), 50) == 1.0
    assert stats.floor_time(stats.pooled(groups)) == 1.0


def test_spread_matches_the_drivers_definition():
    values = [1.0, 1.1, 0.9, 1.05, 0.95, 1.2, 1.0, 0.98, 1.02, 1.01]
    q = statistics.quantiles(values, n=4)
    assert stats.spread(values) == (q[2] - q[0]) / statistics.median(values)
    assert stats.quartiles([2.0]) == [2.0, 2.0, 2.0]
    assert stats.max_pairwise_diff([1.0, 1.5, 1.2]) == 0.5


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert stats.summarize([1.0] * 50)["tail_percentile"] is None
    assert stats.summarize([1.0] * 100)["tail_percentile"] == 90
    assert stats.summarize([1.0] * 240)["tail_percentile"] == 95
    assert stats.summarize([1.0] * 1000)["tail_percentile"] == 99
