import statistics

import numpy as np
import pytest

from e2e import stats


def test_percentile_matches_linear_interpolation():
    values = list(np.random.default_rng(3).normal(size=57))
    for p in (0, 5, 37.5, 50, 95, 100):
        assert stats.percentile(values, p) == pytest.approx(np.percentile(values, p))


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


@pytest.mark.parametrize(
    "n, expected",
    [(1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0), (100, 90.0),
     (40, 75.0), (20, 50.0), (19, None)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    p = stats.tail_percentile(n)
    assert p == expected
    if p is not None:
        assert stats.samples_beyond(n, p) >= stats.MIN_BEYOND


def test_quartiles_follow_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert stats.quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_summary():
    values = [9.0, 10.0, 10.0, 11.0, 10.5]
    q1, med, q3 = stats.quartiles(values)
    assert stats.summary(values) == {"median": med, "q1": q1, "q3": q3, "n": 5}
