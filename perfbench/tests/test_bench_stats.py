"""The tail helper picks the highest percentile with ten samples beyond it."""

import pytest
import stats


@pytest.mark.parametrize(
    "n, percentile",
    [(21, 50.0), (40, 50.0), (41, 75.0), (100, 75.0), (101, 90.0), (200, 90.0),
     (201, 95.0), (1000, 95.0), (1001, 99.0), (10001, 99.9)],
)
def test_tail_picks_highest_percentile_with_ten_beyond(n, percentile):
    values = [float(i) for i in range(n)]
    pct, value, beyond = stats.tail(values[::-1])
    assert pct == percentile
    assert beyond == sum(v > value for v in values)
    assert beyond >= stats.MIN_BEYOND
    higher = [p / 10.0 for p in stats.TAIL_LADDER_TENTHS if p / 10.0 > percentile]
    for p in higher:
        v = stats.order_statistic(sorted(values), int(p * 10))
        assert sum(x > v for x in values) < stats.MIN_BEYOND


def test_tail_counts_only_samples_strictly_beyond():
    values = [1.0] * 30 + [2.0] * 9
    pct, value, beyond = stats.tail(values)
    assert (pct, value, beyond) == (50.0, 1.0, 9)


def test_tail_falls_back_to_median_when_samples_are_few():
    pct, value, beyond = stats.tail([3.0, 1.0, 2.0])
    assert (pct, value, beyond) == (50.0, 2.0, 1)


def test_order_statistic_takes_upper_neighbour():
    assert stats.order_statistic([1.0, 2.0, 3.0, 4.0], 500) == 3.0
