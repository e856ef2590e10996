"""``ordered_sum``: the left-to-right float sum simulated decisions use."""

import math

from repro.sim.sums import ordered_sum


def test_adds_left_to_right_where_fsum_differs():
    values = [1e16, 1.0, -1e16]
    # 1e16 + 1.0 rounds back to 1e16, so left-to-right addition loses the
    # 1.0 that an exact (or, on Python 3.12, the built-in) sum keeps.
    assert math.fsum(values) == 1.0
    assert ordered_sum(values) == 0.0


def test_empty_sum_is_integer_zero_like_sum():
    assert ordered_sum([]) == 0 and isinstance(ordered_sum([]), int)
