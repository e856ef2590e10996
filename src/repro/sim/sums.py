"""Left-to-right float sums for simulated decisions.

Python 3.12's built-in :func:`sum` compensates float rounding (Neumaier
summation); 3.10 and 3.11 add left to right.  A sum that steers a simulated
decision — the migration interval length Sentinel picks, a baseline's
prefetch lead, a genetic search's fitness — must come out the same, bit for
bit, on every interpreter the golden corpus replays on, so those sites add
with :func:`ordered_sum`.  :func:`math.fsum` is no substitute: it rounds
once, exactly, and so changes the bits the corpus pins.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["ordered_sum"]


def ordered_sum(values: Iterable[float]) -> float:
    """``0 + v0 + v1 + ...``, added strictly left to right.

    Equal, bit for bit, to the built-in :func:`sum` of Python 3.10 and 3.11,
    including its integer ``0`` for an empty input.
    """
    total = 0
    for value in values:
        total += value
    return total
