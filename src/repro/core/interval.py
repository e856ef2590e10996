"""The migration-interval performance model (paper §IV-D, Eq. 1 and 2).

A training step is partitioned into equal-length intervals of whole layers.
At each interval's start Sentinel prefetches the long-lived tensors the
*next* interval needs, overlapping the copies with computation.  The
interval length ``MIL`` trades two failure modes:

* too long — the tensors to migrate for one interval exceed what fast
  memory can hold alongside the short-lived reservation ``RS``
  (**space constraint**, Eq. 1)::

      Tensor(MIL) < S - RS(MIL)

* too short — the computation time ``T(MIL)`` of an interval is too small
  to hide the migration, exposing copy time on the critical path
  (**goal**, Eq. 2)::

      argmin_MIL ( migration_time(MIL) - T(MIL) )

The exploration is a pure function of the profile (no training steps are
spent), which is why a one-dimensional scan suffices where SwapAdvisor
needs a genetic algorithm.

One refinement over the paper's notation: Eq. 2's migration time is written
there as ``(S - RS)/BW`` (the worst case of filling all available fast
memory); the realized demand per interval is ``Tensor_i/BW``.  We score
each candidate by its worst-interval *exposed* time
``max(0, Tensor_i/BW - T_{i-1})`` — the quantity Eq. 2 minimizes — which
yields the interior optimum of Figure 5 instead of degenerating to "largest
feasible MIL".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.profile import Profile
from repro.sim.sums import ordered_sum


def partition_layers(num_layers: int, interval_length: int) -> List[List[int]]:
    """Split ``range(num_layers)`` into consecutive chunks of ``interval_length``."""
    if num_layers <= 0:
        raise ValueError(f"need at least one layer, got {num_layers!r}")
    if interval_length <= 0:
        raise ValueError(f"interval length must be positive, got {interval_length!r}")
    layers = list(range(num_layers))
    return [
        layers[start : start + interval_length]
        for start in range(0, num_layers, interval_length)
    ]


@dataclass
class IntervalPlan:
    """The chosen partition of a step into migration intervals."""

    interval_length: int
    intervals: List[List[int]]
    reserved_short_bytes: int
    #: per-interval long-lived migration demand (bytes)
    tensor_bytes: List[int]
    #: per-interval computation time estimate (operands in fast memory)
    fast_times: List[float]
    #: model's estimate of per-step exposed migration time
    estimated_exposure: float
    feasible: bool

    @property
    def num_intervals(self) -> int:
        return len(self.intervals)

    def interval_of_layer(self, layer_index: int) -> int:
        return layer_index // self.interval_length

    def layers_of(self, interval_index: int) -> List[int]:
        return self.intervals[interval_index]


def evaluate_interval_length(
    profile: Profile,
    interval_length: int,
    fast_capacity: int,
    promote_bandwidth: float,
) -> IntervalPlan:
    """Score one candidate MIL against Eq. 1 and Eq. 2.

    ``Tensor_i`` and ``RS`` for all intervals of the candidate come at once
    from the profile's :class:`~repro.core.profile.PlanIndex`.
    """
    intervals = partition_layers(profile.num_layers, interval_length)
    index = profile.plan_index()
    rs = index.interval_rs(interval_length)
    tensor_bytes = index.interval_tensor_bytes(interval_length)
    layer_fast_times = profile.layer_fast_times
    fast_times = [
        ordered_sum(layer_fast_times[interval[0] : interval[-1] + 1])
        for interval in intervals
    ]

    available = fast_capacity - rs
    feasible = available > 0 and all(t < available for t in tensor_bytes)

    # Prefetch for interval i runs during interval i-1; the first interval
    # has no predecessor to hide behind, so its demand is fully exposed.
    exposure = tensor_bytes[0] / promote_bandwidth if tensor_bytes else 0.0
    for i in range(1, len(intervals)):
        migration_time = tensor_bytes[i] / promote_bandwidth
        exposure += max(0.0, migration_time - fast_times[i - 1])

    return IntervalPlan(
        interval_length=interval_length,
        intervals=intervals,
        reserved_short_bytes=rs,
        tensor_bytes=tensor_bytes,
        fast_times=fast_times,
        estimated_exposure=exposure,
        feasible=feasible,
    )


def choose_interval_length(
    profile: Profile,
    fast_capacity: int,
    promote_bandwidth: float,
    max_interval_length: Optional[int] = None,
) -> IntervalPlan:
    """Scan MIL candidates and return the best plan (Eq. 1 then Eq. 2).

    Candidates violating the space constraint are discarded; among the
    feasible ones the plan with the smallest estimated exposed migration
    time wins, with larger MIL as the tie-break (fewer migration calls).
    If *no* candidate is feasible (fast memory below the paper's lower
    bound), the single-layer plan is returned marked infeasible so the
    runtime can still operate, degraded.
    """
    if fast_capacity <= 0:
        raise ValueError(f"fast capacity must be positive, got {fast_capacity!r}")
    if promote_bandwidth <= 0:
        raise ValueError(
            f"promote bandwidth must be positive, got {promote_bandwidth!r}"
        )
    limit = max_interval_length or profile.num_layers
    limit = max(1, min(limit, profile.num_layers))

    best: Optional[IntervalPlan] = None
    for mil in range(1, limit + 1):
        plan = evaluate_interval_length(
            profile, mil, fast_capacity, promote_bandwidth
        )
        if not plan.feasible:
            continue
        if (
            best is None
            or plan.estimated_exposure < best.estimated_exposure
            or (
                plan.estimated_exposure == best.estimated_exposure
                and plan.interval_length > best.interval_length
            )
        ):
            best = plan
    if best is not None:
        return best
    return evaluate_interval_length(profile, 1, fast_capacity, promote_bandwidth)
