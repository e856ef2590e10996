"""Shared helpers for the offloading baselines.

Every swap-planning system (vDNN-dyn, AutoTM's ILP, Capuchin's measured
pass, SwapAdvisor's GA) responds to memory *pressure*: it offloads roughly
the amount by which the model's footprint exceeds device memory, not its
entire offloadable set.  :func:`select_for_pressure` implements that common
proportional response, and :func:`forward_backward_spans` the common scan
for tensors saved across the forward->backward gap, so each baseline's
distinctive part stays its scheduling, not its arithmetic.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Sequence, Tuple, TypeVar

from repro.dnn.graph import Graph, Phase
from repro.dnn.tensor import Tensor

T = TypeVar("T")

#: Fraction of device memory the planners budget for the resident set;
#: the rest absorbs temporaries and transfer double-buffering.
PLAN_BUDGET_FRACTION = 0.9

#: Offload this much beyond the bare deficit — working-set spikes within a
#: layer need slack beyond the average-case arithmetic.
SAVINGS_MARGIN = 1.3


def offload_deficit(peak_bytes: int, capacity_bytes: int) -> int:
    """Bytes a plan must move off-device; zero when the model fits."""
    return max(0, peak_bytes - int(capacity_bytes * PLAN_BUDGET_FRACTION))


def forward_backward_spans(graph: Graph) -> Iterator[Tuple[Tensor, int, int]]:
    """Yield ``(tensor, last forward layer, first backward layer)``.

    Covers every non-short-lived step tensor that some forward layer and
    some backward layer touch, in ``graph.step_tensors()`` order: the
    offload candidates every swap planner filters further.
    """
    layers = graph.layers
    for tensor in graph.step_tensors():
        if tensor.short_lived:
            continue
        touched = tensor.access_layers()
        forward = [l for l in touched if layers[l].phase is Phase.FORWARD]
        backward = [l for l in touched if layers[l].phase is Phase.BACKWARD]
        if forward and backward:
            yield tensor, max(forward), min(backward)


def select_for_pressure(
    candidates: Sequence[T],
    peak_bytes: int,
    capacity_bytes: int,
    size_of: Callable[[T], int],
    priority: Optional[Callable[[T], float]] = None,
) -> List[T]:
    """Pick offload candidates until the memory deficit is covered.

    Candidates are taken in ``priority`` order (default: largest first —
    the cheapest savings per scheduling decision) until cumulative savings
    reach the deficit times :data:`SAVINGS_MARGIN`.  Returns all candidates
    when even that cannot cover the deficit (maximum-batch regime).
    """
    deficit = offload_deficit(peak_bytes, capacity_bytes)
    if deficit <= 0:
        return []
    ordered = sorted(
        candidates,
        key=priority if priority is not None else (lambda c: -size_of(c)),
    )
    selected: List[T] = []
    savings = 0
    target = deficit * SAVINGS_MARGIN
    for candidate in ordered:
        if savings >= target:
            break
        selected.append(candidate)
        savings += size_of(candidate)
    return selected
