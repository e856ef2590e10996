"""Shared helpers for the offloading baselines.

Every swap-planning system (vDNN-dyn, AutoTM's ILP, Capuchin's measured
pass, SwapAdvisor's GA) responds to memory *pressure*: it offloads roughly
the amount by which the model's footprint exceeds device memory, not its
entire offloadable set.  :func:`select_for_pressure` implements that common
proportional response, and :func:`forward_backward_spans` the common scan
for tensors saved across the forward->backward gap, so each baseline's
distinctive part stays its planning, not its arithmetic.
:class:`SwapSchedulePolicy` executes the resulting per-layer schedule.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from repro.dnn.alloc import TensorMapping
from repro.dnn.graph import Graph, Layer, Phase
from repro.dnn.policy import PlacementPolicy, fits_fast
from repro.dnn.tensor import Tensor
from repro.mem.devices import DeviceKind
from repro.mem.page import PageTableEntry

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


class SwapSchedulePolicy(PlacementPolicy):
    """Executes a per-layer swap schedule on a residency platform.

    A subclass plans in :meth:`bind`, filling :attr:`_offload_at` and
    :attr:`_prefetch_at` with tensor ids.  Everything else lives on the
    device while it fits.  At a layer's end each scheduled tensor's device
    runs are demoted, and at a layer's start each scheduled tensor's host
    runs are promoted, one transfer per run, tagged :attr:`offload_tag`
    and :attr:`prefetch_tag`.
    """

    requires_residency = True

    #: migration tags of the scheduled transfers, set by each subclass
    prefetch_tag: str
    offload_tag: str

    def __init__(self) -> None:
        super().__init__()
        self._mappings: Dict[int, TensorMapping] = {}
        #: layer index -> tids to offload at that layer's end (forward)
        self._offload_at: Dict[int, List[int]] = {}
        #: layer index -> tids to prefetch at that layer's start (backward)
        self._prefetch_at: Dict[int, List[int]] = {}

    # ------------------------------------------------------------ placement

    def place(self, tensor: Tensor, now: float) -> DeviceKind:
        assert self.machine is not None
        if fits_fast(self.machine, tensor.nbytes):
            return DeviceKind.FAST
        return DeviceKind.SLOW

    def on_alloc(self, tensor: Tensor, mapping: TensorMapping, now: float) -> None:
        self._mappings[tensor.tid] = mapping

    def on_free(self, tensor: Tensor, mapping: TensorMapping, now: float) -> None:
        self._mappings.pop(tensor.tid, None)

    # -------------------------------------------------------------- schedule

    def on_layer_start(self, layer: Layer, now: float) -> float:
        runs = self._runs(self._prefetch_at.get(layer.index, ()), DeviceKind.SLOW)
        if runs:
            assert self.machine is not None
            self.machine.migration.promote_each(runs, now, tag=self.prefetch_tag)
        return 0.0

    def on_layer_end(self, layer: Layer, now: float) -> float:
        runs = self._runs(self._offload_at.get(layer.index, ()), DeviceKind.FAST)
        if runs:
            assert self.machine is not None
            self.machine.migration.demote_each(runs, now, tag=self.offload_tag)
        return 0.0

    def _runs(self, tids: Iterable[int], device: DeviceKind) -> List[PageTableEntry]:
        """The movable runs of ``tids`` on ``device``, each listed once.

        Runs that are pinned or already in flight are skipped.
        """
        runs: List[PageTableEntry] = []
        seen: Set[int] = set()
        for tid in tids:
            mapping = self._mappings.get(tid)
            if mapping is None:
                continue
            for share in mapping.shares:
                run = share.run
                if run.vpn in seen or run.in_flight or run.pinned:
                    continue
                seen.add(run.vpn)
                if run.device is device:
                    runs.append(run)
        return runs
