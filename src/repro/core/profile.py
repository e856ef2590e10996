"""The tensor-level profile Sentinel's decisions are driven by.

A :class:`Profile` is what one profiling step produces: for every tensor,
its size, lifetime in layers, and the number of main-memory accesses —
attributed per layer thanks to the OS/runtime coordination (the fault
handler counts, the runtime snapshots the counters at each ``add_layer()``
boundary).  Everything Sentinel does afterwards — co-allocation grouping,
short-lived pool sizing (``RS``), interval planning (``Tensor(MIL)``,
``T(MIL)``), hotness-ordered migration — is a pure function of this object,
so it is deliberately a plain data structure with query helpers.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass
class TensorProfile:
    """Measured characteristics of one tensor."""

    tid: int
    name: str
    nbytes: int
    alloc_layer: int
    free_layer: Optional[int]
    preallocated: bool
    #: main-memory accesses per layer, as counted by the fault handler and
    #: attributed by the runtime's layer snapshots
    touches_by_layer: Dict[int, int] = field(default_factory=dict)

    @property
    def total_touches(self) -> int:
        return sum(self.touches_by_layer.values())

    @property
    def lifetime_layers(self) -> Optional[int]:
        if self.preallocated or self.free_layer is None:
            return None
        return self.free_layer - self.alloc_layer + 1

    @property
    def short_lived(self) -> bool:
        lifetime = self.lifetime_layers
        return lifetime is not None and lifetime <= 1

    @property
    def long_lived(self) -> bool:
        return not self.short_lived

    def access_layers(self) -> Tuple[int, ...]:
        return tuple(sorted(self.touches_by_layer))

    def _sorted_touch_layers(self) -> Tuple[int, ...]:
        """Sorted touch layers, cached once queries begin.

        The cache is built on first use; planning queries only start after
        the profiler has finalized the record, so the touch set is stable
        by then.
        """
        cached = self.__dict__.get("_touch_cache")
        if cached is None:
            cached = tuple(sorted(self.touches_by_layer))
            self.__dict__["_touch_cache"] = cached
        return cached

    def lifetime_key(self) -> Tuple[int, Optional[int]]:
        """Co-allocation grouping key: tensors sharing it live in the exact
        same layers (paper §IV-B rule 2/3)."""
        return (self.alloc_layer, self.free_layer)

    def next_touch_after(self, layer: int) -> Optional[int]:
        """First layer strictly after ``layer`` that touches the tensor."""
        layers = self._sorted_touch_layers()
        index = bisect_right(layers, layer)
        return layers[index] if index < len(layers) else None

    def touched_in(self, first_layer: int, last_layer: int) -> bool:
        layers = self._sorted_touch_layers()
        index = bisect_right(layers, first_layer - 1)
        return index < len(layers) and layers[index] <= last_layer


@dataclass
class Profile:
    """One profiling step's output for a whole graph."""

    graph_name: str
    signature: Tuple
    num_layers: int
    page_size: int
    tensors: Dict[int, TensorProfile]
    #: per-layer estimated execution time with operands in fast memory
    #: (compute/fast-bandwidth roofline) — the T(MIL) building block
    layer_fast_times: List[float]
    #: per-layer peak bytes of live short-lived tensors — the RS building block
    layer_short_lived_bytes: List[int]
    #: wall time of the profiling step itself (includes fault overhead)
    profiling_step_time: float = 0.0
    #: protection faults taken during profiling
    fault_count: int = 0
    #: peak mapped bytes under page-aligned profiling allocation
    profiled_peak_bytes: int = 0
    #: peak packed (requested) bytes — the paper's "peak memory consumption"
    packed_peak_bytes: int = 0

    # ------------------------------------------------------------- queries

    def tensor(self, tid: int) -> TensorProfile:
        return self.tensors[tid]

    def short_lived_tensors(self) -> List[TensorProfile]:
        return [t for t in self.tensors.values() if t.short_lived]

    def long_lived_tensors(self) -> List[TensorProfile]:
        return [t for t in self.tensors.values() if t.long_lived]

    @property
    def memory_overhead(self) -> float:
        """Profiling-phase footprint increase (paper: at most ~2.4%)."""
        if self.packed_peak_bytes == 0:
            return 0.0
        return self.profiled_peak_bytes / self.packed_peak_bytes - 1.0

    def reserved_short_bytes(self, interval: Sequence[int]) -> int:
        """RS for one interval: peak live short-lived bytes over its layers."""
        return max((self.layer_short_lived_bytes[l] for l in interval), default=0)

    def rs(self, interval_length: int) -> int:
        """RS(MIL): the short-lived reservation the pool needs (Eq. 1/2).

        The pool is reserved at each interval's start and shrunk as pages
        die, so what matters is the worst interval's peak — near-constant in
        MIL, as the paper observes.
        """
        from repro.core.interval import partition_layers

        return max(
            (
                self.reserved_short_bytes(interval)
                for interval in partition_layers(self.num_layers, interval_length)
            ),
            default=0,
        )

    def long_lived_bytes_touched_in(self, first_layer: int, last_layer: int) -> int:
        """Bytes of long-lived tensors accessed within a layer range —
        the migration demand ``Tensor`` of one interval."""
        return sum(
            t.nbytes
            for t in self.tensors.values()
            if t.long_lived and t.touched_in(first_layer, last_layer)
        )

    def interval_fast_time(self, interval: Sequence[int]) -> float:
        """T for one interval: training time with operands in fast memory."""
        return sum(self.layer_fast_times[l] for l in interval)

    def fast_memory_lower_bound(self) -> int:
        """The paper's lower bound on fast memory size (§IV-E).

        Peak consumption of short-lived tensors (the reservation must hold
        them — migrating them is the pathological case §IV-C exists to
        prevent) plus the largest long-lived tensor (which must fit in fast
        memory while being used).  Below this bound the runtime degrades
        sharply (paper: easily >20% loss).
        """
        short_peak = max(self.layer_short_lived_bytes, default=0)
        largest_long = max(
            (t.nbytes for t in self.tensors.values() if t.long_lived), default=0
        )
        return short_peak + largest_long

    def hotness_rank(self) -> Dict[int, int]:
        """tid -> rank by descending access count (0 = hottest)."""
        ordered = sorted(
            self.tensors.values(), key=lambda t: (-t.total_touches, t.tid)
        )
        return {t.tid: rank for rank, t in enumerate(ordered)}

    def plan_index(self) -> "PlanIndex":
        """The cached index the interval planner works from.

        Built lazily on first use and memoized on the profile; planning
        only begins after the profiler finalizes, so the underlying tensor
        records are stable by then.
        """
        cached = self.__dict__.get("_plan_index")
        if cached is None:
            cached = PlanIndex(self)
            self.__dict__["_plan_index"] = cached
        return cached


class PlanIndex:
    """Flat view of a :class:`Profile` for interval planning.

    The interval performance model asks the same two questions for every
    candidate interval length: "how many long-lived bytes does each
    interval touch" (``Tensor_i``, Eq. 1) and "what is each interval's peak
    short-lived reservation" (``RS``, Eq. 1).  Re-scanning every tensor's
    touch set per interval costs O(layers x tensors) per candidate.  This
    index keeps each long-lived tensor's size and sorted in-range touch
    layers once, so each candidate is one pass over the touches with exact
    integer sums: the answers equal
    :meth:`Profile.long_lived_bytes_touched_in` and :meth:`Profile.rs`.
    """

    def __init__(self, profile: Profile) -> None:
        self.num_layers = num_layers = profile.num_layers
        # Touches outside the step's layer range fall in no interval.
        self.long_lived = [
            (t.nbytes, [l for l in t.access_layers() if 0 <= l < num_layers])
            for t in profile.tensors.values()
            if t.long_lived
        ]
        self.short_lived_bytes = profile.layer_short_lived_bytes

    def interval_tensor_bytes(self, interval_length: int) -> List[int]:
        """Eq. 1's ``Tensor_i`` for every interval of one candidate MIL.

        A tensor contributes its bytes once to each distinct interval it
        touches — exactly ``long_lived_bytes_touched_in`` per interval,
        computed for all intervals in one pass over the sorted touches.
        """
        out = [0] * -(-self.num_layers // interval_length)
        for nbytes, layers in self.long_lived:
            previous = -1
            for layer in layers:
                interval = layer // interval_length
                if interval != previous:
                    out[interval] += nbytes
                    previous = interval
        return out

    def interval_rs(self, interval_length: int) -> int:
        """Eq. 1's ``RS(MIL)``: the worst interval's short-lived peak."""
        short = self.short_lived_bytes
        return max(
            (
                max(short[start : start + interval_length])
                for start in range(0, len(short), interval_length)
            ),
            default=0,
        )
