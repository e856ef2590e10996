"""Tensor-to-page allocators.

Two allocators cover the paper's three allocation policies:

* **Packed** (:class:`PackedAllocator`) — the TensorFlow-default behaviour a
  BFC-style arena produces: consecutive allocations fill pages back to back,
  so small tensors of unrelated lifetime and hotness share pages.  This is
  the source of the page-level false sharing the paper measures
  (Observation 3) and is the allocator every baseline runs on.
* **Grouped** (:class:`GroupedAllocator`) — Sentinel's post-profiling data
  reorganization: tensors only share pages within a caller-defined group
  (same-layer short-lived tensors; long-lived tensors with identical
  lifetime, ordered by hotness), so a page's contents always migrate for the
  same reason.  A ``None`` group gives the tensor its own runs: the
  page-aligned layout of Sentinel's profiling step, where page-level access
  counts are tensor-level access counts.

All allocators map tensors onto page *runs* (see :mod:`repro.mem.page`) and
keep per-run occupancy so a run is unmapped exactly when its last resident
byte is freed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Callable, Dict, Hashable, Iterable, List, Optional, Set

from repro.dnn.tensor import Tensor
from repro.mem.devices import DeviceKind
from repro.mem.machine import Machine
from repro.mem.page import PageTableEntry

#: Chooses the tier for a fresh run holding (at least part of) ``tensor``.
PlaceFn = Callable[[Tensor, float], DeviceKind]

#: Maps a tensor to its co-allocation group; ``None`` means "never share".
GroupFn = Callable[[Tensor], Optional[Hashable]]


@dataclass
class RunShare:
    """Part of a tensor resident in one page run."""

    run: PageTableEntry
    nbytes: int


@dataclass
class TensorMapping:
    """Where a tensor's bytes live: a list of run shares in address order."""

    tensor: Tensor
    shares: List[RunShare] = field(default_factory=list)

    @property
    def nbytes(self) -> int:
        return sum(s.nbytes for s in self.shares)

    def runs(self) -> List[PageTableEntry]:
        return [s.run for s in self.shares]

    def bytes_on(self, device: DeviceKind, now: float) -> int:
        """Tensor bytes whose effective residency is ``device`` at ``now``.

        :meth:`PageTableEntry.effective_device`, inlined: a run in flight
        counts on its destination from ``available_at`` on, even before the
        engine commits it.  A zero-byte share counts on no tier.
        """
        total = 0
        for share in self.shares:
            run = share.run
            target = run.migrating_to
            if target is None or now < run.available_at:
                target = run.device
            if target is device:
                total += share.nbytes
        return total


class AllocationError(RuntimeError):
    """Raised on allocator misuse (double alloc, free of unknown tensor...)."""


@dataclass
class _OpenPage:
    """A partially-filled single-page run accepting further small tensors."""

    run: PageTableEntry
    used: int


class Allocator:
    """Base allocator: group-keyed page packing over the machine's page table.

    Subclasses only choose the grouping function.  ``group_of`` returning a
    key packs tensors of that key together (sharing pages); returning
    ``None`` gives the tensor dedicated page-aligned runs.
    """

    def __init__(self, machine: Machine, place: PlaceFn) -> None:
        self.machine = machine
        self.place = place
        self._mappings: Dict[int, TensorMapping] = {}
        self._run_users: Dict[int, Set[int]] = {}
        self._open: Dict[Hashable, _OpenPage] = {}
        #: bytes requested by tensors currently live (packed footprint)
        self.live_tensor_bytes = 0
        #: pages currently mapped on behalf of this allocator
        self.live_page_bytes = 0
        self.peak_tensor_bytes = 0
        self.peak_page_bytes = 0

    # ------------------------------------------------------------- grouping

    def group_of(self, tensor: Tensor) -> Optional[Hashable]:
        raise NotImplementedError

    # ------------------------------------------------------------ interface

    def mapping(self, tensor: Tensor) -> Optional[TensorMapping]:
        return self._mappings.get(tensor.tid)

    def mapping_table(self) -> Dict[int, TensorMapping]:
        """The live ``tid -> mapping`` dict itself (treat as read-only).

        Hot paths (the executor's per-access lookups) bind ``.get`` once
        per step instead of paying a delegating call per access.  The dict
        object is stable for the allocator's lifetime — entries come and
        go, the container never does — so a bound method stays valid.
        """
        return self._mappings

    def live_mappings(self) -> Iterable[TensorMapping]:
        return self._mappings.values()

    def alloc(self, tensor: Tensor, now: float) -> TensorMapping:
        tid = tensor.tid
        mappings = self._mappings
        if tid in mappings:
            raise AllocationError(f"tensor {tensor.name!r} is already allocated")
        page_size = self.machine.page_size
        run_users = self._run_users
        mapping = TensorMapping(tensor)
        shares = mapping.shares
        remaining = tensor.nbytes
        group = self.group_of(tensor)

        if group is not None and group in self._open:
            remaining = self._fill_open_page(tid, group, remaining, shares)

        if remaining > 0:
            whole_pages = remaining // page_size
            tail = remaining - whole_pages * page_size
            # A fresh run's vpn is new to the table, so it has no users yet.
            if whole_pages > 0:
                run = self._map_run(tensor, whole_pages, now)
                shares.append(RunShare(run, whole_pages * page_size))
                run_users[run.vpn] = {tid}
            if tail > 0:
                run = self._map_run(tensor, 1, now)
                shares.append(RunShare(run, tail))
                run_users[run.vpn] = {tid}
                if group is not None:
                    # Leave the tail page open for the next group member —
                    # this is where packed allocation creates false sharing.
                    self._open[group] = _OpenPage(run=run, used=tail)

        mappings[tid] = mapping
        live = self.live_tensor_bytes + tensor.nbytes
        self.live_tensor_bytes = live
        if live > self.peak_tensor_bytes:
            self.peak_tensor_bytes = live
        return mapping

    def free(self, tensor: Tensor, now: float) -> TensorMapping:
        tid = tensor.tid
        mapping = self._mappings.pop(tid, None)
        if mapping is None:
            raise AllocationError(f"tensor {tensor.name!r} is not allocated")
        run_users = self._run_users
        page_table = self.machine.page_table
        freed_pages = 0
        dead: List[PageTableEntry] = []
        for share in mapping.shares:
            run = share.run
            users = run_users.get(run.vpn)
            if users is None:
                continue  # run already unmapped underneath the allocator
            users.discard(tid)
            if not users:
                if self._open:
                    self._forget_open(run)
                del run_users[run.vpn]
                freed_pages += run.npages
                if run.vpn in page_table:
                    dead.append(run)
        self.live_page_bytes -= freed_pages * self.machine.page_size
        if dead:
            # One batched unmap (single TLB shootdown) — run-release
            # accounting is per-run independent, so this is equivalent to
            # unmapping each as the scan finds it.
            self.machine.unmap_runs(dead, now)
        self.live_tensor_bytes -= tensor.nbytes
        return mapping

    def release_all(self, now: float) -> None:
        """Free every live tensor and return all pages to the machine.

        Teardown entry point: a departing workload must hand its capacity
        back to co-tenants even when tensors are still live (mid-step
        interrupt, timeout).  Frees run in tensor-id order so teardown is
        deterministic.  Arena-style subclasses override this to also
        release slabs their ``free`` retains.
        """
        for mapping in sorted(self._mappings.values(), key=lambda m: m.tensor.tid):
            self.free(mapping.tensor, now)
        self._open.clear()

    def retire_page(self, run: PageTableEntry, vpn: int, now: float) -> bool:
        """Carve the dead page ``vpn`` out of ``run`` and unmap it.

        Page-retirement support for :class:`repro.mem.ras.RasEngine`: the
        run is split so exactly one page covers ``vpn``, that page is
        unmapped (its bytes return to the device, where the RAS engine
        immediately withholds them again via ``reserve()``), and any
        surviving fragment the split created is re-registered with the
        owning tensors — a split tail is referenced by no
        :class:`RunShare`, so without registration the fragment would leak
        when its tensors are freed.  The registration shares are
        zero-byte: they keep the free path walking the fragment without
        changing access pricing (zero-byte shares are skipped) or
        residency accounting.

        Returns True when the page was unmapped; False when the run is
        not (or no longer) managed by this allocator, is in flight, or
        does not cover ``vpn`` — the caller then retires the frame by
        capacity accounting alone.
        """
        table = self.machine.page_table
        if run.vpn not in table or table.entry(run.vpn) is not run:
            return False
        if run.in_flight or not run.vpn <= vpn < run.vpn + run.npages:
            return False
        users = self._run_users.get(run.vpn)
        if not users:
            return False
        dead = run if vpn == run.vpn else table.split(run.vpn, vpn - run.vpn)
        if dead.npages > 1:
            rest = table.split(dead.vpn, 1)
            self._adopt(rest, users)
        if dead is not run:
            # A fresh entry no share references: account its page here;
            # the head run's eventual free covers only its shrunk range.
            self.live_page_bytes -= self.machine.page_size
        self._forget_open(run)
        self.machine.unmap_run(dead, now)
        return True

    def _adopt(self, fragment: PageTableEntry, users: Set[int]) -> None:
        """Register a split-off fragment with every tensor using the run."""
        self._run_users[fragment.vpn] = set(users)
        for tid in users:
            mapping = self._mappings.get(tid)
            if mapping is not None:
                mapping.shares.append(RunShare(run=fragment, nbytes=0))

    # -------------------------------------------------------------- helpers

    def _fill_open_page(
        self, tid: int, group: Hashable, remaining: int, shares: List[RunShare]
    ) -> int:
        page_size = self.machine.page_size
        open_page = self._open[group]
        run = open_page.run
        room = page_size - open_page.used
        users = self._run_users.get(run.vpn)
        if room <= 0 or users is None or run.vpn not in self.machine.page_table:
            # The run may have been unmapped underneath us (an eviction
            # through machine.unmap_run bypasses the allocator, leaving a
            # stale _run_users entry): attaching a new tensor to it would
            # resurrect a dead mapping.  Drop the open slot and start fresh.
            del self._open[group]
            return remaining
        take = room if room < remaining else remaining
        shares.append(RunShare(run, take))
        users.add(tid)
        open_page.used += take
        if open_page.used >= page_size:
            del self._open[group]
        return remaining - take

    def _map_run(self, tensor: Tensor, npages: int, now: float) -> PageTableEntry:
        device = self.place(tensor, now)
        run = self.machine.map_run(npages, device, now)
        live = self.live_page_bytes + npages * self.machine.page_size
        self.live_page_bytes = live
        if live > self.peak_page_bytes:
            self.peak_page_bytes = live
        return run

    def _forget_open(self, run: PageTableEntry) -> None:
        for key, open_page in list(self._open.items()):
            if open_page.run.vpn == run.vpn:
                del self._open[key]

    # ---------------------------------------------------------------- stats

    @property
    def fragmentation_overhead(self) -> float:
        """Peak page footprint relative to peak packed tensor footprint - 1."""
        if self.peak_tensor_bytes == 0:
            return 0.0
        return self.peak_page_bytes / self.peak_tensor_bytes - 1.0

    def users_of(self, run: PageTableEntry) -> AbstractSet[int]:
        """Tensor ids currently resident in ``run`` (empty if none): the
        live set, not a copy, so treat it as read-only and do not keep it
        across an allocation or a free."""
        return self._run_users.get(run.vpn, frozenset())


class PackedAllocator(Allocator):
    """TensorFlow-default packing: everything shares one allocation stream."""

    def group_of(self, tensor: Tensor) -> Optional[Hashable]:
        return "arena"


class GroupedAllocator(Allocator):
    """Sentinel's reorganized allocation: share pages only within a group."""

    def __init__(self, machine: Machine, place: PlaceFn, group_fn: GroupFn) -> None:
        super().__init__(machine, place)
        self._group_fn = group_fn

    def group_of(self, tensor: Tensor) -> Optional[Hashable]:
        return self._group_fn(tensor)
