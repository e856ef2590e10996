"""A BFC-style arena allocator with cross-step page reuse.

TensorFlow's best-fit-with-coalescing allocator grabs pages from the OS
once and recycles them: a freed chunk goes onto a free list and is handed
to the next allocation that fits.  Two consequences matter for the paper:

* **page reuse across steps** — the same OS pages back the same (or
  different!) tensors step after step, so their NUMA placement and kernel
  page heat persist.  This is why first-touch and active-list policies see
  stable page behaviour despite tensors being logically reallocated every
  step, and it is the mechanism behind our IAL baseline's warm placement.
* **false sharing in time** — a page's access counters accumulate over
  *successive tenants*, so a page that once hosted a hot tensor keeps
  looking hot while holding a cold one (Observation 3's page-level
  misclassification).

The arena requests page runs from the machine like any allocator, but only
returns them when :meth:`ArenaAllocator.release_all` is called — freed
chunks go to a free list keyed by their exact size instead, and best fit
takes the first listed of the smallest chunks that hold the request.
Chunk splitting mirrors BFC: a larger free chunk is split, the remainder
re-listed.

Under capacity pressure the arena's weakness is *external fragmentation*:
free bytes scattered across chunks too small for the request sizes the
workload actually makes.  :meth:`ArenaAllocator.external_fragmentation`
measures it (free bytes unusable for the largest request class seen) and
:meth:`ArenaAllocator.compact` runs a bounded BFC-coalescing pass that
vacates mostly-empty slabs by relocating their tenants into free chunks
elsewhere — paying real migration-channel time per move — and returns the
emptied slabs to the machine.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.dnn.alloc import AllocationError, Allocator, RunShare, TensorMapping
from repro.dnn.tensor import Tensor
from repro.mem.machine import Machine
from repro.mem.page import PageTableEntry

#: The smallest power-of-two size class, BFC style (256 bytes).  Free lists
#: are keyed by exact size; size classes order the scans of
#: :meth:`ArenaAllocator._scan_order`.
_MIN_BIN = 8


def _size_class(nbytes: int) -> int:
    """``max(_MIN_BIN, ceil(log2(nbytes)))``, in integer arithmetic."""
    return max(_MIN_BIN, (nbytes - 1).bit_length())


@dataclass(eq=False)
class _Chunk:
    """A contiguous byte range inside an arena-owned page run."""

    run: PageTableEntry
    offset: int
    nbytes: int
    tenant: Optional[int] = None  # tid currently resident
    #: when the chunk last went on a free list (the arena's listing count)
    listed: int = 0


@dataclass
class CompactionReport:
    """What one bounded compaction pass accomplished."""

    moves: int = 0
    moved_bytes: int = 0
    merges: int = 0
    freed_runs: int = 0
    freed_bytes: int = 0
    finish: float = 0.0
    relocated: List[int] = field(default_factory=list)  # tids moved


class ArenaAllocator(Allocator):
    """Best-fit arena: pages persist, chunks are recycled across steps."""

    #: allocate fresh runs in slabs of this many pages to limit run count
    SLAB_PAGES = 16

    def __init__(self, machine: Machine, place) -> None:
        super().__init__(machine, place)
        #: free chunks by exact size, each list in listing order, and the
        #: sorted sizes that have one
        self._free: Dict[int, List[_Chunk]] = {}
        self._sizes: List[int] = []
        #: size class -> rank of its first listing since the lists were
        #: last cleared
        self._class_rank: Dict[int, int] = {}
        self._listings = 0
        self._chunk_of: Dict[int, _Chunk] = {}
        #: every run the arena ever mapped (released only by release_all)
        self._owned_runs: List[PageTableEntry] = []
        #: largest single allocation seen — the request class external
        #: fragmentation is measured against
        self._largest_request = 0
        #: RAS-retired byte ranges per slab vpn: ``[(lo, hi), ...]``.  A
        #: BFC slab is never carved around a dead frame (chunk offsets are
        #: relative to the whole slab), so retirement quarantines the dead
        #: range instead — no future tenant may land on it.
        self._quarantined: Dict[int, List[tuple]] = {}

    # --------------------------------------------------------------- lookup

    def group_of(self, tensor: Tensor):  # pragma: no cover - not used
        raise NotImplementedError("the arena has its own placement logic")

    def _take_free_chunk(self, nbytes: int) -> Optional[_Chunk]:
        """Best fit: the first listed of the smallest chunks that hold ``nbytes``."""
        sizes = self._sizes
        index = bisect_left(sizes, nbytes)
        if index == len(sizes):
            return None
        size = sizes[index]
        chunks = self._free[size]
        chunk = chunks.pop(0)
        if not chunks:
            del self._free[size]
            del sizes[index]
        return chunk

    def _list_free(self, chunk: _Chunk) -> None:
        chunk.tenant = None
        spans = self._quarantined.get(chunk.run.vpn) if self._quarantined else None
        if spans:
            # Clip the chunk against RAS-retired ranges: the remnants go
            # back on the free lists, the dead bytes never do.
            for lo, hi in spans:
                if chunk.offset < hi and chunk.offset + chunk.nbytes > lo:
                    if chunk.offset < lo:
                        self._list_free(
                            _Chunk(
                                run=chunk.run,
                                offset=chunk.offset,
                                nbytes=lo - chunk.offset,
                            )
                        )
                    if chunk.offset + chunk.nbytes > hi:
                        self._list_free(
                            _Chunk(
                                run=chunk.run,
                                offset=hi,
                                nbytes=chunk.offset + chunk.nbytes - hi,
                            )
                        )
                    return
        nbytes = chunk.nbytes
        chunks = self._free.get(nbytes)
        if chunks is None:
            self._free[nbytes] = [chunk]
            insort(self._sizes, nbytes)
            self._class_rank.setdefault(_size_class(nbytes), len(self._class_rank))
        else:
            chunks.append(chunk)
        self._listings += 1
        chunk.listed = self._listings

    def _unlist(self, struck: List[_Chunk]) -> None:
        """Take ``struck`` chunks off the free lists."""
        for chunk in struck:
            chunks = self._free[chunk.nbytes]
            chunks.remove(chunk)
            if not chunks:
                del self._free[chunk.nbytes]
                self._sizes.remove(chunk.nbytes)

    def _scan_order(self) -> List[_Chunk]:
        """Every free chunk, in the order coalescing and page strikes visit.

        Size classes by their first listing since the lists were last
        cleared, then listing order.  Coalescing re-lists chunks in this
        order, so it decides which of two equal-size chunks a later best
        fit takes.
        """
        rank = self._class_rank
        chunks = [chunk for chunks in self._free.values() for chunk in chunks]
        chunks.sort(key=lambda c: (rank[_size_class(c.nbytes)], c.listed))
        return chunks

    def _grow(self, nbytes: int, now: float, tensor: Tensor) -> _Chunk:
        """Map a fresh slab from the machine and carve the chunk from it."""
        page_size = self.machine.page_size
        npages = max(self.SLAB_PAGES, math.ceil(nbytes / page_size))
        run = self._map_run(tensor, npages, now)
        self._owned_runs.append(run)
        chunk = _Chunk(run=run, offset=0, nbytes=npages * page_size)
        return chunk

    # ------------------------------------------------------------ interface

    def alloc(self, tensor: Tensor, now: float) -> TensorMapping:
        tid = tensor.tid
        if tid in self._mappings:
            raise AllocationError(f"tensor {tensor.name!r} is already allocated")
        nbytes = tensor.nbytes
        if nbytes > self._largest_request:
            self._largest_request = nbytes
        chunk = self._take_free_chunk(nbytes)
        if chunk is None:
            chunk = self._grow(nbytes, now, tensor)
        run = chunk.run
        # BFC split: keep what we need, re-list the remainder.  The chunk
        # is off every free list, so it is shrunk in place.
        if chunk.nbytes > nbytes:
            self._list_free(
                _Chunk(run=run, offset=chunk.offset + nbytes, nbytes=chunk.nbytes - nbytes)
            )
            chunk.nbytes = nbytes
        chunk.tenant = tid
        self._chunk_of[tid] = chunk

        mapping = TensorMapping(tensor=tensor, shares=[RunShare(run=run, nbytes=nbytes)])
        self._mappings[tid] = mapping
        users = self._run_users.get(run.vpn)
        if users is None:
            self._run_users[run.vpn] = {tid}
        else:
            users.add(tid)
        live = self.live_tensor_bytes + nbytes
        self.live_tensor_bytes = live
        if live > self.peak_tensor_bytes:
            self.peak_tensor_bytes = live
        return mapping

    def free(self, tensor: Tensor, now: float) -> TensorMapping:
        tid = tensor.tid
        mapping = self._mappings.pop(tid, None)
        if mapping is None:
            raise AllocationError(f"tensor {tensor.name!r} is not allocated")
        self._list_free(self._chunk_of.pop(tid))
        for share in mapping.shares:
            users = self._run_users.get(share.run.vpn)
            if users is not None:
                users.discard(tid)
        self.live_tensor_bytes -= tensor.nbytes
        # Pages stay with the arena — that is the point.
        return mapping

    def release_all(self, now: float) -> None:
        """Return every slab to the machine (arena teardown)."""
        page_size = self.machine.page_size
        for run in self._owned_runs:
            if run.vpn in self.machine.page_table:
                self.live_page_bytes -= run.npages * page_size
                self.machine.unmap_run(run, now)
        self._owned_runs.clear()
        self._free.clear()
        self._sizes.clear()
        self._class_rank.clear()
        self._chunk_of.clear()
        self._run_users.clear()
        self._mappings.clear()
        self._quarantined.clear()
        self.live_tensor_bytes = 0
        self._largest_request = 0

    def retire_page(self, run: PageTableEntry, vpn: int, now: float) -> bool:
        """Quarantine the dead page instead of carving the slab.

        Chunk offsets are relative to the whole slab run, so splitting the
        run around a dead frame (the base-allocator strategy) would
        invalidate every chunk behind the split point.  A BFC arena
        instead keeps the slab intact and quarantines the struck byte
        range: free chunks overlapping it are clipped off the free lists now,
        tenant chunks are clipped when they free, and no future allocation
        is served from the range.  Returns False — the page stays mapped
        (the slab hole is unusable, not unmapped) and the RAS engine
        retires the frame by capacity accounting alone.
        """
        table = self.machine.page_table
        if run.vpn not in table or table.entry(run.vpn) is not run:
            return False
        if run.in_flight or not run.vpn <= vpn < run.vpn + run.npages:
            return False
        if all(owned is not run for owned in self._owned_runs):
            return False
        page_size = self.machine.page_size
        lo = (vpn - run.vpn) * page_size
        self._quarantined.setdefault(run.vpn, []).append((lo, lo + page_size))
        # Purge overlapping free chunks; _list_free re-lists the remnants
        # clipped against the freshly-quarantined range.
        struck = [
            c
            for c in self._scan_order()
            if c.run is run and c.offset < lo + page_size and c.offset + c.nbytes > lo
        ]
        self._unlist(struck)
        for chunk in struck:
            self._list_free(chunk)
        return False

    # ---------------------------------------------------------------- stats

    @property
    def arena_bytes(self) -> int:
        """Bytes of pages the arena currently owns."""
        return sum(
            run.npages * self.machine.page_size for run in self._owned_runs
        )

    @property
    def free_bytes(self) -> int:
        """Bytes sitting on the free lists."""
        return sum(size * len(chunks) for size, chunks in self._free.items())

    @property
    def resident_bytes(self) -> int:
        """Bytes currently held by tenants."""
        return sum(chunk.nbytes for chunk in self._chunk_of.values())

    def fragmentation_bytes(self, class_bytes: Optional[int] = None) -> int:
        """Free bytes unusable for a request of ``class_bytes``.

        Defaults to the largest allocation the arena has served — the
        request class that will hit the allocator's growth path first.
        """
        if class_bytes is None:
            class_bytes = self._largest_request
        if class_bytes <= 0:
            return 0
        sizes = self._sizes
        return sum(
            size * len(self._free[size])
            for size in sizes[: bisect_left(sizes, class_bytes)]
        )

    def external_fragmentation(self, class_bytes: Optional[int] = None) -> float:
        """Fraction of free bytes unusable for the request class in [0, 1]."""
        free = self.free_bytes
        if free == 0:
            return 0.0
        return self.fragmentation_bytes(class_bytes) / free

    # ----------------------------------------------------------- compaction

    def coalesce(self) -> int:
        """Merge adjacent free chunks within each run; returns merge count.

        BFC coalescing proper: two free chunks whose byte ranges abut in
        the same run become one larger chunk, re-listed at its new size.
        """
        by_run: Dict[int, List[_Chunk]] = {}
        for chunk in self._scan_order():
            by_run.setdefault(chunk.run.vpn, []).append(chunk)
        merges = 0
        merged: List[_Chunk] = []
        for chunks in by_run.values():
            chunks.sort(key=lambda c: c.offset)
            current = chunks[0]
            for chunk in chunks[1:]:
                if current.offset + current.nbytes == chunk.offset:
                    current = _Chunk(
                        run=current.run,
                        offset=current.offset,
                        nbytes=current.nbytes + chunk.nbytes,
                    )
                    merges += 1
                else:
                    merged.append(current)
                    current = chunk
            merged.append(current)
        if merges:
            self._free.clear()
            self._sizes.clear()
            self._class_rank.clear()
            for chunk in merged:
                self._list_free(chunk)
        return merges

    def _take_target_chunk(
        self, nbytes: int, exclude_vpn: int, device
    ) -> Optional[_Chunk]:
        """Best-fit free chunk outside ``exclude_vpn`` on the same tier."""
        sizes = self._sizes
        for index in range(bisect_left(sizes, nbytes), len(sizes)):
            chunks = self._free[sizes[index]]
            for chunk in chunks:
                run = chunk.run
                if run.vpn != exclude_vpn and not run.in_flight and run.device is device:
                    self._unlist([chunk])
                    return chunk
        return None

    def compact(self, now: float, max_moves: int = 8) -> CompactionReport:
        """One bounded compaction pass; returns what it accomplished.

        Coalesces free lists, then vacates mostly-empty slabs: each tenant
        chunk of a candidate slab is relocated into a free chunk of
        another same-tier slab through the migration engine (paying real
        demote-channel time), and the emptied slab is unmapped and its
        frames returned to the machine.  At most ``max_moves`` tenant
        relocations are performed — compaction must never stall a step for
        longer than a few transfers.
        """
        report = CompactionReport(finish=now)
        report.merges = self.coalesce()
        page_size = self.machine.page_size
        tenants_by_run: Dict[int, List[_Chunk]] = {}
        for chunk in self._chunk_of.values():
            tenants_by_run.setdefault(chunk.run.vpn, []).append(chunk)
        # Candidate slabs: fewest tenant bytes first — the cheapest to
        # vacate buy back whole runs for the fewest moves.
        candidates = sorted(
            (
                run
                for run in self._owned_runs
                if run.vpn in self.machine.page_table
                and not run.in_flight
                and not run.pinned
            ),
            key=lambda run: sum(
                c.nbytes for c in tenants_by_run.get(run.vpn, ())
            ),
        )
        budget = max_moves
        receivers: set = set()  # slabs that gained tenants this pass
        for run in candidates:
            if run.vpn in receivers:
                # The up-front tenant map no longer covers this slab;
                # vacating it could strand a tenant relocated into it.
                continue
            tenants = tenants_by_run.get(run.vpn, [])
            if len(tenants) > budget:
                continue
            if not self._vacate(run, tenants, now, report, receivers):
                continue
            budget -= len(tenants)
            self._release_slab(run, now, report)
            if budget <= 0:
                break
        self._record_compaction(now, report)
        return report

    def _vacate(
        self,
        run: PageTableEntry,
        tenants: List[_Chunk],
        now: float,
        report: CompactionReport,
        receivers: set,
    ) -> bool:
        """Move every tenant of ``run`` elsewhere; False if any has no home.

        Targets are claimed before any move is committed, so a failed
        placement rolls back cleanly by re-listing the claimed chunks.
        """
        claimed: List[tuple] = []  # (tenant, target)
        for tenant in tenants:
            target = self._take_target_chunk(
                tenant.nbytes, run.vpn, run.device
            )
            if target is None:
                for _, unused in claimed:
                    self._list_free(unused)
                return False
            claimed.append((tenant, target))
        for tenant, target in claimed:
            if target.nbytes > tenant.nbytes:
                remainder = _Chunk(
                    run=target.run,
                    offset=target.offset + tenant.nbytes,
                    nbytes=target.nbytes - tenant.nbytes,
                )
                self._list_free(remainder)
            old_vpn = tenant.run.vpn
            receivers.add(target.run.vpn)
            tenant.run = target.run
            tenant.offset = target.offset
            assert tenant.tenant is not None
            self._retarget_tenant(tenant.tenant, old_vpn, target.run)
            transfer = self.machine.migration.relocate(
                tenant.nbytes, now, tag="compact"
            )
            report.finish = max(report.finish, transfer.finish)
            report.moves += 1
            report.moved_bytes += tenant.nbytes
            report.relocated.append(tenant.tenant)
        return True

    def _retarget_tenant(
        self, tid: int, old_vpn: int, new_run: PageTableEntry
    ) -> None:
        """Point a moved tensor's mapping and run-user records at its new slab."""
        mapping = self._mappings.get(tid)
        if mapping is not None:
            for share in mapping.shares:
                if share.run.vpn == old_vpn:
                    share.run = new_run
        users = self._run_users.get(old_vpn)
        if users is not None:
            users.discard(tid)
        self._run_users.setdefault(new_run.vpn, set()).add(tid)

    def _release_slab(
        self, run: PageTableEntry, now: float, report: CompactionReport
    ) -> None:
        """Return a fully-vacated slab's frames to the machine."""
        self._unlist(
            [c for chunks in self._free.values() for c in chunks if c.run.vpn == run.vpn]
        )
        self._run_users.pop(run.vpn, None)
        self._quarantined.pop(run.vpn, None)
        # By identity: ``list.remove`` would compare every slab before it
        # field by field.
        self._owned_runs = [owned for owned in self._owned_runs if owned is not run]
        nbytes = run.npages * self.machine.page_size
        self.live_page_bytes -= nbytes
        self.machine.unmap_run(run, now)
        report.freed_runs += 1
        report.freed_bytes += nbytes

    def _record_compaction(self, now: float, report: CompactionReport) -> None:
        if report.moves == 0 and report.freed_runs == 0:
            return
        stats = self.machine.stats
        stats.counter("pressure.compaction_passes").add(1)
        stats.counter("pressure.compaction_moves").add(report.moves)
        stats.counter("pressure.compaction_bytes").add(report.moved_bytes)
        stats.counter("pressure.compaction_freed_bytes").add(report.freed_bytes)
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.complete(
                "compaction",
                "pressure",
                ts=now,
                dur=max(0.0, report.finish - now),
                track="pressure",
                moves=report.moves,
                moved_bytes=report.moved_bytes,
                merges=report.merges,
                freed_runs=report.freed_runs,
                freed_bytes=report.freed_bytes,
            )
