"""Protection-fault handler implementing Sentinel's access counting.

The protocol from the paper (Section III-A):

1. To start tracking a page, set reserved bit 51 in its PTE ("poison" it)
   and flush the translation from the TLB.
2. The next access misses the TLB, walks the page table, sees the reserved
   bit, and takes a protection fault.
3. The customized fault handler counts the access, leaves the PTE poisoned,
   and flushes the TLB entry again so the *next* access also faults.

Every main-memory access to a tracked page therefore costs one fault.  That
is expensive (trap + handler + TLB shootdown) but confined to the single
profiling step; the handler accumulates the overhead so experiments can
report the profiling step's slowdown (paper: up to ~5x for one step).

The page table stores contiguous runs, so one *access pass* over a run
(e.g. an operation streaming through a tensor) faults once per page in the
touched range; the handler accounts those faults arithmetically.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.mem.page import PageTable, PageTableEntry
from repro.mem.tlb import TLB

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.chaos import FaultInjector
    from repro.obs.trace import EventTracer


class FaultHandler:
    """Counts main-memory accesses to poisoned page runs.

    Args:
        page_table: the table whose entries carry poison bits and counters.
        tlb: translation cache flushed after every counted access.
        fault_cost: seconds charged per protection fault taken.
        injector: optional :class:`repro.chaos.FaultInjector` that drops a
            fraction of the counted samples (the real handler's ring buffer
            overflows under load, like perf's ``RECORD_LOST``).  Dropped
            samples still cost fault-handling time — the trap happened — but
            never reach the per-run counters, so the profile under-reports.
        tracer: optional :class:`repro.obs.EventTracer`; each counted access
            pass then emits a ``fault``-category instant (timestamped from
            the tracer's bound clock, since the fault path does not carry
            ``now``).  ``None`` records nothing.
    """

    def __init__(
        self,
        page_table: PageTable,
        tlb: TLB,
        fault_cost: float,
        injector: Optional["FaultInjector"] = None,
        tracer: Optional["EventTracer"] = None,
    ) -> None:
        if fault_cost < 0:
            raise ValueError(f"fault cost must be non-negative, got {fault_cost!r}")
        self.page_table = page_table
        self.tlb = tlb
        self.fault_cost = fault_cost
        self.injector = injector
        self.tracer = tracer
        self.faults_taken = 0
        self.faults_dropped = 0
        self.overhead = 0.0

    def on_access_pass(
        self, entry: PageTableEntry, pages_touched: int, is_write: bool, passes: int = 1
    ) -> float:
        """Record ``passes`` streaming passes over ``pages_touched`` pages.

        Returns the fault-handling time incurred.  Untracked (unpoisoned)
        runs proceed at full speed with no counting — exactly the
        information loss Sentinel's profiling phase exists to avoid.
        """
        if pages_touched < 0:
            raise ValueError(f"cannot touch negative pages {pages_touched!r}")
        if pages_touched > entry.npages:
            raise ValueError(
                f"touching {pages_touched} pages of a {entry.npages}-page run"
            )
        if passes <= 0:
            raise ValueError(f"passes must be >= 1, got {passes!r}")
        if not entry.poisoned or pages_touched == 0:
            return 0.0
        # Each touched page, each pass: TLB miss -> walk -> protection fault
        # -> count, re-poison, flush.  One counter tick per page per pass
        # mirrors the per-page counting of the real handler.
        faults = pages_touched * passes
        counted = faults
        if self.injector is not None:
            dropped = self.injector.drop_faults(faults)
            if dropped:
                counted -= dropped
                self.faults_dropped += dropped
        if is_write:
            entry.writes += counted
        else:
            entry.reads += counted
        self.tlb.flush(entry.vpn)
        self.faults_taken += faults
        cost = faults * self.fault_cost
        self.overhead += cost
        if self.tracer is not None:
            self.tracer.instant(
                "protection-fault",
                "fault",
                track="faults",
                vpn=entry.vpn,
                faults=faults,
                dropped=faults - counted,
                write=is_write,
                cost=cost,
            )
        return cost
