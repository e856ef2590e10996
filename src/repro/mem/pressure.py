"""Memory-pressure governor: watermarks, reserve pool, spill accounting.

Sentinel's premise is working sets that exceed fast memory, so fast-tier
exhaustion is the *normal operating point*, not an error.  This module is
the kswapd of the reproduction: a :class:`PressureGovernor` watches the
fast device's used fraction against two watermarks and turns capacity
exhaustion into graceful degradation instead of failure:

* **high watermark** — background (prefetch) promotions are refused while
  usage sits above it, exactly as kswapd stops ``numa_migrate`` promotion
  when a node is past ``high``; the urgent demand lane is never refused.
* **low watermark** — crossing it wakes proactive reclaim: unpinned
  fast-resident runs are demoted through the ordinary migration engine
  (paying real channel time) until projected usage is back under ``low``.
* **reserve pool** — a fixed number of fast frames, reserved at the
  governor level, that only the urgent demand lane may consume.  Ordinary
  promotions and fresh allocations see ``free - reserve``, so a demand
  miss can always land even when prefetch has filled the tier.
* **spill-to-slow** — a fresh allocation that does not fit in the
  non-reserved portion of fast memory is placed on the slow tier and
  counted (``pressure.spills``), instead of raising
  :class:`~repro.errors.DeviceFullError`.

Like chaos and tracing before it, the governor is strictly opt-in: the
default config (watermarks at 100%, zero reserve) reports
``enabled == False``, no governor is constructed, and every run stays
byte-identical to a machine built before this module existed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List

from repro.mem.devices import DeviceKind
from repro.mem.page import PageTableEntry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.mem.machine import Machine

__all__ = ["PressureConfig", "PressureGovernor"]

#: External-fragmentation fraction of the arena's free bytes above which a
#: step-end compaction pass runs (only while usage is above the low
#: watermark).
COMPACT_FRAGMENTATION_THRESHOLD = 0.5

#: Tenant relocations one compaction pass may perform — compaction is
#: bounded, like kcompactd's scan budget.
MAX_COMPACTION_MOVES = 8


@dataclass(frozen=True)
class PressureConfig:
    """Watermarks and pool sizing for a :class:`PressureGovernor`.

    Attributes:
        low_watermark: fast-tier used fraction above which proactive
            reclaim starts demoting cold runs.  1.0 (the default) never
            triggers.
        high_watermark: used fraction above which background promotions
            are refused outright.  Must be >= ``low_watermark``.
        reserve_frames: fast frames held back for the urgent demand lane;
            background promotions and fresh allocations can never consume
            them.

    Step-end compaction is tuned by the module constants
    :data:`COMPACT_FRAGMENTATION_THRESHOLD` and
    :data:`MAX_COMPACTION_MOVES`.
    """

    low_watermark: float = 1.0
    high_watermark: float = 1.0
    reserve_frames: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.low_watermark <= 1.0:
            raise ValueError(
                f"low_watermark must be in (0, 1], got {self.low_watermark!r}"
            )
        if not self.low_watermark <= self.high_watermark <= 1.0:
            raise ValueError(
                f"high_watermark must be in [low_watermark, 1], got "
                f"{self.high_watermark!r} (low={self.low_watermark!r})"
            )
        if self.reserve_frames < 0:
            raise ValueError(
                f"reserve_frames must be >= 0, got {self.reserve_frames!r}"
            )

    @property
    def enabled(self) -> bool:
        """Whether the governor does anything at all.

        Watermarks at 100% with an empty reserve never gate an admission
        and never spill (nothing can exceed free space without raising
        first), so the machine skips constructing a governor entirely.
        """
        return (
            self.low_watermark < 1.0
            or self.high_watermark < 1.0
            or self.reserve_frames > 0
        )

    @classmethod
    def watermarks(
        cls, low: float, high: float, reserve_frames: int = 0
    ) -> "PressureConfig":
        """The common construction: just the kswapd-style knobs."""
        return cls(
            low_watermark=low, high_watermark=high, reserve_frames=reserve_frames
        )


class PressureGovernor:
    """Watermark admission control over a machine's fast tier.

    Built by :class:`~repro.mem.machine.Machine` when an enabled
    :class:`PressureConfig` is supplied; consulted by the machine on every
    fresh fast allocation, by the migration engine on every background
    promotion, and by the executor at step end (compaction).  Each
    decision is counted under the ``pressure.`` prefix in the machine's
    stats registry and, when a tracer is attached, recorded as a
    ``pressure``-category trace instant; nothing else observes it.
    """

    def __init__(self, config: PressureConfig, machine: "Machine") -> None:
        self.config = config
        self.machine = machine
        self._above_low = False
        self._above_high = False
        self._reclaiming = False

    # ------------------------------------------------------------- geometry

    @property
    def reserve_bytes(self) -> int:
        """Bytes of the urgent-lane reserve pool."""
        return self.config.reserve_frames * self.machine.page_size

    def used_fraction(self) -> float:
        """Occupied fraction of the fast tier, counting withheld frames.

        Device-level reservations (frames retired by the RAS layer) are
        unusable space, so they count as pressure: a retired frame moves
        the watermarks exactly as real usage would.
        """
        fast = self.machine.fast
        if not fast.capacity:
            return 0.0
        return (fast.used + fast.reserved) / fast.capacity

    def available(self, urgent: bool = False) -> int:
        """Fast bytes a request of the given priority may consume.

        The urgent demand lane sees the device's true free space; everyone
        else sees it minus the reserve pool.
        """
        free = self.machine.fast.free
        if urgent:
            return free
        return max(0, free - self.reserve_bytes)

    # ------------------------------------------------------------ admission

    def admit_allocation(self, nbytes: int, now: float) -> bool:
        """Whether a fresh fast-tier run of ``nbytes`` may be placed.

        Mirrors the kernel's zone-watermark check on allocation: a request
        that would push usage past the high watermark — or into the
        urgent-lane reserve — falls back to the far tier.  ``False`` means
        the caller must spill the run to the slow tier (recorded via
        :meth:`record_spill`).
        """
        if nbytes > self.available(urgent=False):
            return False
        fast = self.machine.fast
        occupied = fast.used + fast.reserved
        return occupied + nbytes <= self.config.high_watermark * fast.capacity

    def record_spill(self, nbytes: int, now: float) -> None:
        """Account one allocation redirected fast -> slow."""
        stats = self.machine.stats
        stats.counter("pressure.spills").add(1)
        stats.counter("pressure.spilled_bytes").add(nbytes)
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.instant(
                "spill",
                "pressure",
                ts=now,
                track="pressure",
                nbytes=nbytes,
            )

    def refuse_promotion(self, nbytes: int, now: float) -> bool:
        """Whether a *background* promotion of ``nbytes`` must be refused.

        Above the high watermark every background promotion is refused;
        the check also drives watermark bookkeeping (and hence reclaim),
        since promotions are what push usage up between allocations.
        """
        self.note_usage(now)
        if self.used_fraction() < self.config.high_watermark:
            return False
        stats = self.machine.stats
        stats.counter("pressure.refused_promotions").add(1)
        stats.counter("pressure.refused_bytes").add(nbytes)
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.instant(
                "refused-promotion",
                "pressure",
                ts=now,
                track="pressure",
                nbytes=nbytes,
            )
        return True

    # ------------------------------------------------------------ watermark

    def note_usage(self, now: float) -> None:
        """Record watermark crossings and wake reclaim when appropriate."""
        fraction = self.used_fraction()
        if (fraction >= self.config.high_watermark) != self._above_high:
            self._note_crossing("high", "_above_high", now)
        if (fraction >= self.config.low_watermark) != self._above_low:
            self._note_crossing("low", "_above_low", now)
        if self._above_low:
            self._reclaim(now)

    def _note_crossing(self, label: str, attr: str, now: float) -> None:
        """Flip one watermark state and record the crossing."""
        above = not getattr(self, attr)
        setattr(self, attr, above)
        if above:
            self.machine.stats.counter(f"pressure.{label}_crossings").add(1)
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.instant(
                f"watermark-{label}-{'enter' if above else 'exit'}",
                "pressure",
                ts=now,
                track="pressure",
                used_fraction=self.used_fraction(),
            )

    # -------------------------------------------------------------- reclaim

    def _reclaim(self, now: float) -> None:
        """Demote cold fast runs until projected usage is under ``low``.

        "Projected" counts demotions already in flight (their frames free
        when the copies land), so back-to-back calls do not over-demote.
        The recursion guard matters: reclaim demotes through the engine,
        whose submission path consults this governor again.
        """
        if self._reclaiming:
            return
        machine = self.machine
        page_size = machine.page_size
        target = int(self.config.low_watermark * machine.fast.capacity)
        inflight = machine.migration.in_flight_demote_bytes()
        excess = machine.fast.used + machine.fast.reserved - inflight - target
        if excess <= 0:
            return
        victims: List[PageTableEntry] = []
        taken = 0
        # Oldest mapping first (lowest vpn): the arena's earliest slabs and
        # the longest-resident promotions are the coldest candidates we can
        # identify without a reference stream.
        for run in machine.page_table.entries_by_vpn():
            if run.device is not DeviceKind.FAST or run.in_flight or run.pinned:
                continue
            if not run.initialized:
                continue  # freshly allocated; demoting it would bounce
            victims.append(run)
            taken += run.npages * page_size
            if taken >= excess:
                break
        if not victims:
            return
        self._reclaiming = True
        try:
            transfer, scheduled = machine.migration.demote(
                victims, now, tag="pressure-reclaim"
            )
        finally:
            self._reclaiming = False
        if not scheduled:
            return
        nbytes = sum(run.npages for run in scheduled) * page_size
        stats = machine.stats
        stats.counter("pressure.reclaims").add(1)
        stats.counter("pressure.reclaimed_bytes").add(nbytes)
        tracer = machine.tracer
        if tracer is not None:
            tracer.instant(
                "reclaim",
                "pressure",
                ts=now,
                track="pressure",
                nbytes=nbytes,
                runs=len(scheduled),
            )

    # ----------------------------------------------------------- compaction

    def end_step(self, allocator, now: float) -> None:
        """Step-end hook: refresh watermark state, then maybe compact.

        Compaction only makes sense for arena-style allocators (persistent
        slabs with internal free lists); duck-typed so the governor does
        not import :mod:`repro.dnn`.
        """
        self.note_usage(now)
        compact = getattr(allocator, "compact", None)
        if compact is None or not self._above_low:
            return
        fragmentation = getattr(allocator, "external_fragmentation", None)
        if fragmentation is None:
            return
        if fragmentation() > COMPACT_FRAGMENTATION_THRESHOLD:
            compact(now, max_moves=MAX_COMPACTION_MOVES)
