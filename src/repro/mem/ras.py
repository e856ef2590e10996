"""Memory RAS: error injection, scrubbing, page retirement, and recovery.

Sentinel keeps most tensors on a cheap, dense slow tier — exactly the
media (Optane-class NVM, CXL-attached DRAM) where correctable and
uncorrectable memory errors live.  This module models that failure class
end to end:

* **Error model** — seeded CE/UE arrivals per device at per-byte·second
  rates (slow tier ≫ fast via :data:`FAST_RATE_SCALE`), plus a
  wear model: a page whose corrected-error count crosses
  :attr:`RASConfig.ce_storm_threshold` escalates further errors to UEs
  (a CE storm predicting media failure).
* **Detection** — three paths.  Demand accesses machine-check latent
  errors on the touched tensor's pages (:meth:`RasEngine.check_access`).
  A patrol scrubber sweeps each device's mapped bytes at a configured
  bandwidth; the scrub cursor is analytic (a due-time per latent CE,
  drawn inside the current sweep period) so no engine process is needed
  and serving loops never block on a perpetual scrubber.  Migrations are
  checksum-verified: corruption in transit is detected before commit and
  the transfer is retransmitted (:meth:`RasEngine.transit_gate`), and a
  committed migration's read pass corrects any latent CEs it carried
  (:meth:`RasEngine.on_migration_commit`).
* **Containment** — a UE retires the struck frame: the page-table run is
  split around the dead page and unmapped, the frame is permanently
  withheld from allocation via the device's ``reserve()`` mechanism, and
  the vpn lands on the per-device badblock list.  The pressure governor
  (when attached) sees the capacity loss immediately.
* **Recovery** — a ladder, in order: a page that was never initialized
  costs nothing to lose; read-only preallocated data (weights/inputs)
  is re-fetched from its master copy over the demand channel; volatile
  tensors (activations, gradients, temporaries) are **rematerialized**
  by re-running their producer op, costed as real compute time on the
  critical path.  When the ladder is exhausted the engine raises
  :class:`repro.errors.UncorrectableMemoryError`, which the serving
  layer absorbs per job (against its restart budget) while the machine
  stays online.

Terminology note: the profiling "poison" bit on
:class:`repro.mem.page.PageTableEntry` is Sentinel's *access counting*
mechanism and has nothing to do with data loss.  This module never
touches it; RAS state is keyed by vpn in the engine itself, and uses
UE/CE/retired vocabulary throughout, so profiling-poisoned runs
interoperate with error injection without ambiguity.

Determinism: all draws come from per-concern ``random.Random`` streams
seeded ``f"{seed}:ras:{concern}"``, the same idiom as
:class:`repro.chaos.FaultInjector`.  With the config disabled no
``RasEngine`` is built at all and every run is byte-identical to a
pre-RAS build.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.errors import UncorrectableMemoryError
from repro.mem.devices import DeviceKind, MemoryDevice

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.dnn.alloc import Allocator, TensorMapping
    from repro.dnn.graph import Op
    from repro.dnn.tensor import Tensor
    from repro.mem.machine import Machine
    from repro.mem.migration import MigrationRecord
    from repro.mem.page import PageTableEntry
    from repro.sim.channel import BandwidthChannel

__all__ = ["RECOVERY_POLICIES", "RASConfig", "RasEngine"]

#: Recovery ladders, weakest to strongest.  Every policy includes the
#: rungs of the ones before it: ``refetch`` adds the clean-copy re-fetch
#: to ``none``'s raise, and ``remat`` adds producer-op rematerialization.
RECOVERY_POLICIES = ("none", "refetch", "remat")

#: Multiplier on both error rates for the fast tier (DRAM-class media is
#: orders of magnitude more reliable than the slow tier).
FAST_RATE_SCALE = 0.01


@dataclass(frozen=True)
class RASConfig:
    """Configuration for the memory RAS layer.

    Rates are per byte·second of *used* memory on the slow tier; the fast
    tier (DRAM-class) scales them by :data:`FAST_RATE_SCALE`.  A UE always
    retires the struck frame (capacity shrinks via ``reserve()``, the vpn
    joins the badblock list).  The default config is fully disabled: a
    machine built with it (or with ``None``) carries no :class:`RasEngine`
    and is byte-identical to a pre-RAS build.

    Attributes:
        seed: base seed for the per-concern random streams.
        ue_rate: uncorrectable-error arrivals per byte·second (slow tier).
        ce_rate: correctable-error arrivals per byte·second (slow tier).
        scrub_bandwidth: patrol-scrubber sweep rate in bytes/second;
            ``0`` disables scrubbing.  A latent CE is found by the scrubber
            at a uniform offset within the sweep period
            ``device.used / scrub_bandwidth`` after injection — if a demand
            access or a migration doesn't reach it first.
        ce_storm_threshold: corrected-error count at which a page's wear
            escalates further errors on it to UEs.
        transit_corruption_rate: probability that one migration transfer is
            corrupted in flight; checksum verification detects it before
            commit and the transfer is retransmitted (the burned channel
            time is the cost).
        recovery: recovery-ladder policy, one of
            :data:`RECOVERY_POLICIES`.
    """

    seed: int = 0
    ue_rate: float = 0.0
    ce_rate: float = 0.0
    scrub_bandwidth: float = 0.0
    ce_storm_threshold: int = 4
    transit_corruption_rate: float = 0.0
    recovery: str = "remat"

    def __post_init__(self) -> None:
        for field in ("ue_rate", "ce_rate", "scrub_bandwidth",
                      "transit_corruption_rate"):
            value = getattr(self, field)
            if value < 0:
                raise ValueError(f"{field} must be >= 0, got {value!r}")
        if not 0.0 <= self.transit_corruption_rate < 1.0:
            raise ValueError(
                f"transit_corruption_rate must be in [0, 1), got "
                f"{self.transit_corruption_rate!r}"
            )
        if self.ce_storm_threshold < 1:
            raise ValueError(
                f"ce_storm_threshold must be >= 1, got {self.ce_storm_threshold!r}"
            )
        if self.recovery not in RECOVERY_POLICIES:
            raise ValueError(
                f"unknown recovery policy {self.recovery!r} "
                f"(one of {', '.join(RECOVERY_POLICIES)})"
            )

    @property
    def enabled(self) -> bool:
        """Whether this config injects anything at all."""
        return (
            self.ue_rate > 0
            or self.ce_rate > 0
            or self.transit_corruption_rate > 0
        )

    def reseeded(self, seed: int) -> "RASConfig":
        """A copy with a different seed (per-grid-point reseeding)."""
        return replace(self, seed=seed)


class RasEngine:
    """Live RAS state for one machine: latent errors, wear, badblocks.

    Built by :class:`repro.mem.machine.Machine` only when the config is
    enabled; all hook sites elsewhere are single ``is None`` checks.

    The engine is clockless — callers pass ``now`` — and keeps all state
    keyed by vpn.  Virtual page numbers are stable across migration (the
    run keeps its vpn, only its device changes), so latent errors travel
    with the data without any relocation bookkeeping at commit time.
    """

    def __init__(self, config: RASConfig, machine: "Machine") -> None:
        self.config = config
        self.machine = machine
        self._error_rng = random.Random(f"{config.seed}:ras:errors")
        self._transit_rng = random.Random(f"{config.seed}:ras:transit")
        #: latent, not-yet-detected errors: vpn -> "ce" | "ue".
        self._latent: Dict[int, str] = {}
        #: corrected-error count per page (wear model input).
        self._ce_wear: Dict[int, int] = {}
        #: permanently retired frames, per device name.
        self.badblocks: Dict[str, List[int]] = {}
        #: scrub schedule: (due_time, seq, vpn) heap, drained lazily.
        self._scrub_due: List[Tuple[float, int, int]] = []
        self._scrub_seq = 0
        self.counts: Dict[str, int] = {
            "ras.errors_injected": 0,
            "ras.ce_corrected": 0,
            "ras.ce_scrubbed": 0,
            "ras.ce_migration_corrected": 0,
            "ras.ce_storm_escalations": 0,
            "ras.ue_detected": 0,
            "ras.retired_frames": 0,
            "ras.clean_drops": 0,
            "ras.refetch_events": 0,
            "ras.remat_events": 0,
            "ras.transit_retries": 0,
        }
        self.remat_bytes = 0
        self.remat_time = 0.0
        self.refetch_time = 0.0
        self.scrub_swept_bytes = 0.0

    # ----------------------------------------------------------- observation

    @property
    def latent_errors(self) -> Dict[int, str]:
        """Snapshot of undetected errors (vpn -> kind); for tests/tools."""
        return dict(self._latent)

    @property
    def retired_frames(self) -> int:
        return self.counts["ras.retired_frames"]

    def _trace(self, name: str, ts: float, **args: Any) -> None:
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.instant(name, "ras", ts=ts, track="ras", **args)

    def _trace_span(self, name: str, ts: float, dur: float, **args: Any) -> None:
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.complete(name, "ras", ts=ts, dur=dur, track="ras", **args)

    # --------------------------------------------------------------- arrivals

    def age(self, elapsed: float, now: float) -> None:
        """Advance wall-clock exposure by ``elapsed`` seconds ending at ``now``.

        Called once per executed layer.  First drains scrubber arrivals due
        by ``now`` (latent CEs the patrol sweep reached are corrected
        without ever costing a demand access), then injects new errors:
        the expected count per device is ``used x elapsed x rate``, drawn
        with randomized rounding (the :meth:`repro.chaos.FaultInjector`
        idiom) so fractional expectations accumulate correctly over many
        short layers.
        """
        if elapsed <= 0.0:
            self._drain_scrubber(now)
            return
        self._drain_scrubber(now)
        config = self.config
        total_rate = config.ue_rate + config.ce_rate
        if total_rate <= 0.0:
            return
        ue_share = config.ue_rate / total_rate
        for device, scale in (
            (self.machine.slow, 1.0),
            (self.machine.fast, FAST_RATE_SCALE),
        ):
            expected = device.used * elapsed * total_rate * scale
            if expected <= 0.0:
                continue
            count = int(expected)
            if self._error_rng.random() < expected - count:
                count += 1
            for _ in range(count):
                self._inject_one(device, ue_share, now)
        if config.scrub_bandwidth > 0.0:
            self.scrub_swept_bytes += elapsed * config.scrub_bandwidth

    def _inject_one(self, device: MemoryDevice, ue_share: float, now: float) -> None:
        """Land one error on a uniformly-chosen mapped page of ``device``."""
        runs = self.machine.page_table.runs_on(device.kind)
        total_pages = sum(run.npages for run in runs)
        if total_pages == 0:
            return
        index = self._error_rng.randrange(total_pages)
        vpn = -1
        for run in runs:
            if index < run.npages:
                vpn = run.vpn + index
                break
            index -= run.npages
        is_ue = self._error_rng.random() < ue_share
        wear = self._ce_wear.get(vpn, 0)
        if not is_ue and wear >= self.config.ce_storm_threshold:
            # CE-storm escalation: this frame's media is failing.
            is_ue = True
            self.counts["ras.ce_storm_escalations"] += 1
        kind = "ue" if is_ue else "ce"
        previous = self._latent.get(vpn)
        if previous != "ue":  # a latent UE is never downgraded
            self._latent[vpn] = kind
        self.counts["ras.errors_injected"] += 1
        self._trace(
            f"latent-{kind}", now, vpn=vpn, device=device.spec.name, wear=wear
        )
        if kind == "ce" and self.config.scrub_bandwidth > 0.0 and device.used > 0:
            sweep_period = device.used / self.config.scrub_bandwidth
            due = now + self._error_rng.random() * sweep_period
            self._scrub_seq += 1
            heapq.heappush(self._scrub_due, (due, self._scrub_seq, vpn))

    def _drain_scrubber(self, now: float) -> None:
        """Retire scrub arrivals due by ``now``; patrol reads correct CEs.

        Hits are stamped at drain time (``ts=now``), not at their analytic
        due time, so the trace stream stays monotone even though the heap
        is drained lazily once per layer.
        """
        while self._scrub_due and self._scrub_due[0][0] <= now:
            _, _, vpn = heapq.heappop(self._scrub_due)
            if self._latent.get(vpn) != "ce":
                continue  # already corrected, escalated, or machine-checked
            del self._latent[vpn]
            self._ce_wear[vpn] = self._ce_wear.get(vpn, 0) + 1
            self.counts["ras.ce_scrubbed"] += 1
            self._trace("scrub-hit", now, vpn=vpn)

    # --------------------------------------------------------- demand checks

    def check_access(
        self,
        tensor: "Tensor",
        mapping: "TensorMapping",
        now: float,
        producer: Optional["Op"],
        allocator: Optional["Allocator"],
    ) -> float:
        """Machine-check ``tensor``'s pages on a demand access.

        Latent CEs on the touched committed runs are corrected in place
        (ECC does its job; the wear counter ticks).  A latent UE delivers
        a machine check: the frame is retired and the recovery ladder
        runs.  Returns the recovery time in seconds — real stall charged
        to the access — or raises :class:`UncorrectableMemoryError` when
        the ladder is exhausted.  In-flight runs are skipped; their
        latent errors surface after the migration commits.
        """
        if not self._latent:
            return 0.0
        total = 0.0
        for share in mapping.shares:
            run = share.run
            if run.in_flight:
                continue
            lo, hi = run.vpn, run.vpn + run.npages
            hits = sorted(v for v in self._latent if lo <= v < hi)
            for vpn in hits:
                kind = self._latent.pop(vpn)
                if kind == "ce":
                    self._ce_wear[vpn] = self._ce_wear.get(vpn, 0) + 1
                    self.counts["ras.ce_corrected"] += 1
                    self._trace("ce-corrected", now + total, vpn=vpn)
                else:
                    total += self._machine_check(
                        run, vpn, tensor, now + total, producer, allocator
                    )
        return total

    def _machine_check(
        self,
        run: "PageTableEntry",
        vpn: int,
        tensor: "Tensor",
        now: float,
        producer: Optional["Op"],
        allocator: Optional["Allocator"],
    ) -> float:
        """Deliver a UE on ``vpn`` of ``run``: contain, then recover."""
        # An earlier machine check on the same access may have split the
        # share's run; retire against the entry that covers ``vpn`` *now*.
        covering = self.machine.page_table.run_containing(vpn)
        if covering is not None and not covering.in_flight:
            run = covering
        config = self.config
        device = self.machine.device(run.device)
        initialized = run.initialized
        self.counts["ras.ue_detected"] += 1
        self._trace(
            "machine-check",
            now,
            vpn=vpn,
            device=device.spec.name,
            tensor=tensor.tid,
        )
        self._retire(run, vpn, device, now, allocator)
        if config.recovery == "none":
            raise UncorrectableMemoryError(
                vpn, device.spec.name, tensor=tensor.tid,
                detail="recovery disabled",
            )
        if not initialized:
            # Nothing was ever written here: the page held no data yet, so
            # losing the frame costs nothing beyond the retired capacity.
            self.counts["ras.clean_drops"] += 1
            self._trace("clean-drop", now, vpn=vpn, tensor=tensor.tid)
            return 0.0
        if tensor.preallocated:
            # A master copy exists off-machine (checkpointed weights, the
            # input pipeline): re-fetch one page over the demand channel.
            transfer = self.machine.demand_channel.submit(
                self.machine.page_size, now, tag="ras-refetch"
            )
            stall = max(0.0, transfer.finish - now)
            self.counts["ras.refetch_events"] += 1
            self.refetch_time += stall
            self._trace_span(
                "refetch", now, stall, vpn=vpn, tensor=tensor.tid,
                nbytes=self.machine.page_size,
            )
            return stall
        if config.recovery == "remat" and producer is not None:
            # Volatile data (activation, gradient, temp): re-run the
            # producer op.  Real compute time on the critical path.
            cost = producer.flops / self.machine.platform.compute_throughput
            self.counts["ras.remat_events"] += 1
            self.remat_bytes += tensor.nbytes
            self.remat_time += cost
            self._trace_span(
                "remat", now, cost, vpn=vpn, tensor=tensor.tid,
                op=producer.name, flops=producer.flops,
            )
            return cost
        raise UncorrectableMemoryError(
            vpn,
            device.spec.name,
            tensor=tensor.tid,
            detail=(
                f"recovery={config.recovery}, "
                f"producer={'none' if producer is None else producer.name}"
            ),
        )

    def _retire(
        self,
        run: "PageTableEntry",
        vpn: int,
        device: MemoryDevice,
        now: float,
        allocator: Optional["Allocator"],
    ) -> None:
        """Permanently retire the frame backing ``vpn``.

        The allocator (when one manages the run) splits the run around the
        dead page and unmaps it, returning the page's bytes to the device;
        the frame is then withheld forever via ``reserve()`` — the same
        mechanism transient capacity loss uses, so the invariant auditor's
        capacity partition keeps balancing — and the vpn joins the
        badblock list.
        """
        unmapped = False
        if allocator is not None:
            unmapped = allocator.retire_page(run, vpn, now)
        granted = device.reserve(self.machine.page_size)
        self.badblocks.setdefault(device.spec.name, []).append(vpn)
        self.counts["ras.retired_frames"] += 1
        self._trace(
            "page-retired",
            now,
            vpn=vpn,
            device=device.spec.name,
            unmapped=unmapped,
            withheld=granted,
        )
        if self.machine.pressure is not None:
            self.machine.pressure.note_usage(now)

    # ------------------------------------------------------- migration hooks

    def transit_gate(
        self,
        channel: "BandwidthChannel",
        nbytes: int,
        now: float,
        tag: Any,
    ) -> float:
        """Checksum-verify a migration submission; retransmit on corruption.

        Called by the migration engine just before it submits a transfer.
        Corruption in flight is detected by the checksum at commit time;
        since completion times are analytic at submission, the cost is
        modeled here: each corrupted attempt burns a full channel pass
        (an ``aborted`` transfer) and the payload goes again.  Returns the
        (possibly later) time at which the verified submission should be
        issued.
        """
        rate = self.config.transit_corruption_rate
        if rate <= 0.0:
            return now
        while self._transit_rng.random() < rate:
            wreck = channel.submit(nbytes, now, tag=tag, aborted=True)
            self.counts["ras.transit_retries"] += 1
            self._trace_span(
                "checksum-retry",
                wreck.start,
                wreck.finish - wreck.start,
                nbytes=nbytes,
                channel=channel.name,
            )
            now = wreck.finish
        return now

    def on_migration_commit(self, record: "MigrationRecord") -> None:
        """A migration committed: its read pass corrected latent CEs.

        Moving a page reads every byte through the checksum path, which
        corrects correctable errors as a side effect — the same physics as
        a scrub pass.  Latent UEs travel with the data (the copy engine
        forwards the poison) and machine-check on the next demand access.
        """
        if not self._latent:
            return
        finish = record.transfer.finish
        for run in record.runs:
            lo, hi = run.vpn, run.vpn + run.npages
            hits = [v for v in self._latent if lo <= v < hi]
            for vpn in hits:
                if self._latent[vpn] != "ce":
                    continue
                del self._latent[vpn]
                self._ce_wear[vpn] = self._ce_wear.get(vpn, 0) + 1
                self.counts["ras.ce_migration_corrected"] += 1
                self._trace("migration-scrub", finish, vpn=vpn)
