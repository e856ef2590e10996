"""Deterministic fault injection and invariant auditing (chaos layer).

Sentinel's real-system substrate is fallible: ``move_pages()`` returns
``-EBUSY``/``-ENOMEM`` under contention, Optane throttles under write
pressure, and the profiling fault stream can drop samples when the handler's
buffer overflows.  This module injects those failure modes into the
simulated substrate so the runtime's *degradation* behaviour — retry,
backoff, fallback, re-profiling — can be exercised and measured.

A :class:`ChaosConfig` sets only how often each fault fires.  How hard a
fault bites is fixed: :data:`DEVICE_THROTTLE_FACTOR` here, and the EBUSY
retry budget, its backoff and the abort fraction on
:class:`~repro.mem.migration.MigrationEngine`.  Machine-level failure
windows (an offline machine, a dark migration channel) are
:class:`Episode` timelines that :class:`EpisodeDriver` plays onto a serving
run.

Three design rules:

* **Deterministic.**  Every decision comes from a per-concern
  ``random.Random`` stream seeded from ``(seed, concern)``, so the draw
  sequence one mechanism sees is independent of how often the others are
  consulted.  Same seed, same workload ⇒ bit-identical run.
* **Pay for what you use.**  A concern whose rate is zero returns its
  neutral value without consuming randomness or doing arithmetic; a machine
  built without an injector has exactly the pre-chaos code paths.
* **Faults are injected below the policy layer.**  Policies see only the
  consequences the real system would show them — a refused submission, a
  stretched access, a lossy profile — never the injector itself.

:class:`InvariantAuditor` is the complement: an opt-in per-step observer
that verifies the machine's memory accounting still balances *while* faults
fly, raising :class:`~repro.errors.ConsistencyError` naming the violated
invariant if graceful degradation ever corrupts state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Optional

from repro.dnn.executor import StepObserver, StepResult
from repro.errors import ConsistencyError
from repro.mem.devices import DeviceKind
from repro.sim.engine import EventKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mem.machine import Machine
    from repro.obs.trace import EventTracer


#: Bandwidth multiplier during a slow-tier throttling episode: writes run at
#: a quarter of nominal bandwidth, reads degrade half as hard.
DEVICE_THROTTLE_FACTOR = 0.25


@dataclass(frozen=True)
class ChaosConfig:
    """Seed and fault rates for a :class:`FaultInjector`.

    All rates are per-decision probabilities in ``[0, 1]``; a rate of zero
    disables that concern entirely (no randomness is consumed for it).

    Attributes:
        seed: RNG seed; every derived stream is a pure function of it.
        migration_busy_rate: probability a migration submission is refused
            with a transient EBUSY-style error (retried with backoff).
        migration_abort_rate: probability a submitted copy dies mid-flight
            (channel time burned, no pages moved).
        device_throttle_rate: probability a slow-tier access lands in a
            bandwidth-degradation episode (Optane write throttling, at
            :data:`DEVICE_THROTTLE_FACTOR`).
        profile_drop_rate: expected fraction of profiling fault samples the
            handler loses (perf-style ``RECORD_LOST``).
    """

    seed: int = 0
    migration_busy_rate: float = 0.0
    migration_abort_rate: float = 0.0
    device_throttle_rate: float = 0.0
    profile_drop_rate: float = 0.0

    def __post_init__(self) -> None:
        for field in (
            "migration_busy_rate",
            "migration_abort_rate",
            "device_throttle_rate",
            "profile_drop_rate",
        ):
            rate = getattr(self, field)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{field} must be in [0, 1], got {rate!r}")

    @classmethod
    def uniform(cls, rate: float, seed: int = 0) -> "ChaosConfig":
        """All concerns driven by one headline fault rate.

        Busy refusals and throttle episodes fire at ``rate``; mid-flight
        aborts (the rarer, nastier event on real hardware) at half of it;
        profile drops at ``rate``.  The convenience the fault-rate sweeps
        use.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {rate!r}")
        return cls(
            seed=seed,
            migration_busy_rate=rate,
            migration_abort_rate=rate / 2.0,
            device_throttle_rate=rate,
            profile_drop_rate=rate,
        )

    def reseeded(self, seed: int) -> "ChaosConfig":
        """A copy of this config with a different seed (sweep plumbing)."""
        return replace(self, seed=seed)


class FaultInjector:
    """Draws fault decisions from seeded per-concern streams.

    Attributes:
        config: the governing :class:`ChaosConfig`.
        counts: injected-event counters (``chaos.*`` keys), surfaced by the
            harness next to the runtime's retry/fallback counters.
        tracer: optional :class:`repro.obs.EventTracer`, attached by the
            :class:`~repro.mem.machine.Machine` that adopts this injector;
            every injected decision then also lands in the trace as a
            ``chaos``-category instant (timestamped from the tracer's bound
            clock — the injector itself has no notion of time).
    """

    def __init__(self, config: ChaosConfig) -> None:
        self.config = config
        self.tracer: Optional["EventTracer"] = None
        self._migration_rng = self._stream("migration")
        self._device_rng = self._stream("device")
        self._profile_rng = self._stream("profile")
        self.counts: Dict[str, int] = {}

    def _stream(self, concern: str) -> random.Random:
        return random.Random(f"{self.config.seed}:{concern}")

    def _count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount
        if self.tracer is not None:
            self.tracer.instant(
                key.partition("chaos.")[2] or key,
                "chaos",
                track="chaos",
                amount=amount,
            )

    # ------------------------------------------------------------- migration

    def migration_busy(self) -> bool:
        """Whether this submission attempt hits a transient EBUSY."""
        rate = self.config.migration_busy_rate
        if rate <= 0.0:
            return False
        if self._migration_rng.random() < rate:
            self._count("chaos.migration_busy")
            return True
        return False

    def migration_abort(self) -> bool:
        """Whether a submitted copy dies mid-flight."""
        rate = self.config.migration_abort_rate
        if rate <= 0.0:
            return False
        if self._migration_rng.random() < rate:
            self._count("chaos.migration_aborts")
            return True
        return False

    # ---------------------------------------------------------------- device

    def device_slowdown(self, kind: DeviceKind, is_write: bool) -> float:
        """Access-time multiplier (>= 1.0) for one device access.

        Throttling episodes model Optane's write-pressure collapse, so only
        the slow tier is subject; writes take :data:`DEVICE_THROTTLE_FACTOR`
        in full, reads degrade half as hard (the media is write-limited).
        """
        rate = self.config.device_throttle_rate
        if rate <= 0.0 or kind is not DeviceKind.SLOW:
            return 1.0
        if self._device_rng.random() >= rate:
            return 1.0
        self._count("chaos.device_throttled")
        factor = DEVICE_THROTTLE_FACTOR
        if not is_write:
            factor = (1.0 + factor) / 2.0
        return 1.0 / factor

    # -------------------------------------------------------------- profiler

    def drop_faults(self, faults: int) -> int:
        """How many of ``faults`` profiling samples the handler loses.

        Accounted arithmetically (like the fault counting itself): the
        expected loss is ``faults * rate`` with one randomized-rounding
        draw, so a million-fault pass costs one RNG call, not a million.
        """
        rate = self.config.profile_drop_rate
        if rate <= 0.0 or faults <= 0:
            return 0
        expected = faults * rate
        dropped = int(expected)
        if self._profile_rng.random() < expected - dropped:
            dropped += 1
        dropped = min(faults, dropped)
        if dropped:
            self._count("chaos.profile_faults_dropped", dropped)
        return dropped


# --------------------------------------------------------------- episodes

#: Machine-level failure-episode kinds (see :class:`Episode`).
EPISODE_KINDS = ("machine-offline", "channel-blackout")


@dataclass(frozen=True)
class Episode:
    """One machine-level failure window on the simulated timeline.

    Unlike the per-decision faults above (which fire *inside* a workload's
    own code path), episodes are wall-clock events on the shared machine:
    they begin and end at absolute simulated times regardless of what any
    tenant is doing, which is what makes overload/recovery behaviour at the
    cluster boundary non-trivial.

    Attributes:
        kind: one of :data:`EPISODE_KINDS` —

            * ``"machine-offline"``: the whole machine is down; the serving
              layer interrupts in-flight jobs and pauses dispatch until the
              episode ends (crash + reboot, a node lost from the cluster).
            * ``"channel-blackout"``: one migration channel is unavailable
              for the window; queued transfers are pushed back exactly like
              work stuck behind a long transfer (a fabric link flap on a
              network-attached slow tier).
        start: absolute simulated time the episode begins (>= 0).
        duration: episode length in seconds (> 0).
        target: channel name for ``"channel-blackout"`` episodes.
    """

    kind: str
    start: float
    duration: float
    target: str = ""

    def __post_init__(self) -> None:
        if self.kind not in EPISODE_KINDS:
            raise ValueError(
                f"unknown episode kind {self.kind!r}; expected one of "
                f"{EPISODE_KINDS}"
            )
        if self.start < 0.0:
            raise ValueError(f"episode start must be >= 0, got {self.start!r}")
        if self.duration <= 0.0:
            raise ValueError(
                f"episode duration must be positive, got {self.duration!r}"
            )
        if self.kind == "channel-blackout" and not self.target:
            raise ValueError("channel-blackout episodes need a target channel")

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class EpisodeConfig:
    """Seeded generator parameters for a machine-failure timeline.

    Each concern is an independent renewal process: inter-episode gaps and
    durations are exponential draws from a per-concern stream seeded from
    ``(seed, concern)``, so enabling one concern never shifts another's
    schedule.  A concern with MTBF 0 is disabled.  Episodes of one concern
    never overlap each other (the next gap starts after the previous episode
    ends); different concerns may overlap freely, as real failures do.

    Attributes:
        seed: RNG seed; the generated timeline is a pure function of it.
        horizon: episodes begin strictly before this time (they may end
            after it — recovery still happens).
        machine_mtbf / machine_mttr: mean time between machine-offline
            episodes / mean outage duration.
        blackout_mtbf / blackout_mttr: ditto for channel blackouts; the
            affected channel is drawn uniformly per episode.
    """

    seed: int = 0
    horizon: float = 1.0
    machine_mtbf: float = 0.0
    machine_mttr: float = 0.02
    blackout_mtbf: float = 0.0
    blackout_mttr: float = 0.01

    def __post_init__(self) -> None:
        if self.horizon <= 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon!r}")
        for name in (
            "machine_mtbf",
            "machine_mttr",
            "blackout_mtbf",
            "blackout_mttr",
        ):
            value = getattr(self, name)
            if value < 0.0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")

    @property
    def enabled(self) -> bool:
        return self.machine_mtbf > 0.0 or self.blackout_mtbf > 0.0


#: Channels a generated blackout may hit, in draw order.
BLACKOUT_CHANNELS = ("promote", "demote", "demand-promote")


def generate_episodes(config: EpisodeConfig) -> list:
    """Deterministic failure timeline for ``config`` (sorted by start time).

    Same config ⇒ byte-identical episode list; the serving report's
    restart/shedding stream inherits that determinism.
    """
    episodes = []

    def renewal(concern: str, mtbf: float, mttr: float, make):
        if mtbf <= 0.0:
            return
        rng = random.Random(f"{config.seed}:episodes:{concern}")
        t = rng.expovariate(1.0 / mtbf)
        while t < config.horizon:
            duration = max(1e-9, rng.expovariate(1.0 / mttr) if mttr > 0 else 1e-9)
            episodes.append(make(t, duration, rng))
            t = t + duration + rng.expovariate(1.0 / mtbf)

    renewal(
        "machine",
        config.machine_mtbf,
        config.machine_mttr,
        lambda start, dur, rng: Episode("machine-offline", start, dur),
    )
    renewal(
        "blackout",
        config.blackout_mtbf,
        config.blackout_mttr,
        lambda start, dur, rng: Episode(
            "channel-blackout", start, dur, target=rng.choice(BLACKOUT_CHANNELS)
        ),
    )
    return sorted(episodes, key=lambda ep: (ep.start, ep.kind, ep.target))


class EpisodeDriver:
    """Plays a failure timeline onto a machine via the discrete-event engine.

    Each episode schedules a begin and an end occurrence as typed
    :data:`~repro.sim.engine.EventKind.FAULT` events (payload carries the
    :class:`Episode` and ``phase`` = ``"begin"``/``"end"``), so observers —
    the serving layer interrupting in-flight jobs, the trace — see every
    transition at its exact simulated instant.  Effects:

    * ``machine-offline`` flips :attr:`Machine.online` down and back up;
    * ``channel-blackout`` holds the target channel busy for the window.

    Attach with :meth:`arm` *before* the engine runs (episodes must not
    start in the past).
    """

    def __init__(self, machine: "Machine", episodes) -> None:
        self.machine = machine
        self.episodes = list(episodes)
        channels = {
            ch.name: ch
            for ch in (
                machine.promote_channel,
                machine.demote_channel,
                machine.demand_channel,
            )
        }
        for episode in self.episodes:
            if episode.kind == "channel-blackout" and episode.target not in channels:
                raise ValueError(
                    f"episode targets unknown channel {episode.target!r}; "
                    f"machine has {sorted(channels)}"
                )
        self._channels = channels
        self.engine = None

    def arm(self, engine) -> None:
        """Schedule every episode's begin event on ``engine``."""
        self.engine = engine
        for episode in self.episodes:
            engine.schedule_at(
                episode.start,
                EventKind.FAULT,
                name=f"episode:{episode.kind}",
                payload={"episode": episode, "phase": "begin"},
                callback=lambda ev, ep=episode: self._begin(ep, ev.time),
            )

    def _begin(self, episode: Episode, now: float) -> None:
        machine = self.machine
        if episode.kind == "machine-offline":
            machine.set_online(False, now)
        elif episode.kind == "channel-blackout":
            self._channels[episode.target].block(now, episode.duration)
            # The block pushed in-flight transfers' finish times back; the
            # availability times cached on their page runs at submission
            # must follow, or accesses would read destination frames (and
            # commits could land) mid-outage.
            machine.migration.refresh_availability()
        assert self.engine is not None
        self.engine.schedule_at(
            episode.end,
            EventKind.FAULT,
            name=f"episode:{episode.kind}",
            payload={"episode": episode, "phase": "end"},
            callback=lambda ev, ep=episode: self._end(ep, ev.time),
        )

    def _end(self, episode: Episode, now: float) -> None:
        if episode.kind == "machine-offline":
            self.machine.set_online(True, now)


class InvariantAuditor(StepObserver):
    """Opt-in per-step verifier of the machine's memory accounting.

    Attach as an executor observer; after every step (when the books should
    balance — all committed work synced) it checks:

    * device usage is non-negative and within capacity on both tiers;
    * every mapped run is charged to exactly one device — except a demoting
      run, whose fast frames are still occupied while its slow reservation
      exists (the documented double-charge window) — and the per-device sums
      equal the devices' recorded usage byte-for-byte;
    * no run is migrating to the tier it already occupies.

    Violations raise :class:`~repro.errors.ConsistencyError` naming the
    invariant, turning silent corruption into a structured failure.
    """

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        self.audits_run = 0

    # StepObserver hook: audit after each completed step.
    def on_step_end(self, step: int, result: StepResult) -> None:
        self.audit()

    def audit(self) -> None:
        """Run every check now; raises on the first violated invariant."""
        machine = self.machine
        page_size = machine.page_size
        for device in (machine.fast, machine.slow):
            if device.used < 0:
                raise ConsistencyError(
                    "device.usage-non-negative",
                    f"{device.spec.name}: used={device.used}",
                )
            if device.reserved < 0:
                raise ConsistencyError(
                    "device.reserved-non-negative",
                    f"{device.spec.name}: reserved={device.reserved}",
                )
            if device.used + device.reserved > device.capacity:
                raise ConsistencyError(
                    "device.usage-within-capacity",
                    f"{device.spec.name}: used={device.used} + "
                    f"reserved={device.reserved} > capacity={device.capacity}",
                )
            if device.reserved + device.used + device.free != device.capacity:
                raise ConsistencyError(
                    "device.capacity-partition",
                    f"{device.spec.name}: reserved={device.reserved} + "
                    f"used={device.used} + free={device.free} != "
                    f"capacity={device.capacity}",
                )
        expected_fast = 0
        expected_slow = 0
        for run in machine.page_table.entries():
            if run.migrating_to is run.device and run.migrating_to is not None:
                raise ConsistencyError(
                    "migration.destination-differs",
                    f"run {run.vpn} migrating to its own tier "
                    f"{run.device.value}",
                )
            nbytes = run.npages * page_size
            # Charging rules mirror the engine's capacity protocol: a
            # promotion reserves fast (and frees slow) at submission; a
            # demotion reserves slow at submission but vacates fast only at
            # commit.
            if run.device is DeviceKind.FAST or run.migrating_to is DeviceKind.FAST:
                expected_fast += nbytes
            if (
                run.device is DeviceKind.SLOW and run.migrating_to is None
            ) or run.migrating_to is DeviceKind.SLOW:
                expected_slow += nbytes
        if machine.fast.used != expected_fast:
            raise ConsistencyError(
                "accounting.fast-usage-matches-page-table",
                f"fast device used={machine.fast.used} but mapped runs "
                f"charge {expected_fast}",
            )
        if machine.slow.used != expected_slow:
            raise ConsistencyError(
                "accounting.slow-usage-matches-page-table",
                f"slow device used={machine.slow.used} but mapped runs "
                f"charge {expected_slow}",
            )
        self.audits_run += 1
