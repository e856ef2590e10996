"""Pluggable migration admission control.

The migration engine treats every background promotion/demotion request as
worth executing; whether that is *true* depends on the workload.  TierBPF
frames migration admission as its own policy layer — deciding which
migrations are worth their bandwidth — and 10Cache shows resource-aware
scoring beats fixed thresholds.  This module makes that layer swappable:
an :class:`AdmissionController` attached to the engine sees every
non-urgent ``promote``/``demote`` request as a typed
:class:`MigrationRequest` and returns admit/deny/defer with a reason.

Contracts:

* **Urgent bypass** — urgent (demand-path) migrations never reach the
  controller, exactly as they bypass the pressure governor and injected
  EBUSY refusals: a faulting access must be served, whatever the policy
  thinks of its bandwidth cost.
* **Zero overhead when disabled** — the engine's hook site is one
  ``is None`` check; no controller attached means no behaviour change.
* **`AlwaysAdmit` is byte-identical** — it admits everything, consumes no
  randomness, and the engine emits trace events only on deny/defer, so a
  run with ``AlwaysAdmit`` attached produces byte-identical traces and
  metrics to a run with no controller at all (admission counters land in
  run extras only when a controller is attached).

Deny vs defer is advisory taxonomy: both come back to the engine as
"do not submit now" (the caller's established leave-in-slow / Case 2
degradation), but they land in separate counters — ``deny`` means "this
migration is not worth it" (low benefit, ping-pong cooldown), ``defer``
means "not *now*" (channel occupancy, rate limiting) — so tournaments can
tell a controller that starves migration from one that reshapes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Decision verdicts.
ADMIT = "admit"
DENY = "deny"
DEFER = "defer"


@dataclass(frozen=True)
class MigrationRequest:
    """One background migration request, as the controller sees it.

    Everything a controller might score on is carried here so controllers
    never reach back into engine internals (which keeps them trivially
    testable against synthetic traces).
    """

    #: ``"promote"`` or ``"demote"``.
    kind: str
    #: Total payload across the request's page runs.
    nbytes: int
    #: Number of page runs in the request.
    nruns: int
    #: Requester identity — the migration ``tag`` (``"prefetch"``,
    #: ``"on-access"``, ``"evict"``, ``"pressure-reclaim"``, ...).
    tag: Optional[str]
    #: Simulated submission time.
    now: float
    #: Virtual page numbers of the runs (per-tensor cooldown keys).
    vpns: Tuple[int, ...]
    #: Mean profiler touches per page across the request (from the page
    #: table's profiling counts; 0.0 when the pages were never profiled).
    heat: float
    #: Bytes still in flight on the machine, both directions.
    in_flight_bytes: int
    #: Seconds of queued work on the direction's channel at ``now``.
    backlog: float


@dataclass(frozen=True)
class AdmissionDecision:
    """Verdict plus the reason that lands in counters and trace events."""

    verdict: str
    reason: str = "ok"

    @property
    def admitted(self) -> bool:
        return self.verdict == ADMIT


#: Shared singletons for the hot verdicts.
_ADMITTED = AdmissionDecision(ADMIT)


def admit() -> AdmissionDecision:
    return _ADMITTED


def deny(reason: str) -> AdmissionDecision:
    return AdmissionDecision(DENY, reason)


def defer(reason: str) -> AdmissionDecision:
    return AdmissionDecision(DEFER, reason)


class AdmissionController:
    """Base controller: the three hooks the engine calls.

    Controllers are per-run stateful objects — build a fresh one per
    simulation (the harness does this from the registered name) rather
    than sharing instances across runs or processes.
    """

    #: Registry name; also what lands in run extras.
    name = "base"

    def decide(self, request: MigrationRequest) -> AdmissionDecision:
        raise NotImplementedError

    def on_admitted(self, request: MigrationRequest) -> None:
        """Called after an admitted request is accepted for submission."""

    def on_step(self, step: int, duration: float, stall: float) -> None:
        """End-of-step feedback: the step's wall time and stall time.

        ``stall / duration`` is the online per-step proxy for the
        critical-path ``migration_stall`` share that
        :func:`repro.obs.critpath.attribute` computes offline.
        """


class AlwaysAdmit(AdmissionController):
    """The byte-identical default: admit everything, observe nothing."""

    name = "always"

    def decide(self, request: MigrationRequest) -> AdmissionDecision:
        return _ADMITTED


class BenefitCostController(AdmissionController):
    """Score expected stall savings against channel occupancy.

    Benefit is the request's profiler heat (mean touches per page — the
    stall a resident copy would have saved), floored at ``heat_floor`` so
    unprofiled pages (fresh per-step allocations, baseline policies) are
    judged on occupancy alone.  A run that just moved the *other* way
    within ``pingpong_window`` has its benefit divided by
    ``pingpong_penalty`` — the insight layer's thrash signal, computed
    online from this controller's own admitted history.  Cost grows with
    the machine's in-flight load relative to the payload, so the
    controller effectively bounds queue depth: an idle channel admits
    freely, a backed-up one defers.
    """

    name = "benefit-cost"

    def __init__(
        self,
        min_benefit: float = 0.5,
        heat_floor: float = 1.0,
        occupancy_weight: float = 1.0,
        pingpong_window: float = 0.05,
        pingpong_penalty: float = 4.0,
    ) -> None:
        if min_benefit <= 0:
            raise ValueError(f"min_benefit must be positive: {min_benefit!r}")
        if pingpong_penalty < 1.0:
            raise ValueError(
                f"pingpong_penalty must be >= 1: {pingpong_penalty!r}"
            )
        self.min_benefit = min_benefit
        self.heat_floor = heat_floor
        self.occupancy_weight = occupancy_weight
        self.pingpong_window = pingpong_window
        self.pingpong_penalty = pingpong_penalty
        #: vpn -> (kind, time) of the last admitted migration touching it.
        self._last: Dict[int, Tuple[str, float]] = {}

    def _thrashing(self, request: MigrationRequest) -> bool:
        opposite = "demote" if request.kind == "promote" else "promote"
        for vpn in request.vpns:
            last = self._last.get(vpn)
            if (
                last is not None
                and last[0] == opposite
                and request.now - last[1] <= self.pingpong_window
            ):
                return True
        return False

    def decide(self, request: MigrationRequest) -> AdmissionDecision:
        if request.kind == "demote":
            # Demotions free fast memory; refusing them under pressure
            # only deepens the shortage.
            return _ADMITTED
        benefit = max(self.heat_floor, request.heat)
        if self._thrashing(request):
            benefit /= self.pingpong_penalty
        cost = 1.0 + self.occupancy_weight * (
            request.in_flight_bytes / max(1, request.nbytes)
        )
        if benefit / cost >= self.min_benefit:
            return _ADMITTED
        if request.in_flight_bytes > 0 or request.backlog > 0.0:
            return defer("occupancy")
        return deny("low-benefit")

    def on_admitted(self, request: MigrationRequest) -> None:
        stamp = (request.kind, request.now)
        for vpn in request.vpns:
            self._last[vpn] = stamp


class FeedbackController(AdmissionController):
    """Online hysteresis driven by the run's own stall share.

    Three mechanisms, all deterministic in simulated time:

    * **Stall-share throttle** — an EWMA of each step's
      ``stall / duration`` (the online proxy for the critical path's
      ``migration_stall`` share) trips a throttle above ``stall_target``
      and releases it below ``stall_target * release`` — hysteresis, so
      the gate does not chatter around the target.  While throttled,
      background promotions are denied (``stall-share``).
    * **Per-tensor cooldown** — a vpn demoted within the last
      ``cooldown`` seconds is denied re-promotion (``cooldown``): the
      direct counter to promote→demote→promote ping-pong.
    * **Rate limiting** — with ``rate_bytes_per_s > 0``, admitted
      promotion bytes may not exceed ``burst_bytes`` plus the rate
      integrated since the first request; excess is deferred
      (``rate-limit``).  Off by default.

    Demotions are always admitted (see :class:`BenefitCostController`).
    """

    name = "feedback"

    def __init__(
        self,
        stall_target: float = 0.05,
        release: float = 0.5,
        smoothing: float = 0.5,
        cooldown: float = 0.05,
        rate_bytes_per_s: float = 0.0,
        burst_bytes: int = 32 * 1024 * 1024,
    ) -> None:
        if not 0.0 < stall_target < 1.0:
            raise ValueError(f"stall_target must be in (0, 1): {stall_target!r}")
        if not 0.0 <= release <= 1.0:
            raise ValueError(f"release must be in [0, 1]: {release!r}")
        if not 0.0 < smoothing <= 1.0:
            raise ValueError(f"smoothing must be in (0, 1]: {smoothing!r}")
        self.stall_target = stall_target
        self.release = release
        self.smoothing = smoothing
        self.cooldown = cooldown
        self.rate_bytes_per_s = rate_bytes_per_s
        self.burst_bytes = burst_bytes
        self._stall_share: Optional[float] = None  # EWMA, None until a step
        self._throttled = False
        self._last_demote: Dict[int, float] = {}  # vpn -> demote time
        self._rate_epoch: Optional[float] = None
        self._admitted_bytes = 0

    @property
    def throttled(self) -> bool:
        return self._throttled

    def decide(self, request: MigrationRequest) -> AdmissionDecision:
        if request.kind == "demote":
            return _ADMITTED
        if self.cooldown > 0.0:
            for vpn in request.vpns:
                demoted = self._last_demote.get(vpn)
                if demoted is not None and request.now - demoted < self.cooldown:
                    return deny("cooldown")
        if self._throttled:
            return deny("stall-share")
        if self.rate_bytes_per_s > 0.0:
            if self._rate_epoch is None:
                self._rate_epoch = request.now
            allowed = self.burst_bytes + self.rate_bytes_per_s * (
                request.now - self._rate_epoch
            )
            if self._admitted_bytes + request.nbytes > allowed:
                return defer("rate-limit")
        return _ADMITTED

    def on_admitted(self, request: MigrationRequest) -> None:
        if request.kind == "demote":
            for vpn in request.vpns:
                self._last_demote[vpn] = request.now
        else:
            self._admitted_bytes += request.nbytes

    def on_step(self, step: int, duration: float, stall: float) -> None:
        if duration <= 0.0:
            return
        share = max(0.0, stall) / duration
        if self._stall_share is None:
            self._stall_share = share
        else:
            self._stall_share += self.smoothing * (share - self._stall_share)
        if self._stall_share > self.stall_target:
            self._throttled = True
        elif self._stall_share < self.stall_target * self.release:
            self._throttled = False


#: Registered controllers, by CLI/tournament name.
CONTROLLERS = {
    AlwaysAdmit.name: AlwaysAdmit,
    BenefitCostController.name: BenefitCostController,
    FeedbackController.name: FeedbackController,
}


def make_admission(name: str, **kwargs) -> AdmissionController:
    """Build a fresh controller by registered name."""
    try:
        cls = CONTROLLERS[name]
    except KeyError:
        raise ValueError(
            f"unknown admission controller {name!r}; "
            f"available: {sorted(CONTROLLERS)}"
        ) from None
    return cls(**kwargs)


def controller_for(
    name: Optional[str], args: Optional[Dict[str, object]] = None
) -> Optional[AdmissionController]:
    """A fresh controller for a registered ``name``, built with ``args``.

    ``None`` without a name; ``args`` without a name are rejected, since
    they could only have been meant for a controller.
    """
    if name is None:
        if args:
            raise ValueError(
                f"admission args {sorted(args)} given without a controller name"
            )
        return None
    return make_admission(name, **(args or {}))


def parse_admission_args(text: Optional[str]) -> Dict[str, object]:
    """Parse ``"key=value,key=value"`` controller arguments from the CLI.

    Values are coerced ``int`` -> ``float`` -> ``bool`` -> ``str`` in that
    order, matching the controllers' numeric-heavy signatures.
    """
    args: Dict[str, object] = {}
    if not text:
        return args
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(
                f"bad admission argument {part!r} (expected key=value)"
            )
        key, raw = part.split("=", 1)
        key = key.strip().replace("-", "_")
        raw = raw.strip()
        value: object
        try:
            value = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                lowered = raw.lower()
                if lowered in ("true", "false"):
                    value = lowered == "true"
                else:
                    value = raw
        args[key] = value
    return args
