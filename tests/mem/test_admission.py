"""Migration admission control: controllers, engine gate, urgent bypass.

The controller unit tests drive :meth:`decide`/:meth:`on_admitted`/
:meth:`on_step` directly with synthetic :class:`MigrationRequest` objects;
the engine tests attach controllers to a real :class:`MigrationEngine` and
check the gate's contracts — deny/defer comes back as the established
leave-in-slow (Case 2) signal, urgent requests never reach the controller,
and counters/trace instants appear only when a decision is negative.
"""

import pytest

from repro.mem.admission import (
    ADMIT,
    DEFER,
    DENY,
    AdmissionController,
    AlwaysAdmit,
    BenefitCostController,
    CONTROLLERS,
    FeedbackController,
    MigrationRequest,
    admit,
    controller_for,
    defer,
    deny,
    make_admission,
    parse_admission_args,
)
from repro.mem.devices import DeviceKind, DeviceSpec, MemoryDevice
from repro.mem.migration import MigrationEngine
from repro.mem.page import PageTable
from repro.obs import EventTracer, MetricsRegistry
from repro.sim.channel import BandwidthChannel

PAGE = 4096


def request(
    kind="promote",
    nbytes=4 * PAGE,
    nruns=1,
    tag="prefetch",
    now=0.0,
    vpns=(1,),
    heat=0.0,
    in_flight_bytes=0,
    backlog=0.0,
):
    return MigrationRequest(
        kind=kind,
        nbytes=nbytes,
        nruns=nruns,
        tag=tag,
        now=now,
        vpns=vpns,
        heat=heat,
        in_flight_bytes=in_flight_bytes,
        backlog=backlog,
    )


def make_engine(fast_pages=16, slow_pages=1024, tracer=None, metrics=None):
    table = PageTable(page_size=PAGE)
    fast = MemoryDevice(
        DeviceSpec("fast", fast_pages * PAGE, 1e9, 1e9), DeviceKind.FAST
    )
    slow = MemoryDevice(
        DeviceSpec("slow", slow_pages * PAGE, 1e8, 1e8), DeviceKind.SLOW
    )
    engine = MigrationEngine(
        table,
        fast,
        slow,
        BandwidthChannel(1e6, "promote"),
        BandwidthChannel(5e5, "demote"),
        stats=metrics,
        tracer=tracer,
    )
    return table, fast, slow, engine


def map_on(table, device, npages, fast, slow):
    run = table.map_run(npages, device)
    (fast if device is DeviceKind.FAST else slow).allocate(npages * PAGE)
    return run


class DenyAll(AdmissionController):
    """Test double: refuse every background request."""

    name = "deny-all"

    def __init__(self):
        self.seen = []

    def decide(self, req):
        self.seen.append(req)
        return deny("test")


class TestRegistry:
    def test_registered_names(self):
        assert set(CONTROLLERS) == {"always", "benefit-cost", "feedback"}

    def test_make_admission_builds_fresh_instances(self):
        a = make_admission("feedback")
        b = make_admission("feedback")
        assert a is not b
        assert a.name == "feedback"

    def test_make_admission_forwards_kwargs(self):
        controller = make_admission("feedback", stall_target=0.2)
        assert controller.stall_target == 0.2

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown admission controller"):
            make_admission("nope")

    def test_controller_for_resolves_names_only(self):
        assert controller_for(None) is None
        assert controller_for(None, {}) is None
        controller = controller_for("feedback", {"stall_target": 0.2})
        assert isinstance(controller, FeedbackController)
        assert controller.stall_target == 0.2
        with pytest.raises(ValueError, match="without a controller name"):
            controller_for(None, {"stall_target": 0.2})


class TestParseArgs:
    def test_empty_and_none(self):
        assert parse_admission_args(None) == {}
        assert parse_admission_args("") == {}

    def test_coercion_order(self):
        args = parse_admission_args(
            "a=3,b=0.25,c=true,d=False,e=hello"
        )
        assert args == {"a": 3, "b": 0.25, "c": True, "d": False, "e": "hello"}
        assert isinstance(args["a"], int)

    def test_dashes_normalize_to_underscores(self):
        assert parse_admission_args("stall-target=0.1") == {"stall_target": 0.1}

    def test_missing_equals_raises(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_admission_args("oops")


class TestDecisions:
    def test_verdict_helpers(self):
        assert admit().verdict == ADMIT and admit().admitted
        assert deny("x").verdict == DENY and not deny("x").admitted
        assert defer("y").verdict == DEFER and not defer("y").admitted
        assert deny("low-benefit").reason == "low-benefit"

    def test_admit_is_shared_singleton(self):
        assert admit() is admit()


class TestAlwaysAdmit:
    def test_admits_everything(self):
        controller = AlwaysAdmit()
        assert controller.decide(request(kind="promote")).admitted
        assert controller.decide(request(kind="demote")).admitted
        assert controller.decide(request(heat=0.0, in_flight_bytes=1 << 30)).admitted


class TestBenefitCost:
    def test_demotes_always_admitted(self):
        controller = BenefitCostController()
        assert controller.decide(
            request(kind="demote", in_flight_bytes=1 << 30)
        ).admitted

    def test_hot_idle_promote_admitted(self):
        controller = BenefitCostController()
        assert controller.decide(request(heat=8.0)).admitted

    def test_occupied_channel_defers(self):
        # Benefit 1 (floor) against in-flight load 16x the payload: defer.
        controller = BenefitCostController()
        decision = controller.decide(
            request(nbytes=PAGE, in_flight_bytes=16 * PAGE)
        )
        assert decision.verdict == DEFER
        assert decision.reason == "occupancy"

    def test_idle_low_benefit_denies(self):
        controller = BenefitCostController(min_benefit=2.0)
        decision = controller.decide(request(heat=0.0))
        assert decision.verdict == DENY
        assert decision.reason == "low-benefit"

    def test_pingpong_penalty_flips_the_decision(self):
        controller = BenefitCostController(
            min_benefit=0.5, pingpong_window=1.0, pingpong_penalty=4.0
        )
        # The same promote admits cold...
        assert controller.decide(request(vpns=(7,), now=1.0)).admitted
        # ...but after an admitted demote of the same vpn, benefit/4 < 0.5.
        controller.on_admitted(request(kind="demote", vpns=(7,), now=1.5))
        decision = controller.decide(request(vpns=(7,), now=2.0))
        assert not decision.admitted
        assert decision.reason == "low-benefit"
        # Outside the window the penalty expires.
        assert controller.decide(request(vpns=(7,), now=9.0)).admitted

    def test_bad_params_raise(self):
        with pytest.raises(ValueError):
            BenefitCostController(min_benefit=0.0)
        with pytest.raises(ValueError):
            BenefitCostController(pingpong_penalty=0.5)


class TestFeedback:
    def test_demotes_always_admitted(self):
        controller = FeedbackController()
        controller.on_step(0, 1.0, 1.0)  # fully stalled: throttle trips
        assert controller.throttled
        assert controller.decide(request(kind="demote")).admitted

    def test_cooldown_denies_repromote(self):
        controller = FeedbackController(cooldown=0.5)
        controller.on_admitted(request(kind="demote", vpns=(3,), now=1.0))
        decision = controller.decide(request(vpns=(3,), now=1.2))
        assert decision.verdict == DENY
        assert decision.reason == "cooldown"
        # After the cooldown the vpn promotes again.
        assert controller.decide(request(vpns=(3,), now=1.6)).admitted

    def test_hysteresis_throttles_and_releases(self):
        controller = FeedbackController(
            stall_target=0.1, release=0.5, smoothing=1.0
        )
        controller.on_step(0, 1.0, 0.2)
        assert controller.throttled
        assert controller.decide(request()).reason == "stall-share"
        # Between release*target and target: the throttle holds (hysteresis).
        controller.on_step(1, 1.0, 0.07)
        assert controller.throttled
        controller.on_step(2, 1.0, 0.0)
        assert not controller.throttled
        assert controller.decide(request()).admitted

    def test_rate_limit_defers_excess(self):
        controller = FeedbackController(
            rate_bytes_per_s=1024.0, burst_bytes=2 * PAGE
        )
        first = request(nbytes=2 * PAGE, now=0.0)
        assert controller.decide(first).admitted
        controller.on_admitted(first)
        decision = controller.decide(request(nbytes=PAGE, now=0.0))
        assert decision.verdict == DEFER
        assert decision.reason == "rate-limit"
        # The budget refills with simulated time.
        assert controller.decide(request(nbytes=PAGE, now=10.0)).admitted

    def test_zero_duration_step_is_ignored(self):
        controller = FeedbackController()
        controller.on_step(0, 0.0, 0.0)
        assert not controller.throttled

    def test_bad_params_raise(self):
        with pytest.raises(ValueError):
            FeedbackController(stall_target=0.0)
        with pytest.raises(ValueError):
            FeedbackController(release=1.5)
        with pytest.raises(ValueError):
            FeedbackController(smoothing=0.0)


class TestEngineGate:
    def test_deny_is_the_case2_signal(self):
        table, fast, slow, engine = make_engine()
        engine.admission = DenyAll()
        run = map_on(table, DeviceKind.SLOW, 4, fast, slow)
        transfer, scheduled, skipped = engine.promote([run], now=0.0)
        assert transfer is None and scheduled == []
        assert skipped == [run]
        assert fast.used == 0  # nothing was reserved

    def test_denied_demote_stays_on_fast(self):
        table, fast, slow, engine = make_engine()
        engine.admission = DenyAll()
        run = map_on(table, DeviceKind.FAST, 4, fast, slow)
        transfer, scheduled = engine.demote([run], now=0.0)
        assert transfer is None and scheduled == []
        assert run.device is DeviceKind.FAST

    def test_urgent_bypasses_the_controller(self):
        table, fast, slow, engine = make_engine()
        controller = DenyAll()
        engine.admission = controller
        run = map_on(table, DeviceKind.SLOW, 4, fast, slow)
        transfer, scheduled, skipped = engine.promote([run], now=0.0, urgent=True)
        assert scheduled == [run] and skipped == []
        assert controller.seen == []  # never consulted

    def test_request_carries_engine_state(self):
        table, fast, slow, engine = make_engine()
        controller = DenyAll()
        engine.admission = controller
        run = map_on(table, DeviceKind.SLOW, 4, fast, slow)
        run.reads += 6
        run.writes += 2
        engine.promote([run], now=2.5, tag="prefetch")
        (req,) = controller.seen
        assert req.kind == "promote"
        assert req.nbytes == 4 * PAGE
        assert req.nruns == 1
        assert req.tag == "prefetch"
        assert req.now == 2.5
        assert req.vpns == (run.vpn,)
        assert req.heat == pytest.approx(8 / 4)

    def test_counters_and_help_on_deny(self):
        registry = MetricsRegistry()
        table, fast, slow, engine = make_engine(metrics=registry)
        engine.admission = DenyAll()
        run = map_on(table, DeviceKind.SLOW, 4, fast, slow)
        engine.promote([run], now=0.0)
        assert registry.counter("admission.denied.test").value == 1
        assert registry.counter("admission.denied_bytes").value == 4 * PAGE

    def test_admitted_counters_without_trace_events(self):
        tracer = EventTracer()
        registry = MetricsRegistry()
        table, fast, slow, engine = make_engine(tracer=tracer, metrics=registry)
        engine.admission = AlwaysAdmit()
        run = map_on(table, DeviceKind.SLOW, 4, fast, slow)
        engine.promote([run], now=0.0)
        assert registry.counter("admission.admitted").value == 1
        assert registry.counter("admission.admitted_bytes").value == 4 * PAGE
        assert not [e for e in tracer.events if e.cat == "admission"]

    def test_deny_emits_admission_instant(self):
        tracer = EventTracer()
        table, fast, slow, engine = make_engine(tracer=tracer)
        engine.admission = DenyAll()
        run = map_on(table, DeviceKind.SLOW, 4, fast, slow)
        engine.promote([run], now=0.0, tag="prefetch")
        events = [e for e in tracer.events if e.cat == "admission"]
        assert len(events) == 1
        assert events[0].name == "admission-deny"
        assert events[0].args["reason"] == "test"
        assert events[0].args["kind"] == "promote"
        assert events[0].args["nbytes"] == 4 * PAGE
