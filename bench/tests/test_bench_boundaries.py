"""Every boundary in the span table resolves and is reached on a dcgan smoke."""

import spans
from repro.harness import tournament
from repro.serve import JobTemplate, ServeConfig, Server, TraceArrivals


def dcgan_smoke():
    """Small dcgan versions of the three workloads' entry points."""
    tournament.run_tournament(
        models=("dcgan",),
        policies=("sentinel", "ial", "autotm"),
        admissions=("always", "benefit-cost", "feedback"),
        governors=(True,),
        fast_fraction=0.1,
    )
    job = JobTemplate(name="infer", model="dcgan", policy="ial", steps=1, slo=15.0)
    Server(
        TraceArrivals(trace=[(0.0, "infer"), (0.5, "infer")], templates=(job,)),
        ServeConfig(seed=1, slots=2, admission="edf", queue_limit=4, timeout=240.0),
        fast_fraction=0.5,
    ).run()


def test_every_boundary_is_reached_and_self_times_add_up():
    recorder = spans.SpanRecorder()
    boundaries = spans.Boundaries(recorder).install()
    try:
        recorder.open_root()
        dcgan_smoke()
        round_s = recorder.close_root()
    finally:
        boundaries.uninstall()
    assert boundaries.unreached() == []
    times = recorder.self_times()
    assert set(times) == {spans.ROOT, *spans.LAYERS}
    assert all(own > -1e-6 for own, _ in times.values())
    assert abs(sum(own for own, _ in times.values()) - round_s) <= 0.01 * round_s
    assert all(times[layer][1] > 0 for layer in spans.LAYERS)
    assert len(recorder.generator_s) > 0


def test_uninstall_leaves_no_wrapper_behind():
    originals = {
        boundary: spans.resolve(boundary)[2]
        for bounds in spans.BOUNDARIES.values()
        for boundary in bounds
    }
    boundaries = spans.Boundaries(spans.SpanRecorder()).install()
    boundaries.uninstall()
    for boundary, raw in originals.items():
        assert spans.resolve(boundary)[2] is raw, boundary
    assert tournament.run_policy is originals["repro.harness.runner:run_policy"]
