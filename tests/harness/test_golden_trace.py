"""Golden-trace snapshots: the event stream is part of the contract.

A structured trace is only trustworthy if replaying the same run
reproduces it byte for byte; these tests pin the canonical JSONL digest of
a small end-to-end run against its cell of the checked-in golden corpus
(``tests/golden/corpus.json``), so any change to event ordering, naming,
payloads, or the simulation itself shows up as a digest mismatch rather
than silently shifting what traces mean.

To refresh the corpus after an intentional change, from the repository
root::

    PYTHONPATH=src python -m tests.golden.corpus
"""

import pytest

from repro.chaos import ChaosConfig
from repro.harness.runner import run_policy
from repro.obs import EventTracer, canonical_digest, to_jsonl

from tests.golden.corpus import ALWAYS_CASES, Cell, load, run_cell

MODEL = "dcgan"

RECORDED = load()

#: The corpus cell of the run :func:`traced_run` makes without chaos.
GOLDEN = RECORDED[Cell("sentinel", MODEL).key]["trace"]


def traced_run(chaos=None, seed=99):
    tracer = EventTracer()
    config = None if chaos is None else ChaosConfig.uniform(chaos, seed=seed)
    run_policy(
        "sentinel", model=MODEL, fast_fraction=0.2, chaos=config, tracer=tracer
    )
    return tracer.events


class TestGoldenTrace:
    def test_trace_matches_checked_in_golden(self):
        assert canonical_digest(traced_run()) == GOLDEN

    def test_replay_is_byte_identical(self):
        first = traced_run()
        second = traced_run()
        assert to_jsonl(first) == to_jsonl(second)

    def test_chaos_replay_is_byte_identical(self):
        first = traced_run(chaos=0.2, seed=99)
        second = traced_run(chaos=0.2, seed=99)
        assert to_jsonl(first) == to_jsonl(second)

    def test_different_chaos_seed_changes_the_trace(self):
        assert canonical_digest(traced_run(chaos=0.2, seed=99)) != canonical_digest(
            traced_run(chaos=0.2, seed=100)
        )

    def test_chaos_changes_the_trace_but_not_its_determinism(self):
        # Both runs are corpus cells, which replay deterministically.
        chaos = Cell("sentinel", MODEL, variant="chaos")
        assert RECORDED[chaos.key]["trace"] != GOLDEN

    def test_metrics_registry_never_perturbs_the_trace(self):
        # Counting is observation only: handing the machine a registry must
        # leave the simulated timeline — and therefore the golden digest —
        # byte-identical to a run that counts into its own.
        from repro.obs import EventTracer, MetricsRegistry

        tracer = EventTracer()
        registry = MetricsRegistry()
        run_policy(
            "sentinel",
            model=MODEL,
            fast_fraction=0.2,
            tracer=tracer,
            metrics=registry,
        )
        assert canonical_digest(tracer.events) == GOLDEN
        # ...while the registry itself counted the run.
        assert registry.counter("migration.promoted_bytes").value > 0


class TestAdmissionByteIdentity:
    """`AlwaysAdmit` is contractually byte-identical to no controller.

    The zoo-wide differential pins the admission gate's disabled/default
    contract: a run with ``admission="always"`` must reproduce the exact
    trace digest of an admission-unset run — the gate admits everything,
    consumes no randomness, and emits trace events only on deny/defer.
    Each ``always`` run is also its golden-corpus cell, so the gate cannot
    drift together with the baseline.
    """

    def digest(self, policy, model, fraction, admission, **args):
        tracer = EventTracer()
        run_policy(
            policy,
            model=model,
            fast_fraction=fraction,
            tracer=tracer,
            admission=admission,
            admission_args=args or None,
        )
        return canonical_digest(tracer.events)

    @pytest.mark.parametrize("policy,model,fraction", ALWAYS_CASES)
    def test_always_admit_matches_unset(self, policy, model, fraction):
        unset = self.digest(policy, model, fraction, None)
        cell = Cell(policy, model, fraction, "always")
        always = run_cell(cell)
        assert always == RECORDED[cell.key]
        assert always["trace"] == unset

    def test_always_admit_matches_checked_in_golden(self):
        cell = Cell("sentinel", MODEL, 0.2, "always")
        assert RECORDED[cell.key]["trace"] == GOLDEN

    def test_active_controller_changes_the_run(self):
        # Sanity check on the differential's power: a controller that
        # actually denies migrations must move the digest.
        feedback = self.digest(
            "sentinel", MODEL, 0.2, "feedback", stall_target=0.01
        )
        assert feedback != GOLDEN
