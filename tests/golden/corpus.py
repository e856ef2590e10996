"""Golden corpus: checked-in digests of end-to-end runs.

Most cells are one :func:`~repro.harness.runner.run_policy` call: a policy
on a zoo model at a fast-memory fraction (``None`` runs unconstrained),
plain or with one feature toggled — chaos, the pressure governor, a RAS
storm, an admission controller, an insight collector, or 40 steady steps
instead of the default 4 (``steady40``).  ``corpus.json``
records two sha256 digests per cell, and a third for ``insight`` cells:

* ``metrics`` — the canonical JSON of the run's ``RunMetrics``, every field
  including the extras counters;
* ``trace`` — :func:`repro.obs.canonical_digest` of the full event trace;
* ``insight`` — the canonical insight artifact,
  :func:`repro.obs.insight_json` of the collector's report.

The system cells run many jobs on one shared machine instead: a
:class:`~repro.serve.Server` on each of the ``repro serve`` presets plus one
run with channel blackouts (:class:`ServeCell`), and one
:func:`~repro.harness.cluster.run_concurrent` co-schedule
(:class:`ConcurrentCell`).  Each records ``report`` — the sha256 of the
canonical ``ServeReport.to_json()``, or of the ``ClusterReport`` with its
per-channel busy time and queueing delay — and ``trace``.  The overload and
failure serve cells also attach an insight collector and record
``insight``; the collector observes only, so their other digests equal the
same runs without it.

A change that keeps every cell byte-identical has not changed what the
simulator computes.  After an intentional change to simulated behaviour,
regenerate the corpus from the repository root with::

    PYTHONPATH=src python -m tests.golden.corpus

Every cell was first recorded while the simulator still kept a scalar
reference twin of each vectorized hot path, and each cell agreed on both
paths.  An ``always`` or ``insight`` cell is written only when its trace
equals the trace of the same run without the controller or collector.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.chaos import ChaosConfig, EpisodeConfig
from repro.cli import SERVE_SCENARIOS
from repro.harness.cluster import WorkloadSpec, run_concurrent
from repro.harness.runner import RunMetrics, run_policy
from repro.harness.tournament import TOURNAMENT_PRESSURE
from repro.mem.platforms import GPU_HM, OPTANE_HM
from repro.mem.ras import RASConfig
from repro.obs import EventTracer, InsightCollector, canonical_digest, insight_json
from repro.serve import SERVE_MIX, PoissonArrivals, ServeConfig, Server

CORPUS_PATH = Path(__file__).resolve().with_name("corpus.json")

#: A UE storm heavy enough that every zoo model takes UEs on live
#: activations, with scrubbing and remat recovery on.
STORM = RASConfig(
    seed=1337,
    ue_rate=1e-9,
    ce_rate=1e-8,
    scrub_bandwidth=256 * 1024**2,
    recovery="remat",
)

#: Extra ``run_policy`` arguments of each variant.  An ``insight`` run also
#: gets a fresh :class:`~repro.obs.InsightCollector` (see :func:`run_cell`).
VARIANTS: Dict[str, Dict[str, object]] = {
    "plain": {},
    "chaos": {"chaos": ChaosConfig.uniform(0.2, seed=99)},
    "pressure": {"pressure": TOURNAMENT_PRESSURE},
    "ras": {"ras": STORM},
    "feedback": {"admission": "feedback", "admission_args": {"stall_target": 0.01}},
    "always": {"admission": "always"},
    "insight": {},
    "steady40": {"steady_steps": 40},
}
#: Variants that must observe without steering: each keeps the plain trace.
OBSERVING = ("always", "insight")

PLATFORMS = {"optane": OPTANE_HM, "gpu": GPU_HM}


class Cell(NamedTuple):
    policy: str
    model: str
    fraction: Optional[float] = 0.2
    variant: str = "plain"
    platform: str = "optane"

    @property
    def key(self) -> str:
        fraction = "full" if self.fraction is None else f"{self.fraction:g}"
        return "/".join(
            (self.policy, self.model, fraction, self.variant, self.platform)
        )

    def plain(self) -> "Cell":
        return self._replace(variant="plain")

    def run(
        self,
        tracer: Optional[EventTracer] = None,
        insight: Optional[InsightCollector] = None,
    ) -> RunMetrics:
        return run_policy(
            self.policy,
            model=self.model,
            fast_fraction=self.fraction,
            platform=PLATFORMS[self.platform],
            tracer=tracer,
            insight=insight,
            **VARIANTS[self.variant],
        )


ZOO = ("resnet32", "bert-base", "lstm", "mobilenet", "gpt-small", "dcgan")
LARGE_ZOO = ("resnet200", "bert-large", "gpt-medium")
#: Every toggle runs on the migrating policies over three model families.
TOGGLES = ("chaos", "pressure", "ras", "feedback")
TOGGLE_POLICIES = ("sentinel", "ial", "autotm")
TOGGLE_MODELS = ("dcgan", "mobilenet", "bert-base")
#: (policy, model, fraction) of the always-admit cells.
ALWAYS_CASES = (
    ("sentinel", "dcgan", 0.2),
    ("sentinel", "lstm", 0.4),
    ("ial", "mobilenet", 0.3),
    ("autotm", "resnet32", 0.4),
)
#: (policy, model, fraction) of the insight cells: the cases
#: ``tests/integration/test_insight_differential.py`` runs.
INSIGHT_CASES = (
    ("sentinel", "dcgan", 0.3),
    ("sentinel", "lstm", 0.5),
    ("ial", "mobilenet", 0.4),
    ("autotm", "lstm", 0.4),
)
#: Models of the ``steady40`` cells: Sentinel's managed steps past the
#: fourth, where every steady step reallocates, frees and evicts the same
#: tensors (the benchmark's train-steady models).
STEADY40_MODELS = ("resnet32", "mobilenet", "bert-base", "dcgan")
#: (policy, model) of the GPU baseline cells, each at 40% on ``GPU_HM``:
#: the swap-schedule executors, Capuchin's discards and the on-demand
#: eviction every residency policy's miss path reaches.
GPU_BASELINE_CASES = (
    ("swapadvisor", "lstm"),
    ("capuchin", "lstm"),
    ("unified-memory", "dcgan"),
    ("vdnn", "dcgan"),
    ("autotm", "dcgan"),
)


def _cells() -> List[Cell]:
    cells = [
        Cell(policy, model, None if policy == "fast-only" else 0.2)
        for policy in ("sentinel", "ial", "autotm", "fast-only")
        for model in ZOO
    ]
    cells += [Cell("sentinel", model) for model in LARGE_ZOO]
    cells += [
        Cell(policy, model, variant=variant)
        for variant in TOGGLES
        for policy in TOGGLE_POLICIES
        for model in TOGGLE_MODELS
    ]
    cells += [
        Cell("slow-only", "dcgan", None),
        Cell("first-touch", "dcgan", 0.3),
        Cell("memory-mode", "dcgan", 0.5),
        Cell("vdnn", "dcgan", 0.4),
        Cell("capuchin", "dcgan", 0.5),
    ]
    cells += [
        Cell("sentinel-gpu", model, platform="gpu") for model in ("dcgan", "resnet32")
    ]
    cells += [
        Cell(policy, model, 0.4, platform="gpu")
        for policy, model in GPU_BASELINE_CASES
    ]
    cells += [Cell(*case, variant="always") for case in ALWAYS_CASES]
    cells += [Cell(*case, variant="insight") for case in INSIGHT_CASES]
    cells += [
        Cell("sentinel", model, 0.2, variant="steady40") for model in STEADY40_MODELS
    ]
    return cells


CELLS = _cells()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _dataclass_digest(result) -> str:
    """sha256 of a result dataclass's canonical JSON, every field included."""
    return _sha256(
        json.dumps(dataclasses.asdict(result), sort_keys=True, separators=(",", ":"))
    )


def _trace_digest(tracer: EventTracer) -> str:
    if tracer.dropped:
        raise ValueError(f"trace dropped {tracer.dropped} events")
    return canonical_digest(tracer.events)


def digests(
    metrics: RunMetrics,
    tracer: EventTracer,
    insight: Optional[InsightCollector] = None,
) -> Dict[str, str]:
    """The digests a cell records, from a finished traced run."""
    recorded = {
        "metrics": _dataclass_digest(metrics),
        "trace": _trace_digest(tracer),
    }
    if insight is not None:
        recorded["insight"] = _sha256(insight_json(insight.report()))
    return recorded


def run_cell(cell: Cell) -> Dict[str, str]:
    tracer = EventTracer()
    insight = InsightCollector() if cell.variant == "insight" else None
    metrics = cell.run(tracer, insight)
    return digests(metrics, tracer, insight)


#: The CLI's serve presets as (rate, horizon, episode arguments), plus a
#: run whose channel blackouts (11 on seed 7) suspend transfers in flight.
SERVE_CASES = dict(
    SERVE_SCENARIOS,
    blackout=(0.6, 40.0, {"blackout_mtbf": 3.0, "blackout_mttr": 0.5}),
)


#: Serve cells that also attach an insight collector: its per-job scopes,
#: the teardown retirements of ``on_attempt_end`` and the job reservoir.
SERVE_INSIGHT = ("overload", "failure")


class ServeCell(NamedTuple):
    """One :class:`~repro.serve.Server` run with the ``repro serve`` defaults
    (seed 7)."""

    scenario: str

    @property
    def key(self) -> str:
        return f"serve/{self.scenario}"

    def digests(self) -> Dict[str, str]:
        rate, horizon, episodes = SERVE_CASES[self.scenario]
        tracer = EventTracer()
        insight = InsightCollector() if self.scenario in SERVE_INSIGHT else None
        report = Server(
            PoissonArrivals(rate=rate, horizon=horizon, templates=SERVE_MIX, seed=7),
            ServeConfig(
                seed=7,
                slots=2,
                admission="edf",
                queue_limit=4,
                timeout=240.0,
                max_attempts=3,
                restart_budget=2,
                episodes=None
                if episodes is None
                else EpisodeConfig(seed=7, horizon=horizon, **episodes),
            ),
            platform=OPTANE_HM,
            fast_fraction=0.5,
            tracer=tracer,
            insight=insight,
        ).run()
        recorded = {"report": _sha256(report.to_json()), "trace": _trace_digest(tracer)}
        if insight is not None:
            recorded["insight"] = _sha256(insight_json(insight.report()))
        return recorded


class ConcurrentCell(NamedTuple):
    """One :func:`~repro.harness.cluster.run_concurrent` co-schedule.

    ``workloads`` holds ``(policy, model)`` pairs; fast memory is
    ``fraction`` of their combined peak.
    """

    workloads: Tuple[Tuple[str, str], ...]
    fraction: float = 0.2

    @property
    def key(self) -> str:
        tenants = "+".join(f"{policy}/{model}" for policy, model in self.workloads)
        return f"concurrent/{tenants}/{self.fraction:g}"

    def digests(self) -> Dict[str, str]:
        tracer = EventTracer()
        report = run_concurrent(
            [
                WorkloadSpec(name=f"{model}-{index}", model=model, policy=policy)
                for index, (policy, model) in enumerate(self.workloads)
            ],
            fast_fraction=self.fraction,
            tracer=tracer,
        )
        return {"report": _dataclass_digest(report), "trace": _trace_digest(tracer)}


SYSTEM_CELLS = [ServeCell(scenario) for scenario in SERVE_CASES] + [
    ConcurrentCell((("ial", "dcgan"), ("sentinel", "lstm")))
]


def load() -> Dict[str, Dict[str, str]]:
    """Recorded digests by cell key."""
    return json.loads(CORPUS_PATH.read_text())["cells"]


def main() -> int:
    cells: Dict[str, Dict[str, str]] = {}
    refused: List[str] = []
    for cell in CELLS:
        recorded = run_cell(cell)
        if (
            cell.variant in OBSERVING
            and run_cell(cell.plain())["trace"] != recorded["trace"]
        ):
            refused.append(f"{cell.key}: trace differs from the run without it")
            continue
        cells[cell.key] = recorded
        print(cell.key, flush=True)
    for cell in SYSTEM_CELLS:
        cells[cell.key] = cell.digests()
        print(cell.key, flush=True)
    CORPUS_PATH.write_text(
        json.dumps({"schema": 1, "cells": cells}, indent=1, sort_keys=True) + "\n"
    )
    for problem in refused:
        print(problem, file=sys.stderr)
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
