"""Open-loop job arrival processes for the serving harness.

A serving system's load is *open loop*: requests arrive on their own
schedule whether or not the machine can absorb them, which is what makes
overload a real operating point instead of an impossibility.  This module
turns a seeded description of traffic — a Poisson rate over a weighted mix
of job templates, or an explicit trace — into a concrete, fully
deterministic arrival schedule that :class:`repro.serve.server.Server`
replays on the discrete-event engine.

Determinism contract: the schedule is precomputed from per-concern
``random.Random`` streams seeded from ``(seed, concern)`` before the engine
runs, so the arrival sequence is a pure function of the config — it cannot
be perturbed by how the simulation interleaves, and the same seed yields a
byte-identical workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.dnn.graph import Graph
from repro.models.zoo import build_model

__all__ = [
    "JobTemplate",
    "SERVE_MIX",
    "Arrival",
    "PoissonArrivals",
    "TraceArrivals",
]


@dataclass(frozen=True)
class JobTemplate:
    """One job class in the traffic mix.

    A template describes everything needed to run one job instance: the
    model (or an explicit graph), the placement policy, how many steady
    steps constitute the job, and its service-level objective.  Short
    ``steps`` with a tight ``slo`` models an inference request; larger
    ``steps`` with a loose ``slo`` models a training job.

    Attributes:
        name: template label; job instances are named ``{name}#{index}``.
        model: zoo model name (exactly one of ``model``/``graph``).
        graph: explicit graph (exactly one of ``model``/``graph``).
        policy: placement policy name (see :data:`repro.baselines.POLICIES`).
        batch_size: optional batch-size override for zoo models.
        scale: zoo scale preset (``"small"``/``"large"``).
        steps: steady training/inference steps per job (> 0); Sentinel
            policies run their warm-up/profiling steps on top.
        slo: deadline in simulated seconds from *arrival* (not dispatch);
            a job finishing later still completes but misses its SLO.
        weight: relative draw weight in a Poisson mix (> 0).
    """

    name: str
    model: Optional[str] = None
    graph: Optional[Graph] = None
    policy: str = "sentinel"
    batch_size: Optional[int] = None
    scale: str = "small"
    steps: int = 1
    slo: float = 1.0
    weight: float = 1.0

    def __post_init__(self) -> None:
        if (self.graph is None) == (self.model is None):
            raise ValueError(
                f"template {self.name!r}: provide exactly one of model= or graph="
            )
        if self.steps <= 0:
            raise ValueError(
                f"template {self.name!r}: steps must be positive, got {self.steps!r}"
            )
        if self.slo <= 0.0:
            raise ValueError(
                f"template {self.name!r}: slo must be positive, got {self.slo!r}"
            )
        if self.weight <= 0.0:
            raise ValueError(
                f"template {self.name!r}: weight must be positive, got "
                f"{self.weight!r}"
            )

    def build_graph(self) -> Graph:
        """The template's graph: ``graph`` itself, or a fresh zoo build.

        :class:`~repro.serve.Server` calls this once per template and runs
        every job of the template on the result.
        """
        if self.graph is not None:
            return self.graph
        return build_model(self.model, batch_size=self.batch_size, scale=self.scale)


#: The serving mix of ``repro serve`` and the ``serving`` experiment:
#: mobilenet inference at weight 4 and 2-step dcgan training, both under
#: ``ial``.
SERVE_MIX = (
    JobTemplate(
        name="infer", model="mobilenet", policy="ial", steps=1, slo=15.0, weight=4.0
    ),
    JobTemplate(name="train", model="dcgan", policy="ial", steps=2, slo=60.0),
)


@dataclass(frozen=True)
class Arrival:
    """One job entering the system: ``template`` arriving at ``time``."""

    time: float
    template: JobTemplate
    index: int

    @property
    def job_name(self) -> str:
        return f"{self.template.name}#{self.index}"


@dataclass(frozen=True)
class PoissonArrivals:
    """Seeded open-loop Poisson traffic over a weighted template mix.

    Inter-arrival gaps are exponential draws at ``rate`` jobs/second from
    the ``(seed, "arrivals")`` stream; each arrival's template is a
    weighted draw from the independent ``(seed, "mix")`` stream, so adding
    a template to the mix never shifts the arrival *times*.

    Attributes:
        rate: mean arrivals per simulated second (> 0).
        horizon: arrivals occur strictly before this time (> 0).
        templates: non-empty traffic mix with unique names.
        seed: RNG seed; the schedule is a pure function of it.
    """

    rate: float
    horizon: float
    templates: Sequence[JobTemplate] = field(default_factory=tuple)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rate <= 0.0:
            raise ValueError(f"arrival rate must be positive, got {self.rate!r}")
        if self.horizon <= 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon!r}")
        if not self.templates:
            raise ValueError("PoissonArrivals needs at least one JobTemplate")
        names = [t.name for t in self.templates]
        if len(set(names)) != len(names):
            raise ValueError(f"template names must be unique, got {names!r}")

    def schedule(self) -> List[Arrival]:
        """The concrete arrival list, sorted by time (deterministic)."""
        gaps = random.Random(f"{self.seed}:arrivals")
        mix = random.Random(f"{self.seed}:mix")
        templates = list(self.templates)
        weights = [t.weight for t in templates]
        total = sum(weights)
        arrivals: List[Arrival] = []
        t = gaps.expovariate(self.rate)
        index = 0
        while t < self.horizon:
            pick = mix.random() * total
            chosen = templates[-1]
            for template, weight in zip(templates, weights):
                if pick < weight:
                    chosen = template
                    break
                pick -= weight
            arrivals.append(Arrival(time=t, template=chosen, index=index))
            index += 1
            t += gaps.expovariate(self.rate)
        return arrivals


@dataclass(frozen=True)
class TraceArrivals:
    """Replay an explicit arrival trace (time, template-name) pairs.

    For regression scenarios where the exact arrival pattern matters more
    than its statistics — e.g. a synchronized burst that must overflow the
    admission queue.

    Attributes:
        trace: ``(time, template_name)`` pairs; times must be >= 0 and
            non-decreasing.
        templates: the template catalogue the trace references.
    """

    trace: Sequence = field(default_factory=tuple)
    templates: Sequence[JobTemplate] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        catalogue = {t.name for t in self.templates}
        last = 0.0
        for entry in self.trace:
            when, name = entry
            if when < last:
                raise ValueError(
                    f"trace times must be non-decreasing, got {when!r} after "
                    f"{last!r}"
                )
            last = when
            if name not in catalogue:
                raise ValueError(
                    f"trace references unknown template {name!r}; catalogue "
                    f"has {sorted(catalogue)}"
                )

    def schedule(self) -> List[Arrival]:
        by_name = {t.name: t for t in self.templates}
        return [
            Arrival(time=when, template=by_name[name], index=index)
            for index, (when, name) in enumerate(self.trace)
        ]
