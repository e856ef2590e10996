"""Composable parameter sweeps over (policy, model, machine) space.

The per-figure experiments in :mod:`repro.harness.experiments` are fixed
shapes; research use wants free-form grids: "every policy on these three
models at these fast fractions".  :func:`sweep` runs the cartesian product,
tolerates per-point failures (unsupported models, OOM) by recording them,
and renders comparisons.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.baselines.vdnn import UnsupportedModelError
from repro.chaos import ChaosConfig
from repro.harness.report import format_table
from repro.harness.runner import OOM_ERRORS, RunMetrics, run_policy
from repro.mem.platforms import OPTANE_HM, Platform
from repro.mem.pressure import PressureConfig

T = TypeVar("T")
R = TypeVar("R")


def point_seed(base_seed: int, *key: object) -> int:
    """Deterministic per-grid-point seed, stable across processes.

    Derived with CRC-32 rather than ``hash()`` (whose value changes per
    interpreter invocation for strings), so a sweep's fault sequence for a
    given point does not depend on grid order or process: adding a policy
    to the sweep leaves every other point's faults unchanged.
    """
    material = ":".join(str(part) for part in (base_seed,) + key)
    return zlib.crc32(material.encode("utf-8"))


@dataclass(frozen=True)
class SweepPoint:
    """One grid point and its outcome."""

    policy: str
    model: str
    batch_size: Optional[int]
    fast_fraction: Optional[float]
    metrics: Optional[RunMetrics]  # None if the point failed
    failure: Optional[str] = None  # "unsupported" | "oom"
    #: captured event trace (``sweep(trace=True)``); failed points keep
    #: whatever was recorded before the failure — often the interesting part.
    events: Optional[Tuple] = None
    #: canonical insight artifact dict (``sweep(insight=True)``); ``None``
    #: for insight-free sweeps and for points that failed before finalize.
    insight: Optional[Dict] = None

    @property
    def ok(self) -> bool:
        return self.metrics is not None

    @property
    def label(self) -> str:
        """Stable display label for this point (trace export, tables)."""
        parts = [self.policy, self.model]
        if self.fast_fraction is not None:
            parts.append(f"f{self.fast_fraction:g}")
        return "/".join(parts)


@dataclass
class SweepResult:
    """All grid points, with query and rendering helpers."""

    points: List[SweepPoint]

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def where(self, **criteria) -> List[SweepPoint]:
        """Points matching every given field value.

        Unknown criteria names raise :class:`AttributeError` immediately —
        a typo like ``where(modle="lstm")`` used to return ``[]`` for a
        non-empty grid, which reads as "no matches" instead of "bad query".
        """
        known = {field.name for field in fields(SweepPoint)} | {"ok", "label"}
        for key in criteria:
            if key not in known:
                raise AttributeError(
                    f"SweepPoint has no attribute {key!r} "
                    f"(queryable: {', '.join(sorted(known))})"
                )
        out = []
        for point in self.points:
            if all(getattr(point, key) == value for key, value in criteria.items()):
                out.append(point)
        return out

    def best_policy(self, model: str, fast_fraction: Optional[float] = None) -> str:
        """Fastest successful policy for a model (at one fraction if given).

        Ties on step time break lexicographically by policy name, so the
        answer does not depend on grid enumeration order.
        """
        candidates = [
            p
            for p in self.points
            if p.model == model
            and p.ok
            and (fast_fraction is None or p.fast_fraction == fast_fraction)
        ]
        if not candidates:
            raise ValueError(f"no successful points for model {model!r}")
        return min(candidates, key=lambda p: (p.metrics.step_time, p.policy)).policy

    def to_table(self, value: str = "step_time") -> str:
        """Models x policies matrix of a metric (first fraction per pair)."""
        models = sorted({p.model for p in self.points})
        policies = sorted({p.policy for p in self.points})
        rows = []
        for model in models:
            cells: List[object] = [model]
            for policy in policies:
                match = next(
                    (p for p in self.points if p.model == model and p.policy == policy),
                    None,
                )
                if match is None:
                    cells.append("-")
                elif not match.ok:
                    cells.append(match.failure)
                else:
                    cells.append(f"{getattr(match.metrics, value):.4g}")
            rows.append(tuple(cells))
        return format_table(("model",) + tuple(policies), rows, title=f"sweep: {value}")


@dataclass(frozen=True)
class _PointSpec:
    """Everything one grid point needs to run, in any process.

    ``index`` is the point's position in the deterministic serial
    enumeration order.
    """

    index: int
    policy: str
    model: str
    batch_size: Optional[int]
    fast_fraction: Optional[float]
    chaos: Optional[ChaosConfig]
    platform: Platform
    trace: bool
    pressure: Optional[PressureConfig]
    insight: bool = False
    #: admission controller name (built fresh in the running process —
    #: controllers are stateful, so instances must never cross points).
    admission: Optional[str] = None
    admission_args: Optional[Dict[str, object]] = None


def _enumerate_grid(
    policies: Sequence[str],
    models: Sequence[str],
    fast_fractions: Sequence[Optional[float]],
    batch_sizes: Optional[Dict[str, int]],
    platform: Platform,
    chaos: Optional[ChaosConfig],
    trace: bool,
    pressure: Optional[PressureConfig],
    insight: bool = False,
    admission: Optional[str] = None,
    admission_args: Optional[Dict[str, object]] = None,
) -> List[_PointSpec]:
    """The grid in serial order — a pure function of the sweep arguments.

    Chaos reseeding happens here (from the point's own coordinates via
    :func:`point_seed`), so a spec fully determines its point's fault
    sequence before any process runs anything.
    """
    specs: List[_PointSpec] = []
    for model in models:
        batch = (batch_sizes or {}).get(model)
        for policy in policies:
            for fraction in fast_fractions:
                effective = (
                    None if policy in ("slow-only", "fast-only") else fraction
                )
                point_chaos = chaos
                if chaos is not None:
                    point_chaos = chaos.reseeded(
                        point_seed(chaos.seed, policy, model, batch, effective)
                    )
                specs.append(
                    _PointSpec(
                        index=len(specs),
                        policy=policy,
                        model=model,
                        batch_size=batch,
                        fast_fraction=effective,
                        chaos=point_chaos,
                        platform=platform,
                        trace=trace,
                        pressure=pressure,
                        insight=insight,
                        admission=admission,
                        admission_args=admission_args,
                    )
                )
                if policy in ("slow-only", "fast-only"):
                    break  # fraction-independent: one point suffices
    return specs


def _run_point(spec: _PointSpec) -> SweepPoint:
    """Execute one grid point; failures become recorded points."""
    tracer = None
    if spec.trace:
        from repro.obs import EventTracer

        tracer = EventTracer()
    collector = None
    if spec.insight:
        from repro.obs.insight import InsightCollector

        collector = InsightCollector()

    def captured() -> Optional[Tuple]:
        return None if tracer is None else tuple(tracer.events)

    try:
        metrics = run_policy(
            spec.policy,
            model=spec.model,
            batch_size=spec.batch_size,
            platform=spec.platform,
            fast_fraction=spec.fast_fraction,
            chaos=spec.chaos,
            tracer=tracer,
            pressure=spec.pressure,
            insight=collector,
            admission=spec.admission,
            admission_args=spec.admission_args,
        )
        report = None
        if collector is not None:
            report = collector.report(
                meta={"policy": spec.policy, "model": spec.model}
            )
        return SweepPoint(
            spec.policy, spec.model, spec.batch_size, spec.fast_fraction,
            metrics, events=captured(), insight=report,
        )
    except UnsupportedModelError:
        return SweepPoint(
            spec.policy, spec.model, spec.batch_size, spec.fast_fraction,
            None, "unsupported", events=captured(),
        )
    except OOM_ERRORS:
        return SweepPoint(
            spec.policy, spec.model, spec.batch_size, spec.fast_fraction,
            None, "oom", events=captured(),
        )


def pooled_map(
    func: Callable[[T], R], payloads: Sequence[T], workers: int
) -> List[R]:
    """Order-preserving map of isolated simulations over a process pool.

    Every payload must fully determine its result (chaos reseeded per
    point, stateful controllers built in the running process), so results
    depend only on their payload; ``Pool.map`` returns them in payload
    order, which makes ``workers > 1`` byte-identical to serial.
    ``workers=1`` (or a single payload) never touches multiprocessing.
    ``func`` must be a module-level function (the pool pickles it).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    payloads = list(payloads)
    if workers == 1 or len(payloads) <= 1:
        return [func(payload) for payload in payloads]

    import multiprocessing

    ctx = multiprocessing.get_context()
    with ctx.Pool(processes=min(workers, len(payloads))) as pool:
        return pool.map(func, payloads)


def sweep(
    policies: Sequence[str],
    models: Sequence[str],
    fast_fractions: Sequence[Optional[float]] = (0.2,),
    batch_sizes: Optional[Dict[str, int]] = None,
    platform: Platform = OPTANE_HM,
    chaos: Optional[ChaosConfig] = None,
    trace: bool = False,
    pressure: Optional[PressureConfig] = None,
    workers: int = 1,
    insight: bool = False,
    admission: Optional[str] = None,
    admission_args: Optional[Dict[str, object]] = None,
) -> SweepResult:
    """Run the cartesian product and collect every outcome.

    Policies named ``slow-only``/``fast-only`` ignore the fraction (their
    machines are unconstrained); failures become recorded points rather
    than exceptions, so a single infeasible corner does not kill a grid.

    With ``chaos`` given, every point runs under fault injection; each
    point's injector is reseeded with :func:`point_seed` so its fault
    sequence depends only on the point's own coordinates (and the base
    seed), never on grid order — which is also what makes the parallel
    runner safe to use with chaos.

    With ``trace=True`` every point runs with its own fresh
    :class:`repro.obs.EventTracer` and the captured events land on
    :attr:`SweepPoint.events` (each point's timeline starts at 0; use
    :func:`repro.obs.combine_chrome` to view them side by side).

    With ``pressure`` given, every point runs under the same
    :class:`~repro.mem.pressure.PressureConfig` (the governor holds no
    random state, so no per-point reseeding is needed).

    With ``insight=True`` every point runs with its own fresh
    :class:`repro.obs.InsightCollector` and the finalized canonical
    artifact dict lands on :attr:`SweepPoint.insight` (points that fail
    before finalize keep ``None``).  Timing is unaffected either way —
    insight observes the simulation, it never prices anything.

    With ``admission`` given (a registered controller name, see
    :data:`repro.mem.admission.CONTROLLERS`), every point runs with a
    *fresh* controller built from ``admission_args`` — controllers are
    stateful, so instances are constructed in the running process rather
    than shared across points.

    With ``workers > 1`` the grid points run on a multiprocessing pool
    (:func:`pooled_map`).  Every point is an isolated simulation keyed by
    its own spec (chaos already reseeded per point), so the result comes
    back in serial enumeration order and is byte-identical to
    ``workers=1`` no matter which worker finishes first.
    """
    if not policies or not models:
        raise ValueError("need at least one policy and one model")
    if not fast_fractions:
        raise ValueError("need at least one fast fraction (use (None,) for default)")
    specs = _enumerate_grid(
        policies, models, fast_fractions, batch_sizes,
        platform, chaos, trace, pressure, insight,
        admission, admission_args,
    )
    return SweepResult(points=pooled_map(_run_point, specs, workers))
