"""The benchmark's workloads, driven only through public entry points.

A workload runs one *round* of simulated work per :meth:`Workload.run_round`
call through ``run_policy``, ``run_tournament`` or ``Server(...).run()``.
Rounds repeat identical input, so every round must produce the same
simulated outputs (``sim_digest``).  A round is split into *units* (one
``run_policy`` call, one tournament cell, one serving shard) and the host
time of each unit is kept, so the runner can take per-unit medians across
rounds: a burst of host noise then spoils one unit of one round instead of
a whole round.

Functions are looked up on their module at call time (``runner.run_policy``
rather than an imported name), so the traced pass's wrappers see every
call.

Why these three workloads:

* ``train-steady`` is the regime Sentinel exists for: 20% fast memory and
  long steady phases on four zoo models, against fast-only.  No observer
  or governor is attached, and ``core.*`` is a large share of host time.
* ``tournament-mini`` is many short runs, where set-up, warm-up and
  profiling dominate.  It is the only workload with an observer attached
  (an ``InsightCollector`` per cell) and the only one where migration
  admission meets the pressure governor.
* ``serve-mix`` is short serving jobs with allocation churn on a shared
  machine.  ``core.*`` is never called; migration, channels and pressure
  carry the host time.  It is the only workload with random input: Poisson
  arrivals drawn from the seed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.harness import runner, tournament
from repro.mem.platforms import OPTANE_HM
from repro.obs import EventTracer, MetricsRegistry, TraceQuery, attribute
from repro.serve import JobTemplate, ServeConfig, Server, TraceArrivals


class _Cell:
    __slots__ = ("value", "offset")

    def __init__(self, value: float, offset: float) -> None:
        self.value = value
        self.offset = offset

    def scaled(self, factor: float) -> float:
        return self.value * factor + self.offset


_CELLS = {i: _Cell(float(i), 1.5) for i in range(1024)}

#: :func:`calibrate` on the reference host (the 2-core Xeon the first
#: numbers in ``bench/README.md`` come from).  Host times are reported in
#: reference-host seconds: ``measured * CALIB_REF_S / calibration``, where
#: ``calibration`` is the mean of the samples :class:`UnitTimer` takes.
CALIB_REF_S = 0.0091

#: Wall seconds between calibration samples taken while a unit runs.
SAMPLE_PERIOD_S = 0.25


def calibrate() -> float:
    """Host seconds of a fixed pure-Python loop.

    The loop mixes dict lookups, method calls, float and integer arithmetic
    and list appends, the simulator's own instruction mix, so it slows down
    with the host the way the simulator does: a shared host's speed drifts
    by tens of percent over minutes, and timing each unit of work against
    calibration runs taken while it ran cancels most of that drift.

    The loop must not depend on the code it normalizes.  It runs inside the
    workload's process, next to the simulator's live heap, so it allocates
    no object the garbage collector tracks and runs with the collector off:
    a collection triggered by the simulator's heap would otherwise land in
    the calibration and make a change that keeps more objects alive look
    faster.  For the same reason an untimed pass first brings its data back
    into cache, so how much of it the simulator evicted does not count.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        get = _CELLS.get
        for cell in _CELLS.values():
            cell.scaled(0.5)
        start = time.perf_counter()
        window: List[float] = []
        total = 0.0
        for i in range(40_000):
            cell = get((i * 7) & 2047)
            if cell is not None:
                total += cell.scaled(0.5)
            total += i % 7
            window.append(total)
            if len(window) > 512:
                window.clear()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class UnitTimer:
    """Times each unit of work against the host's speed while it ran.

    Unless ``calibrated`` is false (the traced pass, whose span times must
    not include calibration), :func:`calibrate` runs just before and just
    after each unit, and every ``sample_period`` wall seconds during it
    from a ``SIGALRM`` handler; ``calib_s`` gets the samples' mean.  Other
    tenants slow a shared host in bursts of a few seconds, shorter than a
    serving shard, so samples at a unit's ends alone miss a burst or weigh
    it as if it lasted the whole unit, while the mean of samples spread
    evenly in time follows the unit's average slowdown.  The handler's own
    time is taken out of the unit's time.

    A unit that runs in a child process takes ``sample_period=None``
    (samples at its ends only): a sample taken meanwhile would compete with
    the child for the host it measures.
    """

    def __init__(
        self, calibrated: bool = True, sample_period: Optional[float] = SAMPLE_PERIOD_S
    ) -> None:
        self.calibrated = calibrated
        self.sample_period = sample_period
        self.unit_s: List[float] = []
        self.calib_s: List[float] = []
        #: samples of the running unit; None while no unit is sampled
        self._samples: Optional[List[float]] = None
        self._sampling_s = 0.0

    def _sample(self, signum, frame) -> None:
        samples = self._samples
        if samples is None:
            return
        self._samples = None  # a tick that comes mid-sample takes none
        start = time.perf_counter()
        samples.append(calibrate())
        self._sampling_s += time.perf_counter() - start
        self._samples = samples

    def __call__(self, fn: Callable, *args, **kwargs):
        if not self.calibrated:
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.unit_s.append(time.perf_counter() - start)
        samples = [calibrate()]
        self._samples, self._sampling_s = samples, 0.0
        if self.sample_period is not None:
            # The handler stays installed: a tick already raised when the
            # timer stops then finds no unit and returns.
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.sample_period, self.sample_period)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            self._samples = None
            self.unit_s.append(time.perf_counter() - start - self._sampling_s)
            samples.append(calibrate())
            self.calib_s.append(statistics.fmean(samples))


@dataclass
class Round:
    """One round's simulated outputs and its host-time measurements."""

    outputs: Any
    timer: UnitTimer
    steps: int
    attempted: int
    failed: int


@dataclass
class SimPass:
    """Simulated-side results of the untimed pass with observers attached."""

    digest: str
    metrics: Dict[str, float]
    problems: List[str]
    #: per-DNN-layer exec/stall/fault/mem rows (train-steady only)
    layer_table: List[Dict[str, Any]]


def digest(outputs: Any) -> str:
    """Canonical hash of a round's simulated outputs."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def geomean(values: Iterable[float]) -> float:
    logs = [math.log(v) for v in values]
    return math.exp(sum(logs) / len(logs))


def nearest_rank(sorted_values: List[float], pct: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(pct / 100.0 * len(sorted_values))) - 1]


@contextmanager
def intercept(module, name: str, around: Callable):
    """Route calls of ``module.name`` through ``around(inner, *args, **kw)``."""
    inner = getattr(module, name)

    def routed(*args, **kwargs):
        return around(inner, *args, **kwargs)

    setattr(module, name, routed)
    try:
        yield
    finally:
        setattr(module, name, inner)


class _SimTotals:
    """Accumulates the simulated-side per-layer numbers across runs.

    Step times come from critical-path attribution, so the pass also checks
    that each step's components sum to its duration.
    """

    def __init__(self, layer_table: bool = False) -> None:
        self.want_table = layer_table
        self.seconds = dict.fromkeys(
            ("compute", "mem", "stall", "contention", "fault", "reclaim", "busy"),
            0.0,
        )
        self.counters: Dict[str, float] = {}
        self.extras: List[Dict[str, float]] = []
        self.problems: List[str] = []
        self._table: Dict[Tuple[str, int], Dict[str, Any]] = {}

    def add_trace(
        self, label: str, events: List[Any], steady: Optional[int] = None
    ) -> None:
        """Add one run's (or one job's) trace; ``steady`` = trailing steady steps."""
        steps = attribute(events).steps
        for step in steps:
            total = sum(step.components().values())
            if abs(total - step.duration) > 1e-9:
                self.problems.append(
                    f"{label} step {step.step}: critical-path components sum "
                    f"to {total!r}, step lasted {step.duration!r}"
                )
            self.seconds["stall"] += step.migration_stall
            self.seconds["contention"] += step.channel_contention
            self.seconds["fault"] += step.fault
            self.seconds["reclaim"] += step.pressure_reclaim
        query = TraceQuery(events)
        windows = [(s.start, s.end) for s in (steps[-steady:] if steady else steps)]
        for span in query.spans(cat="step", name="layer"):
            self.seconds["compute"] += span.args["compute"]
            self.seconds["mem"] += span.args["mem"]
            if not self.want_table or not any(
                a <= span.start and span.end <= b for a, b in windows
            ):
                continue
            key = (label, span.args["layer"])
            row = self._table.setdefault(
                key,
                {
                    "run": label,
                    "layer": span.args["layer"],
                    "label": span.args["label"],
                    "exec_s": 0.0,
                    "stall_s": 0.0,
                    "fault_s": 0.0,
                    "mem_s": 0.0,
                },
            )
            row["exec_s"] += span.args["exec"]
            row["stall_s"] += span.args["stall"]
            row["fault_s"] += span.args["fault"]
            row["mem_s"] += span.args["mem"]

    def add_channels(self, events: Iterable[Any]) -> None:
        """Add channel busy time; each transfer must be passed exactly once."""
        for event in events:
            if event.cat == "channel" and event.name == "xfer":
                self.seconds["busy"] += event.dur

    def add_counters(self, registry: MetricsRegistry) -> None:
        for key, value in registry.counters().items():
            self.counters[key] = self.counters.get(key, 0.0) + value

    def add_run(self, label: str, metrics: runner.RunMetrics, events, registry, steady):
        self.add_trace(label, events, steady)
        self.add_channels(events)
        self.add_counters(registry)
        self.extras.append(metrics.extras)

    def metrics(self) -> Dict[str, float]:
        """Every simulated-side metric; serving ones stay 0 for the caller to set."""
        gb = 1e9
        counters = self.counters
        sentinel = [e for e in self.extras if "profiling_steps" in e]
        migrations = sum(e.get("insight.migration_events", 0.0) for e in self.extras)
        pingpongs = sum(e.get("insight.pingpong_events", 0.0) for e in self.extras)
        promoted = counters.get("migration.promoted_bytes", 0.0)
        landed = sum(extras["prefetch_landed_bytes"] for extras in sentinel)
        screened = sum(
            value
            for key, value in counters.items()
            if key == "admission.admitted"
            or key.startswith("admission.denied.")
            or key.startswith("admission.deferred.")
        )
        lengths = [e["interval_length"] for e in sentinel if "interval_length" in e]
        overheads = [e["memory_overhead"] for e in sentinel if "memory_overhead" in e]
        return {
            "dnn.executor.compute_s": self.seconds["compute"],
            "dnn.executor.mem_s": self.seconds["mem"],
            "mem.migration.stall_s": self.seconds["stall"],
            "sim.channel.contention_s": self.seconds["contention"],
            "mem.faults.fault_s": self.seconds["fault"],
            "mem.pressure.reclaim_s": self.seconds["reclaim"],
            "mem.migration.promoted_gb": promoted / gb,
            "mem.migration.demoted_gb": counters.get("migration.demoted_bytes", 0.0) / gb,
            "mem.migration.useful_prefetch_ratio": landed / promoted if promoted else 0.0,
            "core.profiler.profiling_steps": sum(e["profiling_steps"] for e in sentinel),
            "core.profiler.memory_overhead": (
                sum(overheads) / len(overheads) if overheads else 0.0
            ),
            "core.runtime.case3": sum(e["case3"] for e in sentinel),
            "core.runtime.trial_steps": sum(e["trial_steps"] for e in sentinel),
            "core.interval.length": sum(lengths) / len(lengths) if lengths else 0.0,
            "mem.pressure.spilled_gb": counters.get("pressure.spilled_bytes", 0.0) / gb,
            "mem.pressure.refused_promotions": counters.get(
                "pressure.refused_promotions", 0.0
            ),
            "mem.admission.admit_ratio": (
                counters.get("admission.admitted", 0.0) / screened if screened else 0.0
            ),
            "obs.insight.pingpong_rate": pingpongs / migrations if migrations else 0.0,
            "sim.channel.busy_s": self.seconds["busy"],
            "serve.shed": 0.0,
            "serve.retries": 0.0,
            "serve.latency_p50_s": 0.0,
            "serve.latency_p95_s": 0.0,
            "serve.slo_attainment": 0.0,
            "serve.goodput_per_s": 0.0,
        }

    def layer_table(self) -> List[Dict[str, Any]]:
        return [self._table[key] for key in sorted(self._table)]


def _traced_call(inner, *args, **kwargs):
    """Run one ``run_policy`` call with a fresh tracer and metrics registry."""
    tracer, registry = EventTracer(), MetricsRegistry()
    result = inner(*args, tracer=tracer, metrics=registry, **kwargs)
    return result, tracer, registry


class Workload:
    """Common shape of a workload; subclasses fill in the round."""

    name = ""
    #: zoo models whose graphs set-up builds
    models: Tuple[str, ...] = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def warm_up(self) -> None:
        """One untimed call per model, so lazy set-up is paid before timing."""
        for model in self.models:
            runner.run_policy("sentinel", model=model, fast_fraction=0.2, steady_steps=1)

    def run_round(self, timer: Optional[UnitTimer] = None) -> Round:
        """One round of simulated work, each unit timed by ``timer``."""
        raise NotImplementedError

    def slowdowns(self, outputs) -> Tuple[List[Tuple[str, float]], float]:
        """Per-sample slowdowns against fast-only, and the worst model or cell."""
        raise NotImplementedError

    def sim_pass(self) -> SimPass:
        raise NotImplementedError

    def sim_metrics(self, outputs) -> Dict[str, float]:
        samples, worst = self.slowdowns(outputs)
        return {
            "sim.slowdown_geomean": geomean(value for _, value in samples),
            "sim.slowdown_max": worst,
        }

    def check(self, outputs) -> List[str]:
        samples, _ = self.slowdowns(outputs)
        return [
            f"{label}: step time below fast-only (slowdown {value!r})"
            for label, value in samples
            if value < 1.0
        ]


class TrainSteady(Workload):
    name = "train-steady"
    models = ("resnet32", "mobilenet", "bert-base", "dcgan")
    policies = ("sentinel", "fast-only")
    fast_fraction = 0.2
    steady_steps = 40

    def _calls(self):
        for model in self.models:
            for policy in self.policies:
                fraction = None if policy == "fast-only" else self.fast_fraction
                yield model, policy, dict(
                    model=model, fast_fraction=fraction, steady_steps=self.steady_steps
                )

    def _steps(self, policy: str) -> int:
        extra = runner.EXPERIMENT_WARMUP_STEPS + 1 if policy == "sentinel" else 0
        return self.steady_steps + extra

    def run_round(self, timer: Optional[UnitTimer] = None) -> Round:
        timer = UnitTimer() if timer is None else timer
        outputs = []
        steps = failed = 0
        for model, policy, kwargs in self._calls():
            try:
                metrics = timer(runner.run_policy, policy, **kwargs)
            except Exception as err:  # a failed run is counted, not fatal
                failed += 1
                outputs.append({"model": model, "policy": policy, "failure": repr(err)})
            else:
                steps += self._steps(policy)
                outputs.append(asdict(metrics))
        return Round(outputs, timer, steps, attempted=len(outputs), failed=failed)

    def slowdowns(self, outputs):
        times = {
            (o["model"], o["policy"]): o["step_time"]
            for o in outputs
            if "failure" not in o
        }
        samples = [
            (model, times[(model, "sentinel")] / times[(model, "fast-only")])
            for model in self.models
            if (model, "sentinel") in times and (model, "fast-only") in times
        ]
        return samples, max(value for _, value in samples)

    def sim_pass(self) -> SimPass:
        totals = _SimTotals(layer_table=True)
        outputs = []
        for model, policy, kwargs in self._calls():
            metrics, tracer, registry = _traced_call(runner.run_policy, policy, **kwargs)
            outputs.append(asdict(metrics))
            totals.add_run(
                f"{model}/{policy}", metrics, tracer.events, registry, self.steady_steps
            )
        return SimPass(
            digest(outputs), totals.metrics(), totals.problems, totals.layer_table()
        )


class TournamentMini(Workload):
    name = "tournament-mini"
    models = ("mobilenet", "resnet32")
    fast_fraction = 0.1

    def _tournament(self):
        return tournament.run_tournament(
            models=self.models, governors=(False, True), fast_fraction=self.fast_fraction
        )

    def run_round(self, timer: Optional[UnitTimer] = None) -> Round:
        timer = UnitTimer() if timer is None else timer
        with intercept(tournament, "run_policy", timer):
            result = self._tournament()
        baselines = result["baselines"]
        cells = result["cells"]
        warm = runner.EXPERIMENT_WARMUP_STEPS + 1
        steps = runner.STEADY_STEPS * len(baselines) + sum(
            runner.STEADY_STEPS + (warm if cell["policy"] == "sentinel" else 0)
            for cell in cells
            if cell["failure"] is None
        )
        failed = sum(1 for cell in cells if cell["failure"] is not None)
        failed += len(self.models) - len(baselines)
        return Round(
            result, timer, steps, attempted=len(cells) + len(self.models), failed=failed
        )

    def slowdowns(self, outputs):
        samples = [
            (
                f"{c['model']}/{c['policy']}/{c['admission']}/"
                f"{'on' if c['governor'] else 'off'}",
                c["slowdown"],
            )
            for c in outputs["cells"]
            if c["failure"] is None
        ]
        return samples, max(value for _, value in samples)

    def sim_pass(self) -> SimPass:
        totals = _SimTotals()

        def capture(inner, policy, **kwargs):
            metrics, tracer, registry = _traced_call(inner, policy, **kwargs)
            governor = "on" if kwargs.get("pressure") is not None else "off"
            label = f"{kwargs['model']}/{policy}/{kwargs.get('admission')}/{governor}"
            totals.add_run(label, metrics, tracer.events, registry, runner.STEADY_STEPS)
            return metrics

        with intercept(tournament, "run_policy", capture):
            result = self._tournament()
        return SimPass(digest(result), totals.metrics(), totals.problems, [])


class ServeMix(Workload):
    """The load ``repro serve`` is run with: the CLI's job mix and server
    defaults (2 slots, EDF admission, a queue of 4, a 240 s timeout, 3
    admission attempts) at 0.7 jobs/s for 400 simulated seconds.

    That is more than two slots serve, so the server sheds jobs: about one
    in six is refused at a full queue three times and given up.  Shed and
    expired jobs are the server working as designed under overload, so they
    are serving outcomes (``serve.shed``, ``serve.retries`` and the latency
    samples they leave out), not failed operations; a job that times out,
    fails or cannot fit in memory is a failure.
    """

    name = "serve-mix"
    models = ("mobilenet", "dcgan")
    #: The CLI's serving mix: inference at weight 4, 2-step training.
    templates = (
        JobTemplate(name="infer", model="mobilenet", policy="ial", steps=1, slo=15.0, weight=4.0),
        JobTemplate(name="train", model="dcgan", policy="ial", steps=2, slo=60.0),
    )
    rate = 0.7
    horizon = 400.0
    #: Independent shards per round, each its own server and arrival stream
    #: at the full load: two halve the seed-to-seed spread of the slowdowns.
    shards = 2
    fast_fraction = 0.5
    #: Terminal job states that are serving outcomes rather than failures.
    outcomes = ("completed", "shed", "expired")

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.traces = [self._trace(shard) for shard in range(self.shards)]
        self.service_s: Dict[str, float] = {}

    def _trace(self, shard: int) -> List[Tuple[float, str]]:
        """Poisson arrivals at :attr:`rate` conditioned on their count, with
        the mix fixed at the templates' weights.

        Fixing the count (rate x horizon = 280 jobs) and the mix halves the
        seed-to-seed spread of the slowdowns against free Poisson draws
        (``PoissonArrivals``); the seed moves when each job arrives and in
        which order the kinds come.
        """
        jobs = round(self.rate * self.horizon)
        arrivals = random.Random(f"{self.seed}:{shard}:arrivals")
        times = sorted(arrivals.uniform(0.0, self.horizon) for _ in range(jobs))
        total = sum(t.weight for t in self.templates)
        names: List[str] = []
        for template in self.templates:
            names += [template.name] * round(jobs * template.weight / total)
        random.Random(f"{self.seed}:{shard}:mix").shuffle(names)
        return list(zip(times, names))

    def warm_up(self) -> None:
        """Fast-only service times anchor each job's slowdown; they also warm up."""
        for template in self.templates:
            metrics = runner.run_policy(
                "fast-only", model=template.model, steady_steps=template.steps
            )
            self.service_s[template.name] = template.steps * metrics.step_time

    def _serve(self, shard: int, **observers):
        return Server(
            TraceArrivals(trace=self.traces[shard], templates=self.templates),
            ServeConfig(
                seed=self.seed, slots=2, admission="edf", queue_limit=4, timeout=240.0
            ),
            platform=OPTANE_HM,
            fast_fraction=self.fast_fraction,
            **observers,
        ).run()

    def run_round(self, timer: Optional[UnitTimer] = None) -> Round:
        timer = UnitTimer() if timer is None else timer
        outputs = [
            json.loads(timer(self._serve, shard).to_json()) for shard in range(self.shards)
        ]
        jobs = [job for report in outputs for job in report["jobs"]]
        return Round(
            outputs,
            timer,
            steps=sum(job["completed_steps"] for job in jobs),
            attempted=len(jobs),
            failed=sum(1 for job in jobs if job["state"] not in self.outcomes),
        )

    def slowdowns(self, outputs):
        """Job latency from arrival over the job's fast-only service time."""
        samples = []
        by_template: Dict[str, List[float]] = {}
        for shard, report in enumerate(outputs):
            for job in report["jobs"]:
                if job["latency"] is None:
                    continue
                value = job["latency"] / self.service_s[job["template"]]
                samples.append((f"{shard}:{job['name']}", value))
                by_template.setdefault(job["template"], []).append(value)
        return samples, max(geomean(values) for values in by_template.values())

    def check(self, outputs) -> List[str]:
        problems = super().check(outputs)
        for shard, report in enumerate(outputs):
            states: Dict[str, int] = {}
            for job in report["jobs"]:
                states[job["state"]] = states.get(job["state"], 0) + 1
            if sum(states.values()) != report["total_jobs"]:
                problems.append(f"shard {shard}: job states do not add up to total")
            if states.get("completed", 0) != report["completed"]:
                problems.append(f"shard {shard}: completed count disagrees with jobs")
            scheduled = len(self.traces[shard])
            if report["total_jobs"] != scheduled:
                problems.append(
                    f"shard {shard}: {report['total_jobs']} jobs, schedule has {scheduled}"
                )
        return problems

    def sim_pass(self) -> SimPass:
        totals = _SimTotals()
        outputs = []
        for shard in range(self.shards):
            tracer, registry = EventTracer(), MetricsRegistry()
            report = self._serve(shard, tracer=tracer, metrics=registry)
            outputs.append(json.loads(report.to_json()))
            totals.add_counters(registry)
            totals.add_channels(tracer.events)
            # Jobs share the machine, so attribute each job's steps alone,
            # against the channel transfers that overlap them.
            steps_by_job: Dict[str, List[Any]] = {}
            channel = []
            for event in tracer.events:
                if event.cat == "step":
                    steps_by_job.setdefault(event.track, []).append(event)
                elif event.cat == "channel":
                    channel.append(event)
            for job, events in steps_by_job.items():
                start, end = events[0].ts, events[-1].ts
                overlapping = [e for e in channel if e.ts < end and e.ts + e.dur > start]
                totals.add_trace(job.split("#")[0], events + overlapping)
        values = totals.metrics()
        jobs = [job for report in outputs for job in report["jobs"]]
        latencies = sorted(job["latency"] for job in jobs if job["latency"] is not None)
        slo_met = sum(1 for job in jobs if job["slo_met"])
        counts: Dict[str, int] = {}
        for report in outputs:
            for key, value in report["counts"].items():
                counts[key] = counts.get(key, 0) + value
        values.update(
            {
                "serve.shed": float(counts.get("serve.shed", 0)),
                "serve.retries": float(counts.get("serve.retry", 0)),
                "serve.latency_p50_s": nearest_rank(latencies, 50.0),
                "serve.latency_p95_s": nearest_rank(latencies, 95.0),
                "serve.slo_attainment": slo_met / len(jobs),
                "serve.goodput_per_s": slo_met / sum(r["makespan"] for r in outputs),
            }
        )
        return SimPass(digest(outputs), values, totals.problems, [])


WORKLOADS: Dict[str, type] = {w.name: w for w in (TrainSteady, TournamentMini, ServeMix)}
