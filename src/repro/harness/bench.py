"""Perf-regression benchmark harness over the attribution engine.

Runs traced end-to-end policy runs per model, attributes every step via
:mod:`repro.obs.critpath`, and emits two JSON artifacts:

* ``BENCH_step_time.json`` — per-model steady-state step times (the
  gating surface: median simulated step time, deterministic by
  construction, so CI can fail on >5% regressions without wall-clock
  noise);
* ``BENCH_attribution.json`` — the full component breakdown and what-if
  answers per model (the perf trajectory record: future policy PRs justify
  themselves against this file's history).

Both artifacts are byte-stable for a given tree: they contain only
simulated-time quantities, never wall-clock timings or dates, so
regenerating them on an unchanged tree produces an identical file and the
committed baselines never churn.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.harness.runner import STEADY_STEPS, run_policy
from repro.obs.critpath import Attribution, attribute
from repro.obs.trace import EventTracer

__all__ = [
    "BENCH_SCHEMA",
    "DEFAULT_BENCH_MODELS",
    "attribution_benchmark",
    "step_time_payload",
    "write_bench",
    "load_bench",
    "check_regression",
]

#: Schema version stamped into both artifacts; bump on shape changes.
BENCH_SCHEMA = 1

#: The CI smoke set: small models that exercise the full Sentinel lifecycle.
DEFAULT_BENCH_MODELS = ("dcgan", "lstm")


def attribution_benchmark(
    models: Sequence[str] = DEFAULT_BENCH_MODELS,
    policy: str = "sentinel",
    fast_fraction: float = 0.2,
    steady_steps: int = STEADY_STEPS,
) -> Dict:
    """Run the attribution benchmark and return the full payload.

    Each model runs traced under ``policy`` with fast memory sized to
    ``fast_fraction`` of its peak; every step is attributed, and the
    steady-state tail (the last ``steady_steps`` steps, past warmup and
    profiling) yields the gated median step time.
    """
    out: Dict = {
        "schema": BENCH_SCHEMA,
        "policy": policy,
        "fast_fraction": fast_fraction,
        "steady_steps": steady_steps,
        "models": {},
    }
    for model in models:
        tracer = EventTracer()
        run_policy(
            policy,
            model=model,
            fast_fraction=fast_fraction,
            steady_steps=steady_steps,
            tracer=tracer,
        )
        attribution = attribute(tracer.events, tracer.dropped)
        out["models"][model] = _model_entry(attribution, steady_steps)
    return out


def _model_entry(attribution: Attribution, steady_steps: int) -> Dict:
    steady = attribution.steps[-steady_steps:]
    totals = {key: round(value, 9) for key, value in attribution.totals().items()}
    return {
        "steps": len(attribution),
        "step_times": [round(step.duration, 9) for step in attribution],
        "median_step_time": round(
            attribution.median_step_time(last=steady_steps), 9
        ),
        "attribution_totals": totals,
        "steady_attribution": {
            key: round(sum(step.components()[key] for step in steady), 9)
            for key in totals
        },
        "what_if_free_migration": round(
            attribution.what_if_free_migration(last=steady_steps), 9
        ),
        "what_if_2x_bandwidth": round(
            attribution.what_if_bandwidth_scale(2.0, last=steady_steps), 9
        ),
    }


def step_time_payload(payload: Dict) -> Dict:
    """Project the gating subset (``BENCH_step_time.json``) out of the
    full attribution payload — only what the regression check compares."""
    return {
        "schema": payload["schema"],
        "policy": payload["policy"],
        "fast_fraction": payload["fast_fraction"],
        "models": {
            model: {
                "median_step_time": entry["median_step_time"],
                "step_times": entry["step_times"],
            }
            for model, entry in sorted(payload["models"].items())
        },
    }


def write_bench(payload: Dict, path: Path) -> None:
    """Write a benchmark artifact as canonical JSON (sorted keys)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_bench(path: Path) -> Optional[Dict]:
    """Load a benchmark artifact, or ``None`` when it does not exist."""
    path = Path(path)
    if not path.exists():
        return None
    return json.loads(path.read_text())


def check_regression(
    baseline: Dict, current: Dict, threshold: float = 0.05
) -> List[str]:
    """Compare two step-time payloads; return regression descriptions.

    A model regresses when its median simulated step time grows more than
    ``threshold`` relative to the baseline.  Models present on only one
    side are reported too (a silently vanished benchmark is not a pass);
    improvements are never failures.
    """
    if threshold < 0.0:
        raise ValueError(f"threshold must be non-negative, got {threshold!r}")
    problems: List[str] = []
    base_models = baseline.get("models", {})
    cur_models = current.get("models", {})
    for model in sorted(base_models):
        if model not in cur_models:
            problems.append(f"{model}: missing from current benchmark run")
            continue
        base = base_models[model]["median_step_time"]
        cur = cur_models[model]["median_step_time"]
        if base <= 0.0:
            continue
        growth = (cur - base) / base
        if growth > threshold:
            problems.append(
                f"{model}: median step time regressed {growth * 100.0:.1f}% "
                f"({base:.6f}s -> {cur:.6f}s, threshold {threshold * 100.0:.0f}%)"
            )
    for model in sorted(cur_models):
        if model not in base_models:
            problems.append(
                f"{model}: not in baseline — regenerate the baseline to adopt it"
            )
    return problems
