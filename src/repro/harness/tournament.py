"""Policy tournament: rank {model x policy x admission x governor} combos.

The admission layer (:mod:`repro.mem.admission`) makes "which migrations
are worth their bandwidth" a swappable policy; this harness answers the
follow-up question — *which combination wins* — by running the full grid
of zoo models x placement policies x admission controllers x pressure
governor on/off and emitting a ranked leaderboard.

Every cell is one :func:`~repro.harness.runner.run_policy` simulation with
a fresh :class:`~repro.obs.insight.InsightCollector` (for ping-pong rates)
and a fresh admission controller (they are stateful).  Slowdown is
measured against a per-model ``fast-only`` baseline run in the same
tournament, so the artifact is self-contained.  Cells are enumerated in
deterministic serial order and come back in that order when pooled, and the
JSON artifact is canonical (sorted keys, fixed separators) — reruns are
byte-identical, which CI checks with ``cmp``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.vdnn import UnsupportedModelError
from repro.harness.report import format_table
from repro.harness.runner import OOM_ERRORS, run_policy
from repro.harness.sweeps import pooled_map
from repro.mem.platforms import OPTANE_HM, Platform
from repro.mem.pressure import PressureConfig
from repro.obs.insight import InsightCollector

#: Artifact schema tag; bump on incompatible layout changes.
TOURNAMENT_SCHEMA = "tournament/v1"

#: Default grids: every registered admission controller across four zoo
#: models and the three migration-heavy placement policies.
DEFAULT_MODELS = ("dcgan", "lstm", "mobilenet", "resnet32")
DEFAULT_POLICIES = ("sentinel", "ial", "autotm")
DEFAULT_ADMISSIONS = ("always", "benefit-cost", "feedback")

#: Governor-on cells run under these watermarks — aggressive enough to
#: interact with admission (refused promotions, reclaim demotions) at the
#: constrained fractions tournaments use.
TOURNAMENT_PRESSURE = PressureConfig(
    low_watermark=0.75, high_watermark=0.9, reserve_frames=32
)


@dataclass(frozen=True)
class _CellSpec:
    """One tournament cell, picklable for the worker pool.

    ``index`` is the cell's position in deterministic enumeration order.
    ``admission is None`` encodes the per-model ``fast-only`` baseline
    cell.
    """

    index: int
    model: str
    policy: str
    admission: Optional[str]
    admission_args: Optional[Dict[str, object]]
    governor: bool
    fast_fraction: Optional[float]
    platform: Platform


def _enumerate_cells(
    models: Sequence[str],
    policies: Sequence[str],
    admissions: Sequence[str],
    governors: Sequence[bool],
    fast_fraction: float,
    platform: Platform,
    admission_args: Optional[Dict[str, Dict[str, object]]],
) -> List[_CellSpec]:
    """Baselines first, then the grid — a pure function of the inputs."""
    specs: List[_CellSpec] = []
    for model in models:
        specs.append(
            _CellSpec(
                index=len(specs),
                model=model,
                policy="fast-only",
                admission=None,
                admission_args=None,
                governor=False,
                fast_fraction=None,
                platform=platform,
            )
        )
    args = admission_args or {}
    for model in models:
        for policy in policies:
            for admission in admissions:
                for governor in governors:
                    specs.append(
                        _CellSpec(
                            index=len(specs),
                            model=model,
                            policy=policy,
                            admission=admission,
                            admission_args=args.get(admission),
                            governor=governor,
                            fast_fraction=fast_fraction,
                            platform=platform,
                        )
                    )
    return specs


def _run_cell(spec: _CellSpec) -> Dict[str, object]:
    """Execute one cell; failures become recorded cells, not exceptions."""
    cell: Dict[str, object] = {
        "model": spec.model,
        "policy": spec.policy,
        "admission": spec.admission,
        "governor": spec.governor,
        "fast_fraction": spec.fast_fraction,
    }
    collector = InsightCollector()
    try:
        metrics = run_policy(
            spec.policy,
            model=spec.model,
            platform=spec.platform,
            fast_fraction=spec.fast_fraction,
            pressure=TOURNAMENT_PRESSURE if spec.governor else None,
            admission=spec.admission,
            admission_args=spec.admission_args,
            insight=collector,
        )
    except UnsupportedModelError:
        cell["failure"] = "unsupported"
        return cell
    except OOM_ERRORS:
        cell["failure"] = "oom"
        return cell
    summary = collector.summary()
    migrations = summary["insight.migration_events"]
    cell.update(
        {
            "failure": None,
            "step_time": metrics.step_time,
            "stall_share": (
                metrics.stall_time / metrics.step_time
                if metrics.step_time > 0
                else 0.0
            ),
            "migrated_bytes": metrics.migrated_bytes,
            "pingpong_rate": (
                summary["insight.pingpong_events"] / migrations
                if migrations > 0
                else 0.0
            ),
            "admission_counters": {
                key: value
                for key, value in sorted(metrics.extras.items())
                if key.startswith("admission.") and key != "admission.controller"
            },
        }
    )
    return cell


def _leaderboard(cells: List[Dict[str, object]]) -> List[Dict[str, object]]:
    """Aggregate cells into ranked (policy, admission, governor) entries.

    Rank is by mean slowdown over the models a combo completed, ties
    broken lexicographically so the order never depends on enumeration.
    """
    combos: Dict[Tuple[str, str, bool], List[Dict[str, object]]] = {}
    for cell in cells:
        if cell.get("failure") is not None:
            continue
        key = (cell["policy"], cell["admission"], cell["governor"])
        combos.setdefault(key, []).append(cell)
    entries: List[Dict[str, object]] = []
    for (policy, admission, governor), members in combos.items():
        count = len(members)
        entries.append(
            {
                "policy": policy,
                "admission": admission,
                "governor": governor,
                "models_ok": count,
                "mean_slowdown": sum(c["slowdown"] for c in members) / count,
                "mean_stall_share": sum(c["stall_share"] for c in members) / count,
                "mean_pingpong_rate": (
                    sum(c["pingpong_rate"] for c in members) / count
                ),
                "total_migrated_bytes": sum(c["migrated_bytes"] for c in members),
            }
        )
    entries.sort(
        key=lambda e: (
            -e["models_ok"],
            e["mean_slowdown"],
            e["policy"],
            e["admission"],
            e["governor"],
        )
    )
    for rank, entry in enumerate(entries, start=1):
        entry["rank"] = rank
    return entries


def run_tournament(
    models: Sequence[str] = DEFAULT_MODELS,
    policies: Sequence[str] = DEFAULT_POLICIES,
    admissions: Sequence[str] = DEFAULT_ADMISSIONS,
    governors: Sequence[bool] = (False, True),
    fast_fraction: float = 0.2,
    platform: Platform = OPTANE_HM,
    admission_args: Optional[Dict[str, Dict[str, object]]] = None,
    workers: int = 1,
) -> Dict[str, object]:
    """Run the full tournament grid and build the leaderboard artifact.

    Returns a dict with ``schema``, the run ``config``, per-model
    ``baselines`` (fast-only step times), all ``cells`` in enumeration
    order, and the ranked ``leaderboard``.  ``admission_args`` maps a
    controller name to constructor kwargs for its cells.  With
    ``workers > 1`` cells run on a multiprocessing pool
    (:func:`~repro.harness.sweeps.pooled_map`) — byte-identical to serial.
    """
    if not models or not policies or not admissions or not governors:
        raise ValueError("need at least one model, policy, admission, governor")
    unknown = [g for g in governors if not isinstance(g, bool)]
    if unknown:
        raise ValueError(f"governors must be booleans, got {unknown!r}")
    specs = _enumerate_cells(
        models, policies, admissions, governors,
        fast_fraction, platform, admission_args,
    )
    cells = pooled_map(_run_cell, specs, workers)

    nbase = len(models)
    baselines: Dict[str, float] = {}
    for cell in cells[:nbase]:
        if cell.get("failure") is None:
            baselines[cell["model"]] = cell["step_time"]
    grid: List[Dict[str, object]] = []
    for cell in cells[nbase:]:
        baseline = baselines.get(cell["model"])
        if cell.get("failure") is None:
            cell["slowdown"] = (
                cell["step_time"] / baseline
                if baseline is not None and baseline > 0
                else None
            )
        grid.append(cell)
    return {
        "schema": TOURNAMENT_SCHEMA,
        "config": {
            "models": list(models),
            "policies": list(policies),
            "admissions": list(admissions),
            "governors": list(governors),
            "fast_fraction": fast_fraction,
            "platform": platform.name,
        },
        "baselines": baselines,
        "cells": grid,
        "leaderboard": _leaderboard(grid),
    }


def tournament_json(result: Dict[str, object]) -> str:
    """Canonical byte-stable JSON for the artifact (``cmp``-comparable)."""
    return json.dumps(result, sort_keys=True, separators=(",", ":")) + "\n"


def format_leaderboard(result: Dict[str, object]) -> str:
    """Human-readable ranked table of the leaderboard."""
    rows = []
    for entry in result["leaderboard"]:
        rows.append(
            (
                entry["rank"],
                entry["policy"],
                entry["admission"],
                "on" if entry["governor"] else "off",
                f"{entry['mean_slowdown']:.4f}",
                f"{entry['mean_stall_share']:.4f}",
                f"{entry['mean_pingpong_rate']:.4f}",
                f"{entry['total_migrated_bytes'] / 1024.0 ** 2:.1f}",
                entry["models_ok"],
            )
        )
    return format_table(
        (
            "rank", "policy", "admission", "governor",
            "slowdown", "stall", "pingpong", "migrated MiB", "models",
        ),
        rows,
        title="tournament leaderboard",
    )
