"""Validation — the Eq. 1/2 performance model against measured execution.

Sentinel's interval choice rests on an analytic estimate of exposed
migration time.  The paper argues the model is good enough to replace
trial-steps; here we check that directly: across interval lengths on a
constrained machine, the model's per-plan exposure estimate must rank the
candidates consistently with their measured step times (positive rank
correlation), and the model's chosen plan must execute within a few percent
of the best measured candidate.
"""

import itertools
import math
import statistics

from conftest import run_once

from repro.core.interval import evaluate_interval_length
from repro.core.profiler import DynamicProfiler
from repro.core.runtime import SentinelConfig
from repro.harness.report import format_table
from repro.harness.runner import EXPERIMENT_WARMUP_STEPS, run_policy
from repro.mem.platforms import OPTANE_HM
from repro.models import build_model

MODEL = "resnet32"
BATCH = 256
FRACTION = 0.16
LENGTHS = tuple(range(1, 11))


def average_ranks(values):
    """1-based ranks of ``values``; tied values share their mean rank."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    start = 0
    for _, tied in itertools.groupby(order, key=values.__getitem__):
        tied = list(tied)
        for position in tied:
            ranks[position] = start + (len(tied) + 1) / 2
        start += len(tied)
    return ranks


def spearman_rho(xs, ys):
    """Spearman's rank correlation: Pearson's r of the average ranks."""
    rx, ry = average_ranks(xs), average_ranks(ys)
    mx, my = statistics.fmean(rx), statistics.fmean(ry)
    covariance = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    spread = math.sqrt(sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry))
    return covariance / spread if spread else math.nan


def run_validation():
    graph = build_model(MODEL, batch_size=BATCH)
    peak = graph.peak_memory_bytes()
    capacity = int(peak * FRACTION)
    profile = DynamicProfiler(OPTANE_HM).run(build_model(MODEL, batch_size=BATCH)).profile

    rows = []
    estimates = []
    measured = []
    for length in LENGTHS:
        plan = evaluate_interval_length(
            profile, length, capacity, OPTANE_HM.promote_bandwidth
        )
        metrics = run_policy(
            "sentinel",
            graph=build_model(MODEL, batch_size=BATCH),
            fast_capacity=capacity,
            sentinel_config=SentinelConfig(
                warmup_steps=EXPERIMENT_WARMUP_STEPS, fixed_interval_length=length
            ),
        )
        estimates.append(plan.estimated_exposure)
        measured.append(metrics.step_time)
        rows.append(
            (
                length,
                "yes" if plan.feasible else "no",
                f"{plan.estimated_exposure * 1e3:.1f}",
                f"{metrics.step_time:.4f}",
            )
        )
    correlation = spearman_rho(estimates, measured)
    text = format_table(
        ("MIL", "Eq.1 feasible", "est. exposure (ms)", "measured step (s)"),
        rows,
        title=f"Performance-model validation — {MODEL}@{BATCH}, fast = "
        f"{FRACTION:.0%} of peak (Spearman rho = {correlation:.2f})",
    )
    return {
        "estimates": estimates,
        "measured": measured,
        "correlation": correlation,
        "text": text,
    }


def test_perfmodel_validation(benchmark, record_experiment):
    result = run_once(benchmark, run_validation)
    record_experiment("perfmodel_validation", result)

    # The model must at least rank candidates usefully...
    assert result["correlation"] > 0.3

    # ...and the optimizer's pick (argmin estimate among feasible) must
    # execute within a few percent of the best measured candidate.
    chosen = run_policy(
        "sentinel",
        graph=build_model(MODEL, batch_size=BATCH),
        fast_capacity=int(build_model(MODEL, batch_size=BATCH).peak_memory_bytes() * FRACTION),
        sentinel_config=SentinelConfig(warmup_steps=EXPERIMENT_WARMUP_STEPS),
    )
    assert chosen.step_time <= min(result["measured"]) * 1.08
