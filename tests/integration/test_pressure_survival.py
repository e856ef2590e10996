"""Survival under severe capacity pressure: every model must complete.

The paper's regime is a working set many times fast memory; the governor's
contract is that shrinking the fast tier degrades throughput, never
correctness.  Every zoo model runs a sentinel step loop at 5% fast
fraction with the governor and the invariant auditor armed — any unhandled
exception or accounting imbalance fails the suite.
"""

import pytest

from repro.chaos import ChaosConfig
from repro.harness.experiments import pressure_survival
from repro.harness.runner import run_policy
from repro.mem.pressure import PressureConfig
from repro.models.zoo import MODELS

GOVERNOR = PressureConfig.watermarks(0.75, 0.9, reserve_frames=32)


class TestEveryModelSurvives:
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_sentinel_at_five_percent(self, model):
        metrics = run_policy(
            "sentinel",
            model=model,
            fast_fraction=0.05,
            pressure=GOVERNOR,
            audit=True,
        )
        assert metrics.step_time > 0.0

    @pytest.mark.parametrize("model", ["dcgan", "lstm"])
    def test_ial_at_ten_percent(self, model):
        metrics = run_policy(
            "ial",
            model=model,
            fast_fraction=0.1,
            pressure=GOVERNOR,
            audit=True,
        )
        assert metrics.step_time > 0.0


class TestGovernorActivityVisible:
    def test_pressure_counters_land_in_extras(self):
        metrics = run_policy(
            "sentinel", model="dcgan", fast_fraction=0.05, pressure=GOVERNOR
        )
        pressure_keys = {
            key for key in metrics.extras if key.startswith("pressure.")
        }
        assert pressure_keys, "governor ran but reported nothing"
        assert "migration.relocated_bytes" in metrics.extras
        # At 5% the governor cannot be idle: something must have spilled,
        # been refused, or been reclaimed.
        activity = sum(
            metrics.extras[key]
            for key in (
                "pressure.spills",
                "pressure.refused_promotions",
                "pressure.reclaims",
            )
            if key in metrics.extras
        )
        assert activity > 0

    def test_no_governor_no_pressure_extras(self):
        metrics = run_policy("sentinel", model="dcgan", fast_fraction=0.2)
        assert not any(k.startswith("pressure.") for k in metrics.extras)


class TestComposesWithChaos:
    @staticmethod
    def _extras():
        return run_policy(
            "sentinel",
            model="dcgan",
            fast_fraction=0.1,
            pressure=GOVERNOR,
            chaos=ChaosConfig.uniform(0.2, seed=13),
            audit=True,
        ).extras

    def test_chaos_under_governor_survives(self):
        """Chaos and the governor both act in one audited run."""
        extras = self._extras()
        assert extras["chaos.migration_busy"] > 0
        assert extras["pressure.reclaims"] > 0

    def test_chaos_under_governor_repeats(self):
        """Two audited chaos-plus-governor runs give equal extras."""
        assert self._extras() == self._extras()


class TestSurvivalExperiment:
    def test_trimmed_experiment_completes(self):
        result = pressure_survival(
            models=("dcgan",),
            policies=("sentinel", "ial"),
            fast_fractions=(0.1,),
            trace=True,
        )
        assert set(result["records"]) == {"sentinel/dcgan", "ial/dcgan"}
        for series in result["records"].values():
            assert len(series) == 1
            assert series[0]["step_time"] > 0.0
        assert "every point must complete" in result["text"]
        assert result["labeled"], "trace=True captured no event streams"
        for label, events in result["labeled"]:
            assert events, f"{label} recorded an empty trace"
