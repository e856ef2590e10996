"""Migration-interval performance model (Eq. 1 and Eq. 2)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.interval import (
    choose_interval_length,
    evaluate_interval_length,
    partition_layers,
)
from repro.core.profile import Profile, TensorProfile


def profile_with(
    num_layers=8,
    long_tensors=(),
    short_bytes=None,
    fast_times=None,
):
    tensors = {}
    for tid, (nbytes, touches) in enumerate(long_tensors):
        tensors[tid] = TensorProfile(
            tid=tid,
            name=f"t{tid}",
            nbytes=nbytes,
            alloc_layer=0,
            free_layer=num_layers - 1,
            preallocated=False,
            touches_by_layer=dict(touches),
        )
    return Profile(
        graph_name="g",
        signature=(),
        num_layers=num_layers,
        page_size=4096,
        tensors=tensors,
        layer_fast_times=fast_times or [0.1] * num_layers,
        layer_short_lived_bytes=short_bytes or [0] * num_layers,
    )


class TestPartition:
    def test_exact_division(self):
        assert partition_layers(6, 2) == [[0, 1], [2, 3], [4, 5]]

    def test_remainder_goes_to_last_interval(self):
        assert partition_layers(7, 3) == [[0, 1, 2], [3, 4, 5], [6]]

    def test_single_interval(self):
        assert partition_layers(4, 10) == [[0, 1, 2, 3]]

    def test_validation(self):
        with pytest.raises(ValueError):
            partition_layers(0, 1)
        with pytest.raises(ValueError):
            partition_layers(4, 0)

    @given(
        num_layers=st.integers(min_value=1, max_value=500),
        interval=st.integers(min_value=1, max_value=64),
    )
    def test_partition_covers_all_layers_once(self, num_layers, interval):
        intervals = partition_layers(num_layers, interval)
        flattened = [l for chunk in intervals for l in chunk]
        assert flattened == list(range(num_layers))
        assert all(len(chunk) <= interval for chunk in intervals)


class TestSpaceConstraint:
    def test_infeasible_when_demand_exceeds_capacity(self):
        """Eq. 1: Tensor(MIL) must be under S - RS."""
        profile = profile_with(
            num_layers=4,
            long_tensors=[(1000, {0: 1, 1: 1, 2: 1, 3: 1})],
            short_bytes=[200] * 4,
        )
        plan = evaluate_interval_length(profile, 2, fast_capacity=1100, promote_bandwidth=1e9)
        assert not plan.feasible  # 1000 >= 1100 - 200
        plan = evaluate_interval_length(profile, 2, fast_capacity=1300, promote_bandwidth=1e9)
        assert plan.feasible

    def test_rs_subtracted_from_capacity(self):
        profile = profile_with(
            num_layers=4,
            long_tensors=[(500, {0: 1, 3: 1})],
            short_bytes=[0, 600, 0, 0],
        )
        # Without RS 500 < 1000 would be feasible; RS=600 makes it not.
        plan = evaluate_interval_length(profile, 4, fast_capacity=1000, promote_bandwidth=1e9)
        assert not plan.feasible


class TestGoal:
    def test_exposure_zero_when_compute_hides_migration(self):
        profile = profile_with(
            num_layers=4,
            long_tensors=[(100, {2: 1})],
            fast_times=[10.0] * 4,
        )
        plan = evaluate_interval_length(profile, 2, fast_capacity=10**6, promote_bandwidth=1e3)
        # Interval 1 needs 100B -> 0.1s, hidden behind interval 0's 20s.
        assert plan.estimated_exposure == pytest.approx(0.0)

    def test_exposure_positive_when_compute_too_short(self):
        profile = profile_with(
            num_layers=4,
            long_tensors=[(10000, {2: 1, 3: 1})],
            fast_times=[0.001] * 4,
        )
        plan = evaluate_interval_length(profile, 2, fast_capacity=10**6, promote_bandwidth=1e3)
        assert plan.estimated_exposure > 0

    def test_first_interval_demand_fully_exposed(self):
        profile = profile_with(
            num_layers=2,
            long_tensors=[(1000, {0: 1})],
            fast_times=[5.0, 5.0],
        )
        plan = evaluate_interval_length(profile, 1, fast_capacity=10**6, promote_bandwidth=1e3)
        assert plan.estimated_exposure == pytest.approx(1.0)


class TestChooser:
    def test_picks_feasible_minimum_exposure(self):
        profile = profile_with(
            num_layers=8,
            long_tensors=[
                (1000, {i: 1 for i in range(8)}),
            ],
            fast_times=[0.5] * 8,
        )
        plan = choose_interval_length(profile, fast_capacity=10**6, promote_bandwidth=1e6)
        assert plan.feasible
        # Everything hides easily; the tie-break prefers the longest MIL.
        assert plan.interval_length == 8

    def test_space_constraint_caps_interval_length(self):
        # Each layer touches a distinct 1000-byte tensor; capacity 2500
        # fits at most two per interval.
        tensors = [(1000, {i: 1}) for i in range(8)]
        profile = profile_with(num_layers=8, long_tensors=tensors)
        plan = choose_interval_length(profile, fast_capacity=2500, promote_bandwidth=1e9)
        assert plan.feasible
        assert plan.interval_length <= 2

    def test_falls_back_when_nothing_feasible(self):
        profile = profile_with(
            num_layers=4,
            long_tensors=[(10**9, {i: 1 for i in range(4)})],
        )
        plan = choose_interval_length(profile, fast_capacity=1000, promote_bandwidth=1e9)
        assert not plan.feasible
        assert plan.interval_length == 1

    def test_validation(self):
        profile = profile_with()
        with pytest.raises(ValueError):
            choose_interval_length(profile, fast_capacity=0, promote_bandwidth=1.0)
        with pytest.raises(ValueError):
            choose_interval_length(profile, fast_capacity=1, promote_bandwidth=0.0)


class TestModelProperties:
    @given(
        capacity=st.integers(min_value=10**3, max_value=10**7),
        bandwidth=st.floats(min_value=1e3, max_value=1e9),
    )
    def test_more_capacity_never_breaks_feasibility(self, capacity, bandwidth):
        profile = profile_with(
            num_layers=6,
            long_tensors=[(500, {i: 1}) for i in range(6)],
            short_bytes=[100] * 6,
        )
        plan = evaluate_interval_length(profile, 2, capacity, bandwidth)
        bigger = evaluate_interval_length(profile, 2, capacity * 2, bandwidth)
        if plan.feasible:
            assert bigger.feasible

    @given(bandwidth=st.floats(min_value=1e3, max_value=1e9))
    def test_more_bandwidth_never_increases_exposure(self, bandwidth):
        profile = profile_with(
            num_layers=6,
            long_tensors=[(10**6, {i: 1}) for i in range(6)],
            fast_times=[0.01] * 6,
        )
        base = evaluate_interval_length(profile, 2, 10**9, bandwidth)
        faster = evaluate_interval_length(profile, 2, 10**9, bandwidth * 2)
        assert faster.estimated_exposure <= base.estimated_exposure + 1e-12

    @given(
        mil=st.integers(min_value=1, max_value=12),
        num_layers=st.integers(min_value=1, max_value=40),
    )
    def test_plan_partitions_are_consistent(self, mil, num_layers):
        profile = profile_with(num_layers=num_layers)
        plan = evaluate_interval_length(profile, mil, 10**9, 1e9)
        assert len(plan.tensor_bytes) == plan.num_intervals
        assert len(plan.fast_times) == plan.num_intervals
        for layer in range(num_layers):
            interval = plan.interval_of_layer(layer)
            assert layer in plan.layers_of(interval)


class TestPlanQueries:
    def test_interval_of_layer(self):
        profile = profile_with(num_layers=7)
        plan = evaluate_interval_length(profile, 3, fast_capacity=10**6, promote_bandwidth=1e6)
        assert plan.interval_of_layer(0) == 0
        assert plan.interval_of_layer(2) == 0
        assert plan.interval_of_layer(3) == 1
        assert plan.interval_of_layer(6) == 2
        assert plan.layers_of(2) == [6]
