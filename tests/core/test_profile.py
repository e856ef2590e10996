"""Profile data model queries."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.interval import partition_layers
from repro.core.profile import Profile, TensorProfile


def record(tid, nbytes=1000, alloc=0, free=0, touches=None, preallocated=False):
    return TensorProfile(
        tid=tid,
        name=f"t{tid}",
        nbytes=nbytes,
        alloc_layer=alloc if not preallocated else -1,
        free_layer=None if preallocated else free,
        preallocated=preallocated,
        touches_by_layer=dict(touches or {}),
    )


def make_profile(tensors, num_layers=4, short_bytes=None):
    return Profile(
        graph_name="g",
        signature=(),
        num_layers=num_layers,
        page_size=4096,
        tensors={t.tid: t for t in tensors},
        layer_fast_times=[0.1] * num_layers,
        layer_short_lived_bytes=short_bytes or [0] * num_layers,
    )


class TestTensorProfile:
    def test_short_lived_classification(self):
        assert record(0, alloc=1, free=1).short_lived
        assert not record(0, alloc=1, free=2).short_lived
        assert not record(0, preallocated=True).short_lived

    def test_next_touch_after(self):
        r = record(0, touches={1: 2, 3: 1, 5: 1})
        assert r.next_touch_after(0) == 1
        assert r.next_touch_after(1) == 3
        assert r.next_touch_after(5) is None

    def test_touched_in(self):
        r = record(0, touches={2: 1, 6: 1})
        assert r.touched_in(0, 2)
        assert r.touched_in(3, 6)
        assert not r.touched_in(3, 5)

    def test_lifetime_key_groups_identical_lifetimes(self):
        assert record(0, alloc=1, free=3).lifetime_key() == record(
            1, alloc=1, free=3
        ).lifetime_key()
        assert record(0, alloc=1, free=3).lifetime_key() != record(
            1, alloc=1, free=4
        ).lifetime_key()


class TestProfileQueries:
    def test_partitions(self):
        short = record(0, alloc=0, free=0)
        long = record(1, alloc=0, free=2)
        profile = make_profile([short, long])
        assert [t.tid for t in profile.short_lived_tensors()] == [0]
        assert [t.tid for t in profile.long_lived_tensors()] == [1]

    def test_rs_near_constant_in_interval_length(self):
        """The paper's observation: RS barely varies with MIL because it is
        a per-layer peak, not a sum."""
        profile = make_profile([], num_layers=6, short_bytes=[10, 40, 20, 40, 10, 5])
        assert profile.rs(1) == 40
        assert profile.rs(2) == 40
        assert profile.rs(6) == 40

    def test_long_lived_bytes_touched_in(self):
        long_a = record(1, nbytes=100, alloc=0, free=3, touches={0: 1, 3: 1})
        long_b = record(2, nbytes=50, alloc=1, free=3, touches={1: 1})
        short = record(3, nbytes=10, alloc=2, free=2, touches={2: 5})
        profile = make_profile([long_a, long_b, short])
        assert profile.long_lived_bytes_touched_in(0, 1) == 150
        assert profile.long_lived_bytes_touched_in(2, 2) == 0  # short excluded
        assert profile.long_lived_bytes_touched_in(3, 3) == 100

    def test_memory_overhead(self):
        profile = make_profile([])
        profile.packed_peak_bytes = 100
        profile.profiled_peak_bytes = 102
        assert profile.memory_overhead == pytest.approx(0.02)

    def test_hotness_rank_orders_descending(self):
        cold = record(0, touches={0: 1})
        hot = record(1, touches={0: 50, 1: 60})
        profile = make_profile([cold, hot])
        ranks = profile.hotness_rank()
        assert ranks[1] == 0
        assert ranks[0] == 1

    def test_interval_fast_time(self):
        profile = make_profile([], num_layers=4)
        assert profile.interval_fast_time([0, 1]) == pytest.approx(0.2)


@st.composite
def random_profiles(draw):
    """Profiles with touches inside and just outside the step's layers."""
    num_layers = draw(st.integers(min_value=1, max_value=12))
    layer = st.integers(min_value=-1, max_value=num_layers + 1)
    tensors = []
    for tid in range(draw(st.integers(min_value=0, max_value=8))):
        alloc = draw(st.integers(min_value=0, max_value=num_layers - 1))
        tensors.append(
            record(
                tid,
                nbytes=draw(st.integers(min_value=1, max_value=1 << 20)),
                alloc=alloc,
                free=draw(st.integers(min_value=alloc, max_value=num_layers - 1)),
                touches=draw(st.dictionaries(layer, st.integers(1, 5), max_size=6)),
                preallocated=draw(st.booleans()),
            )
        )
    short_bytes = draw(
        st.lists(
            st.integers(min_value=0, max_value=1 << 20),
            min_size=num_layers,
            max_size=num_layers,
        )
    )
    return make_profile(tensors, num_layers=num_layers, short_bytes=short_bytes)


class TestPlanIndexProperty:
    """The plan index answers Eq. 1's queries exactly as the profile does."""

    @given(profile=random_profiles())
    @settings(max_examples=60, deadline=None)
    def test_index_matches_profile_queries_for_every_mil(self, profile):
        index = profile.plan_index()
        for mil in range(1, profile.num_layers + 1):
            intervals = partition_layers(profile.num_layers, mil)
            assert index.interval_tensor_bytes(mil) == [
                profile.long_lived_bytes_touched_in(i[0], i[-1]) for i in intervals
            ]
            assert index.interval_rs(mil) == profile.rs(mil)

    @given(profile=random_profiles())
    @settings(max_examples=60, deadline=None)
    def test_touch_queries_match_brute_force(self, profile):
        span = range(-2, profile.num_layers + 2)
        for r in profile.tensors.values():
            touched = list(r.touches_by_layer)
            for layer in span:
                later = [l for l in touched if l > layer]
                assert r.next_touch_after(layer) == (min(later) if later else None)
            for first in span:
                for last in span:
                    assert r.touched_in(first, last) == any(
                        first <= l <= last for l in touched
                    )
