"""Allocators: packing, page alignment, grouping, run refcounting."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.dnn.alloc import AllocationError, GroupedAllocator, PackedAllocator
from repro.dnn.tensor import Tensor, TensorKind
from repro.mem.devices import DeviceKind
from repro.mem.machine import Machine
from repro.mem.platforms import OPTANE_HM

PAGE = OPTANE_HM.page_size


def machine():
    return Machine(OPTANE_HM)


def place_slow(tensor, now):
    return DeviceKind.SLOW


def make_tensor(tid, nbytes, alloc=0, free=0):
    tensor = Tensor(tid=tid, name=f"t{tid}", nbytes=nbytes, kind=TensorKind.TEMP)
    tensor.alloc_layer = alloc
    tensor.free_layer = free
    return tensor


class TestPackedAllocator:
    def test_small_tensors_share_a_page(self):
        alloc = PackedAllocator(machine(), place_slow)
        a = alloc.alloc(make_tensor(0, 100), now=0.0)
        b = alloc.alloc(make_tensor(1, 100), now=0.0)
        assert a.shares[0].run.vpn == b.shares[0].run.vpn
        assert alloc.live_page_bytes == PAGE

    def test_large_tensor_gets_dedicated_pages_plus_shared_tail(self):
        alloc = PackedAllocator(machine(), place_slow)
        big = alloc.alloc(make_tensor(0, PAGE * 2 + 100), now=0.0)
        assert sum(s.nbytes for s in big.shares) == PAGE * 2 + 100
        tail_run = big.shares[-1].run
        small = alloc.alloc(make_tensor(1, 50), now=0.0)
        # False sharing: the small tensor lands in the big tensor's tail page.
        assert small.shares[0].run.vpn == tail_run.vpn

    def test_page_freed_when_last_resident_leaves(self):
        m = machine()
        alloc = PackedAllocator(m, place_slow)
        a = make_tensor(0, 100)
        b = make_tensor(1, 100)
        alloc.alloc(a, now=0.0)
        alloc.alloc(b, now=0.0)
        alloc.free(a, now=0.0)
        assert m.slow.used == PAGE  # b still resident
        alloc.free(b, now=0.0)
        assert m.slow.used == 0

    def test_double_alloc_rejected(self):
        alloc = PackedAllocator(machine(), place_slow)
        t = make_tensor(0, 100)
        alloc.alloc(t, now=0.0)
        with pytest.raises(AllocationError):
            alloc.alloc(t, now=0.0)

    def test_free_unknown_rejected(self):
        alloc = PackedAllocator(machine(), place_slow)
        with pytest.raises(AllocationError):
            alloc.free(make_tensor(0, 100), now=0.0)

    def test_page_not_reused_after_full(self):
        alloc = PackedAllocator(machine(), place_slow)
        alloc.alloc(make_tensor(0, PAGE), now=0.0)  # exactly one page
        b = alloc.alloc(make_tensor(1, 10), now=0.0)
        assert b.shares[0].run.vpn != 0 or b.shares[0].run.npages == 1


class TestPageAlignedAllocator:
    """The page-aligned layout: a ``GroupedAllocator`` with ``None`` groups."""

    def test_one_tensor_per_run(self):
        m = machine()
        alloc = GroupedAllocator(m, place_slow, lambda tensor: None)
        a = alloc.alloc(make_tensor(0, 100), now=0.0)
        b = alloc.alloc(make_tensor(1, 100), now=0.0)
        assert a.shares[0].run.vpn != b.shares[0].run.vpn
        assert m.slow.used == 2 * PAGE

    def test_rounding_overhead_tracked(self):
        alloc = GroupedAllocator(machine(), place_slow, lambda tensor: None)
        alloc.alloc(make_tensor(0, 1), now=0.0)
        assert alloc.live_page_bytes == PAGE
        assert alloc.live_tensor_bytes == 1
        assert alloc.fragmentation_overhead == pytest.approx(PAGE - 1)


class TestGroupedAllocator:
    def test_same_group_shares_pages(self):
        alloc = GroupedAllocator(machine(), place_slow, lambda t: "g")
        a = alloc.alloc(make_tensor(0, 100), now=0.0)
        b = alloc.alloc(make_tensor(1, 100), now=0.0)
        assert a.shares[0].run.vpn == b.shares[0].run.vpn

    def test_different_groups_never_share(self):
        alloc = GroupedAllocator(
            machine(), place_slow, lambda t: "short" if t.nbytes < 200 else "long"
        )
        a = alloc.alloc(make_tensor(0, 100), now=0.0)
        b = alloc.alloc(make_tensor(1, 500), now=0.0)
        vpns_a = {s.run.vpn for s in a.shares}
        vpns_b = {s.run.vpn for s in b.shares}
        assert not vpns_a & vpns_b

    def test_none_group_is_dedicated(self):
        alloc = GroupedAllocator(machine(), place_slow, lambda t: None)
        a = alloc.alloc(make_tensor(0, 100), now=0.0)
        b = alloc.alloc(make_tensor(1, 100), now=0.0)
        assert a.shares[0].run.vpn != b.shares[0].run.vpn

    def test_users_of(self):
        alloc = GroupedAllocator(machine(), place_slow, lambda t: "g")
        a = make_tensor(0, 100)
        b = make_tensor(1, 100)
        alloc.alloc(a, now=0.0)
        mapping = alloc.alloc(b, now=0.0)
        run = mapping.shares[0].run
        assert alloc.users_of(run) == {0, 1}
        alloc.free(a, now=0.0)
        assert alloc.users_of(run) == {1}


class TestMappingQueries:
    def test_bytes_on_device(self):
        m = machine()
        alloc = GroupedAllocator(m, place_slow, lambda tensor: None)
        mapping = alloc.alloc(make_tensor(0, PAGE * 2), now=0.0)
        assert mapping.bytes_on(DeviceKind.SLOW, now=0.0) == PAGE * 2
        assert mapping.bytes_on(DeviceKind.FAST, now=0.0) == 0
        m.migration.promote(mapping.runs(), now=0.0)
        m.migration.sync(1e9)
        assert mapping.bytes_on(DeviceKind.FAST, now=1e9) == PAGE * 2

    def test_run_in_flight_counts_on_its_destination_from_available_at(self):
        m = machine()
        alloc = GroupedAllocator(m, place_slow, lambda tensor: None)
        mapping = alloc.alloc(make_tensor(0, PAGE * 2), now=0.0)
        m.migration.promote(mapping.runs(), now=0.0)
        run = mapping.shares[0].run
        lands = run.available_at
        assert run.in_flight and lands > 0.0
        before = math.nextafter(lands, 0.0)
        assert mapping.bytes_on(DeviceKind.SLOW, before) == PAGE * 2
        assert mapping.bytes_on(DeviceKind.FAST, before) == 0
        # The copy is valid from available_at on; nothing has synced yet.
        assert mapping.bytes_on(DeviceKind.FAST, lands) == PAGE * 2
        assert mapping.bytes_on(DeviceKind.SLOW, lands) == 0
        assert run.in_flight and run.device is DeviceKind.SLOW

    def test_zero_byte_share_counts_on_no_tier(self):
        """Retiring a page in the middle of a run splits off a tail that
        the tensor adopts with a zero-byte share; the tail moving to fast
        memory moves none of the tensor's bytes."""
        m = machine()
        alloc = GroupedAllocator(m, place_slow, lambda tensor: None)
        mapping = alloc.alloc(make_tensor(0, PAGE * 3), now=0.0)
        run = mapping.shares[0].run
        assert alloc.retire_page(run, run.vpn + 1, now=0.0)
        fragment = mapping.shares[-1]
        assert fragment.nbytes == 0 and fragment.run is not run
        m.migration.promote([fragment.run], now=0.0)
        m.migration.sync(1e9)
        assert fragment.run.device is DeviceKind.FAST
        assert mapping.bytes_on(DeviceKind.FAST, now=1e9) == 0
        assert mapping.bytes_on(DeviceKind.SLOW, now=1e9) == PAGE * 3


#: One allocator operation: allocate a tensor of a size in a group, or free
#: the live tensor at an index (taken modulo the live count).
SIZES = st.one_of(
    st.integers(min_value=1, max_value=PAGE * 3),
    st.sampled_from([PAGE - 1, PAGE, PAGE + 1, PAGE * 2]),
)
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), SIZES, st.sampled_from([None, "a", "b"])),
        st.tuples(st.just("free"), st.integers(min_value=0, max_value=99)),
    ),
    min_size=1,
    max_size=50,
)


class TestInterleavedAllocFree:
    """Allocations and frees in any order keep every book exact."""

    @staticmethod
    def check(m, alloc, live, peaks):
        assert m.slow.used == alloc.live_page_bytes
        assert alloc.live_tensor_bytes == sum(t.nbytes for t in live)
        for tensor in live:
            shares = alloc.mapping(tensor).shares
            assert sum(share.nbytes for share in shares) == tensor.nbytes
            for share in shares:
                assert share.run.vpn in m.page_table
                assert tensor.tid in alloc.users_of(share.run)
        # An open page is one a later group member may still fill: it must
        # be mapped and in use.
        for open_page in alloc._open.values():
            assert open_page.run.vpn in m.page_table
            assert alloc.users_of(open_page.run)
        assert alloc.peak_tensor_bytes == peaks["tensor"]
        assert alloc.peak_page_bytes == peaks["page"]

    @settings(max_examples=60, deadline=None)
    @given(operations=OPERATIONS, packed=st.booleans())
    def test_books_balance_after_every_operation(self, operations, packed):
        m = machine()
        groups = {}
        alloc = (
            PackedAllocator(m, place_slow)
            if packed
            else GroupedAllocator(m, place_slow, lambda tensor: groups[tensor.tid])
        )
        live = []
        peaks = {"tensor": 0, "page": 0}
        for tid, (kind, *args) in enumerate(operations):
            if kind == "alloc":
                size, groups[tid] = args
                tensor = make_tensor(tid, size)
                alloc.alloc(tensor, now=0.0)
                live.append(tensor)
            elif live:
                alloc.free(live.pop(args[0] % len(live)), now=0.0)
            peaks["tensor"] = max(peaks["tensor"], sum(t.nbytes for t in live))
            peaks["page"] = max(peaks["page"], m.slow.used)
            self.check(m, alloc, live, peaks)
        for tensor in live:
            alloc.free(tensor, now=0.0)
        assert m.slow.used == alloc.live_page_bytes == 0


class TestAllocatorProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=PAGE * 3), min_size=1, max_size=40)
    )
    def test_alloc_free_conserves_device_capacity(self, sizes):
        """Every allocator returns all pages once every tensor is freed, and
        mapped bytes always cover requested bytes."""
        for factory in (
            lambda m: PackedAllocator(m, place_slow),
            lambda m: GroupedAllocator(m, place_slow, lambda tensor: None),
            lambda m: GroupedAllocator(m, place_slow, lambda t: t.nbytes % 3),
        ):
            m = machine()
            alloc = factory(m)
            tensors = [make_tensor(i, s) for i, s in enumerate(sizes)]
            for tensor in tensors:
                mapping = alloc.alloc(tensor, now=0.0)
                assert mapping.nbytes == tensor.nbytes
            assert alloc.live_page_bytes >= alloc.live_tensor_bytes
            assert m.slow.used == alloc.live_page_bytes
            for tensor in tensors:
                alloc.free(tensor, now=0.0)
            assert m.slow.used == 0
            assert alloc.live_tensor_bytes == 0


class TestUnmappedRunHardening:
    """A run evicted through machine.unmap_run must not poison the packer.

    External actors (arena compaction, pressure reclaim teardown, tests)
    can unmap a run the allocator still references.  The open-page slot and
    free() must both tolerate the stale state instead of resurrecting a
    dead mapping or raising.
    """

    def test_open_page_not_reused_after_external_unmap(self):
        m = machine()
        allocator = PackedAllocator(m, place_slow)
        first = make_tensor(0, 100)
        mapping = allocator.alloc(first, now=0.0)
        run = mapping.shares[0].run
        m.unmap_run(run, now=0.0)  # eviction behind the allocator's back
        second = make_tensor(1, 100)
        mapping2 = allocator.alloc(second, now=0.0)
        fresh = mapping2.shares[0].run
        assert fresh.vpn != run.vpn
        assert fresh.vpn in m.page_table

    def test_open_page_not_reused_after_user_state_lost(self):
        m = machine()
        allocator = PackedAllocator(m, place_slow)
        first = make_tensor(0, 100)
        mapping = allocator.alloc(first, now=0.0)
        run = mapping.shares[0].run
        # Simulate a bookkeeping wipe that left the page table intact.
        allocator._run_users.pop(run.vpn)
        second = make_tensor(1, 100)
        mapping2 = allocator.alloc(second, now=0.0)
        assert mapping2.shares[0].run.vpn != run.vpn

    def test_free_of_externally_unmapped_tensor_is_quiet(self):
        m = machine()
        allocator = PackedAllocator(m, place_slow)
        first = make_tensor(0, 100)
        run = allocator.alloc(first, now=0.0).shares[0].run
        m.unmap_run(run, now=0.0)
        allocator._run_users.pop(run.vpn, None)  # eviction wiped the books
        allocator.free(first, now=0.0)  # must not raise
        assert allocator.live_tensor_bytes == 0

    def test_free_skips_unmap_when_run_already_gone(self):
        m = machine()
        allocator = PackedAllocator(m, place_slow)
        first = make_tensor(0, 100)
        run = allocator.alloc(first, now=0.0).shares[0].run
        m.unmap_run(run, now=0.0)
        # _run_users still names the tensor; free() must drop the books
        # without calling unmap_run on the dead vpn.
        allocator.free(first, now=0.0)
        assert allocator.live_page_bytes == 0
        assert run.vpn not in allocator._run_users

    def test_survivor_on_shared_page_unaffected(self):
        m = machine()
        allocator = PackedAllocator(m, place_slow)
        first = make_tensor(0, 100)
        second = make_tensor(1, 100)
        allocator.alloc(first, now=0.0)
        mapping2 = allocator.alloc(second, now=0.0)  # same open page
        shared = mapping2.shares[0].run
        m.unmap_run(shared, now=0.0)
        allocator.free(first, now=0.0)
        allocator.free(second, now=0.0)
        assert allocator.live_tensor_bytes == 0
