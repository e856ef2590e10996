"""Page table: run mapping, splitting, poisoning, migration state."""

import pytest
from hypothesis import given, strategies as st

from repro.mem.devices import DeviceKind
from repro.mem.page import PageError, PageTable, PageTableEntry


class TestMapping:
    def test_map_run_assigns_sequential_vpns(self):
        table = PageTable()
        first = table.map_run(4, DeviceKind.SLOW)
        second = table.map_run(2, DeviceKind.SLOW)
        assert first.vpn == 0
        assert second.vpn == 4
        assert table.mapped_pages == 6

    def test_vpns_never_reused(self):
        table = PageTable()
        run = table.map_run(3, DeviceKind.SLOW)
        table.unmap(run.vpn)
        fresh = table.map_run(1, DeviceKind.SLOW)
        assert fresh.vpn == 3

    def test_zero_pages_rejected(self):
        with pytest.raises(ValueError):
            PageTable().map_run(0, DeviceKind.SLOW)

    def test_bad_page_size_rejected(self):
        with pytest.raises(ValueError):
            PageTable(page_size=3000)

    def test_unmap_missing_raises(self):
        with pytest.raises(PageError):
            PageTable().unmap(7)

    def test_entry_lookup(self):
        table = PageTable()
        run = table.map_run(1, DeviceKind.FAST)
        assert table.entry(run.vpn) is run
        with pytest.raises(PageError):
            table.entry(99)

    def test_contains_and_len(self):
        table = PageTable()
        run = table.map_run(5, DeviceKind.SLOW)
        assert run.vpn in table
        assert len(table) == 1

    def test_runs_on_and_bytes_on(self):
        table = PageTable(page_size=4096)
        slow = table.map_run(2, DeviceKind.SLOW)
        table.map_run(3, DeviceKind.FAST)
        assert [r.vpn for r in table.runs_on(DeviceKind.SLOW)] == [slow.vpn]
        assert table.bytes_on(DeviceKind.FAST) == 3 * 4096


class TestSplit:
    def test_split_preserves_totals(self):
        table = PageTable()
        run = table.map_run(10, DeviceKind.SLOW)
        tail = table.split(run.vpn, 4)
        assert run.npages == 4
        assert tail.npages == 6
        assert tail.vpn == run.vpn + 4
        assert table.mapped_pages == 10

    def test_split_inherits_state(self):
        table = PageTable()
        run = table.map_run(4, DeviceKind.FAST)
        run.poisoned = True
        run.pinned = True
        run.initialized = True
        tail = table.split(run.vpn, 1)
        assert tail.device is DeviceKind.FAST
        assert tail.poisoned and tail.pinned and tail.initialized

    def test_split_out_of_range_rejected(self):
        table = PageTable()
        run = table.map_run(4, DeviceKind.SLOW)
        with pytest.raises(PageError):
            table.split(run.vpn, 0)
        with pytest.raises(PageError):
            table.split(run.vpn, 4)

    def test_split_in_flight_rejected(self):
        table = PageTable()
        run = table.map_run(4, DeviceKind.SLOW)
        run.begin_migration(DeviceKind.FAST, available_at=1.0)
        with pytest.raises(PageError):
            table.split(run.vpn, 2)

    @given(
        npages=st.integers(min_value=2, max_value=1000),
        data=st.data(),
    )
    def test_repeated_splits_conserve_pages(self, npages, data):
        table = PageTable()
        run = table.map_run(npages, DeviceKind.SLOW)
        for _ in range(data.draw(st.integers(min_value=1, max_value=5))):
            candidates = [e for e in table.entries() if e.npages >= 2]
            if not candidates:
                break
            target = candidates[0]
            point = data.draw(
                st.integers(min_value=1, max_value=target.npages - 1)
            )
            table.split(target.vpn, point)
        assert table.mapped_pages == npages
        # Runs tile the vpn space with no overlap.
        spans = sorted((e.vpn, e.npages) for e in table.entries())
        cursor = run.vpn
        for vpn, count in spans:
            assert vpn == cursor
            cursor += count
        # Split tails join the table out of address order; the sorted walk
        # still yields them in it.
        assert [e.vpn for e in table.entries_by_vpn()] == [vpn for vpn, _ in spans]


class TestMigrationState:
    def test_begin_and_commit(self):
        entry = PageTableEntry(vpn=0, npages=1, device=DeviceKind.SLOW)
        entry.begin_migration(DeviceKind.FAST, available_at=2.0)
        assert entry.in_flight
        source = entry.commit_migration()
        assert source is DeviceKind.SLOW
        assert entry.device is DeviceKind.FAST
        assert not entry.in_flight

    def test_double_begin_rejected(self):
        entry = PageTableEntry(vpn=0, npages=1, device=DeviceKind.SLOW)
        entry.begin_migration(DeviceKind.FAST, 1.0)
        with pytest.raises(PageError):
            entry.begin_migration(DeviceKind.FAST, 2.0)

    def test_migrate_to_same_device_rejected(self):
        entry = PageTableEntry(vpn=0, npages=1, device=DeviceKind.SLOW)
        with pytest.raises(PageError):
            entry.begin_migration(DeviceKind.SLOW, 1.0)

    def test_pinned_cannot_migrate(self):
        entry = PageTableEntry(vpn=0, npages=1, device=DeviceKind.SLOW, pinned=True)
        with pytest.raises(PageError):
            entry.begin_migration(DeviceKind.FAST, 1.0)

    def test_commit_without_begin_rejected(self):
        entry = PageTableEntry(vpn=0, npages=1, device=DeviceKind.SLOW)
        with pytest.raises(PageError):
            entry.commit_migration()

    def test_effective_device_respects_completion_time(self):
        entry = PageTableEntry(vpn=0, npages=1, device=DeviceKind.SLOW)
        entry.begin_migration(DeviceKind.FAST, available_at=5.0)
        assert entry.effective_device(4.9) is DeviceKind.SLOW
        assert entry.effective_device(5.0) is DeviceKind.FAST


class TestPoison:
    def test_poison_all_and_unpoison_all(self):
        table = PageTable()
        runs = [table.map_run(1, DeviceKind.SLOW) for _ in range(3)]
        table.poison_all()
        assert all(r.poisoned for r in runs)
        table.unpoison_all()
        assert not any(r.poisoned for r in runs)

    def test_access_counters(self):
        entry = PageTableEntry(vpn=0, npages=2, device=DeviceKind.SLOW)
        entry.reads = 3
        entry.writes = 4
        assert entry.accesses == 7
        entry.reset_counts()
        assert entry.accesses == 0
