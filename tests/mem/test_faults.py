"""Fault handler: Sentinel's poison-count-flush access counting."""

import pytest

from repro.chaos import ChaosConfig, FaultInjector
from repro.mem.devices import DeviceKind
from repro.mem.faults import FaultHandler
from repro.mem.page import PageTable
from repro.mem.tlb import TLB


@pytest.fixture
def setup():
    table = PageTable()
    tlb = TLB()
    handler = FaultHandler(table, tlb, fault_cost=1e-6)
    run = table.map_run(8, DeviceKind.SLOW)
    return table, tlb, handler, run


class TestFaultHandler:
    def test_negative_cost_rejected(self):
        table = PageTable()
        with pytest.raises(ValueError):
            FaultHandler(table, TLB(), fault_cost=-1.0)

    def test_unpoisoned_access_is_free_and_uncounted(self, setup):
        _, _, handler, run = setup
        assert handler.on_access_pass(run, 8, is_write=False) == 0.0
        assert run.accesses == 0
        assert handler.faults_taken == 0

    def test_poisoned_access_counts_per_page(self, setup):
        _, _, handler, run = setup
        run.poisoned = True
        cost = handler.on_access_pass(run, 8, is_write=False)
        assert run.reads == 8
        assert handler.faults_taken == 8
        assert cost == pytest.approx(8e-6)

    def test_write_counts_separately(self, setup):
        _, _, handler, run = setup
        run.poisoned = True
        handler.on_access_pass(run, 3, is_write=True)
        assert run.writes == 3
        assert run.reads == 0

    def test_multiple_passes_multiply(self, setup):
        _, _, handler, run = setup
        run.poisoned = True
        cost = handler.on_access_pass(run, 2, is_write=False, passes=5)
        assert run.reads == 10
        assert cost == pytest.approx(10e-6)

    def test_run_stays_poisoned_for_next_access(self, setup):
        _, _, handler, run = setup
        run.poisoned = True
        handler.on_access_pass(run, 1, is_write=False)
        assert run.poisoned
        handler.on_access_pass(run, 1, is_write=False)
        assert run.reads == 2

    def test_tlb_entry_flushed_after_counting(self, setup):
        _, tlb, handler, run = setup
        run.poisoned = True
        tlb.lookup(run.vpn)
        tlb.flush(run.vpn)  # profiler flushes after poisoning
        handler.on_access_pass(run, 1, is_write=False)
        assert run.vpn not in tlb

    def test_partial_page_touch(self, setup):
        _, _, handler, run = setup
        run.poisoned = True
        handler.on_access_pass(run, 3, is_write=False)
        assert run.reads == 3

    def test_touching_more_pages_than_run_rejected(self, setup):
        _, _, handler, run = setup
        with pytest.raises(ValueError):
            handler.on_access_pass(run, 9, is_write=False)

    def test_zero_pages_is_free(self, setup):
        _, _, handler, run = setup
        run.poisoned = True
        assert handler.on_access_pass(run, 0, is_write=False) == 0.0

    def test_bad_passes_rejected(self, setup):
        _, _, handler, run = setup
        with pytest.raises(ValueError):
            handler.on_access_pass(run, 1, is_write=False, passes=0)

    def test_overhead_accumulates_and_resets(self, setup):
        table, tlb, handler, run = setup
        run.poisoned = True
        handler.on_access_pass(run, 4, is_write=False)
        assert handler.overhead == pytest.approx(4e-6)
        handler.on_access_pass(run, 2, is_write=False)
        assert handler.overhead == pytest.approx(6e-6)
        # A fresh handler over the same table starts from zero.
        fresh = FaultHandler(table, tlb, fault_cost=1e-6)
        assert fresh.overhead == 0.0
        assert fresh.faults_taken == 0

    def test_zero_pages_with_multiple_passes_still_free(self, setup):
        _, _, handler, run = setup
        run.poisoned = True
        assert handler.on_access_pass(run, 0, is_write=True, passes=7) == 0.0
        assert run.writes == 0
        assert handler.faults_taken == 0

    def test_multi_pass_overhead_scales_linearly(self, setup):
        _, _, handler, run = setup
        run.poisoned = True
        one = handler.on_access_pass(run, 4, is_write=False)
        before = handler.overhead
        many = handler.on_access_pass(run, 4, is_write=False, passes=3)
        assert many == pytest.approx(3 * one)
        assert handler.overhead - before == pytest.approx(many)

    def test_repoison_cycle_resumes_counting(self, setup):
        """Unpoison (profiling done) -> free accesses; re-poison -> counted."""
        _, _, handler, run = setup
        run.poisoned = True
        handler.on_access_pass(run, 2, is_write=False)
        run.poisoned = False
        assert handler.on_access_pass(run, 2, is_write=False) == 0.0
        assert run.reads == 2  # the unpoisoned pass left no trace
        run.poisoned = True
        handler.on_access_pass(run, 2, is_write=False)
        assert run.reads == 4
        assert handler.faults_taken == 4


class TestLossyProfiling:
    def make_handler(self, drop_rate):
        table = PageTable()
        injector = FaultInjector(ChaosConfig(profile_drop_rate=drop_rate))
        handler = FaultHandler(table, TLB(), fault_cost=1e-6, injector=injector)
        run = table.map_run(8, DeviceKind.SLOW)
        run.poisoned = True
        return handler, run

    def test_dropped_samples_cost_time_but_miss_the_counters(self):
        handler, run = self.make_handler(drop_rate=1.0)
        cost = handler.on_access_pass(run, 8, is_write=False)
        # Every trap happened and was paid for...
        assert handler.faults_taken == 8
        assert cost == pytest.approx(8e-6)
        # ...but none of the samples reached the per-run profile.
        assert run.reads == 0
        assert handler.faults_dropped == 8

    def test_partial_drop_splits_the_accounting(self):
        handler, run = self.make_handler(drop_rate=0.5)
        handler.on_access_pass(run, 8, is_write=True)
        assert handler.faults_taken == 8
        assert run.writes + handler.faults_dropped == 8
        assert handler.faults_dropped in (4, 5)

    def test_zero_rate_injector_changes_nothing(self):
        handler, run = self.make_handler(drop_rate=0.0)
        handler.on_access_pass(run, 8, is_write=False)
        assert run.reads == 8
        assert handler.faults_dropped == 0
