"""IAL: FIFO active list behaviour."""

import pytest

from repro.baselines.ial import IALPolicy
from repro.baselines.simple import SlowOnlyPolicy
from repro.dnn.alloc import RunShare, TensorMapping
from repro.dnn.executor import Executor
from repro.dnn.ops import TensorAccess
from repro.dnn.tensor import Tensor, TensorKind
from repro.mem.devices import DeviceKind
from repro.mem.machine import Machine
from repro.mem.platforms import OPTANE_HM
from repro.models import build_model


def run_ial(model="resnet32", batch=64, fast_fraction=0.2, steps=3):
    graph = build_model(model, batch_size=batch)
    peak = graph.peak_memory_bytes()
    machine = Machine.for_platform(OPTANE_HM, fast_capacity=int(peak * fast_fraction))
    policy = IALPolicy()
    executor = Executor(graph, machine, policy)
    return graph, machine, policy, executor.run_steps(steps)


class TestIAL:
    def test_promotes_on_access(self):
        graph, machine, policy, results = run_ial()
        assert results[-1].promoted_bytes > 0

    def test_evicts_fifo_under_pressure(self):
        graph, machine, policy, results = run_ial(fast_fraction=0.1)
        assert results[-1].demoted_bytes > 0
        assert machine.fast.used <= machine.fast.capacity

    def test_faster_than_slow_only(self):
        graph, machine, policy, results = run_ial()
        slow = Executor(
            build_model("resnet32", batch_size=64),
            Machine(OPTANE_HM),
            SlowOnlyPolicy(),
        ).run_step()
        assert results[-1].duration < slow.duration

    def test_arena_pages_persist_across_steps(self):
        """Arena page reuse: promoted runs stay DRAM-resident, so the next
        step's tensors can land in already-fast chunks without paying slow
        passes again."""
        graph, machine, policy, results = run_ial(steps=4)
        # Promoted arena pages remain mapped and DRAM-resident between
        # steps (tensors were freed, the pages were not).
        fast_runs = machine.page_table.runs_on(DeviceKind.FAST)
        assert fast_runs, "the active list promoted something that persists"
        assert machine.fast.used > 0
        # And the steady state serves a substantial share from fast memory.
        steady = results[-1]
        assert steady.bytes_fast > 0.3 * (steady.bytes_fast + steady.bytes_slow)

    def test_migrates_more_than_it_benefits(self):
        """The defining waste: IAL moves lots of bytes (Table IV) but lags
        Sentinel (Figure 7) because many promotions arrive too late or move
        soon-dead pages."""
        graph, machine, policy, results = run_ial(fast_fraction=0.2)
        assert results[-1].migrated_bytes > 0

    def test_headroom_kept_free(self):
        graph, machine, policy, results = run_ial(fast_fraction=0.2)
        # Some slack must exist right after a steady-state step completes
        # (drain the engine first).
        machine.migration.sync(float("inf"))


class TestDirectPromotion:
    """Inside one access: what ``charge_access`` promotes before it returns."""

    def ial_on_machine(self):
        machine = Machine.for_platform(OPTANE_HM, fast_capacity=256 * 4096)
        policy = IALPolicy()
        policy.bind(machine, build_model("dcgan", batch_size=8))
        promoted = []
        promote = machine.migration.promote

        def spy(runs, now, tag=None, urgent=False):
            promoted.append(list(runs))
            return promote(runs, now, tag=tag, urgent=urgent)

        machine.migration.promote = spy
        return machine, policy, promoted

    def touch(self, machine, policy, runs, now=0.0):
        page = machine.page_size
        nbytes = sum(run.npages for run in runs) * page
        tensor = Tensor(tid=0, name="t", nbytes=nbytes, kind=TensorKind.ACTIVATION)
        mapping = TensorMapping(
            tensor=tensor,
            shares=[RunShare(run=run, nbytes=run.npages * page) for run in runs],
        )
        access = TensorAccess(tensor=tensor, nbytes=nbytes, is_write=False)
        return policy.charge_access(tensor, mapping, access, now)

    def test_touched_slow_run_is_in_flight_to_fast_on_return(self):
        machine, policy, promoted = self.ial_on_machine()
        run = machine.map_run(4, DeviceKind.SLOW)
        charge = self.touch(machine, policy, [run])
        assert charge.bytes_slow == 4 * machine.page_size
        assert run.migrating_to is DeviceKind.FAST
        assert promoted == [[run]]

    def test_run_listed_twice_is_promoted_once(self):
        machine, policy, promoted = self.ial_on_machine()
        run = machine.map_run(2, DeviceKind.SLOW)
        self.touch(machine, policy, [run, run])
        assert promoted == [[run]]
        assert run.migrating_to is DeviceKind.FAST

    def test_pinned_and_in_flight_runs_are_left_alone(self):
        machine, policy, promoted = self.ial_on_machine()
        pinned = machine.map_run(2, DeviceKind.SLOW)
        pinned.pinned = True
        moving = machine.map_run(2, DeviceKind.SLOW)
        transfer, _, _ = machine.migration.promote([moving], 0.0)
        promoted.clear()
        self.touch(machine, policy, [pinned, moving])
        assert promoted == []
        assert not pinned.in_flight
        assert moving.available_at == transfer.finish

    def test_candidates_are_judged_before_any_promotion(self):
        """A run touched while its demotion is in flight stays out, even if
        the demotion lands during another touched run's promotion."""
        machine, policy, promoted = self.ial_on_machine()
        fresh = machine.map_run(2, DeviceKind.SLOW)
        leaving = machine.map_run(2, DeviceKind.FAST)
        transfer, _ = machine.migration.demote([leaving], 0.0)
        self.touch(machine, policy, [fresh, leaving], now=transfer.finish)
        assert promoted == [[fresh]]
        assert leaving.device is DeviceKind.SLOW and not leaving.in_flight
