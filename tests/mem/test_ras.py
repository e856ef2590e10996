"""Memory RAS: config, injection, scrubbing, retirement, recovery ladder."""

import pytest

from repro.dnn.alloc import GroupedAllocator
from repro.dnn.ops import Op
from repro.dnn.tensor import Tensor, TensorKind
from repro.errors import UncorrectableMemoryError
from repro.mem.devices import DeviceKind
from repro.mem.machine import Machine
from repro.mem.platforms import OPTANE_HM
from repro.mem.ras import CE_STORM_THRESHOLD, RECOVERY_POLICIES, RASConfig, RasEngine

PAGE = OPTANE_HM.page_size


def place_slow(tensor, now):
    return DeviceKind.SLOW


def make_tensor(tid, nbytes=PAGE, preallocated=False):
    return Tensor(
        tid=tid,
        name=f"t{tid}",
        nbytes=nbytes,
        kind=TensorKind.WEIGHT if preallocated else TensorKind.ACTIVATION,
        preallocated=preallocated,
    )


def ras_machine(**overrides):
    """Machine with an enabled RAS engine (rates overridable per test)."""
    defaults = dict(seed=7, ue_rate=1e-9, ce_rate=1e-8)
    defaults.update(overrides)
    machine = Machine(OPTANE_HM, ras=RASConfig(**defaults))
    assert machine.ras is not None
    return machine


def allocate_one(machine, tensor, initialized=True):
    """Page-aligned alloc of one tensor; returns (allocator, mapping)."""
    alloc = GroupedAllocator(machine, place_slow, lambda tensor: None)
    mapping = alloc.alloc(tensor, now=0.0)
    for share in mapping.shares:
        share.run.initialized = initialized
    return alloc, mapping


class TestRASConfig:
    def test_default_is_disabled(self):
        assert not RASConfig().enabled

    def test_any_rate_enables(self):
        assert RASConfig(ue_rate=1e-12).enabled
        assert RASConfig(ce_rate=1e-12).enabled
        assert RASConfig(transit_corruption_rate=0.01).enabled

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            RASConfig(ue_rate=-1.0)
        with pytest.raises(ValueError):
            RASConfig(scrub_bandwidth=-1.0)

    def test_transit_rate_must_be_a_probability(self):
        with pytest.raises(ValueError):
            RASConfig(transit_corruption_rate=1.0)

    def test_unknown_recovery_rejected(self):
        with pytest.raises(ValueError, match="recovery"):
            RASConfig(recovery="pray")

    def test_recovery_policies_ordered_weakest_first(self):
        assert RECOVERY_POLICIES == ("none", "refetch", "remat")


class TestMachineWiring:
    def test_no_config_builds_no_engine(self):
        assert Machine(OPTANE_HM).ras is None

    def test_disabled_config_builds_no_engine(self):
        assert Machine(OPTANE_HM, ras=RASConfig()).ras is None

    def test_enabled_config_builds_engine_and_wires_migration(self):
        machine = ras_machine()
        assert isinstance(machine.ras, RasEngine)
        assert machine.migration.ras is machine.ras


class TestInjection:
    def test_no_mapped_pages_no_errors(self):
        machine = ras_machine(ue_rate=1.0, ce_rate=1.0)
        machine.ras.age(10.0, 10.0)
        assert machine.ras.counts["ras.errors_injected"] == 0

    def test_errors_land_on_mapped_pages(self):
        machine = ras_machine(ue_rate=0.0, ce_rate=1e-2)
        allocate_one(machine, make_tensor(0, nbytes=8 * PAGE))
        machine.ras.age(1.0, 1.0)
        assert machine.ras.counts["ras.errors_injected"] > 0
        lo, hi = 0, 8
        assert all(lo <= vpn < hi for vpn in machine.ras.latent_errors)

    def test_same_seed_same_arrivals(self):
        snapshots = []
        for _ in range(2):
            machine = ras_machine(seed=42, ue_rate=1e-4, ce_rate=1e-3)
            allocate_one(machine, make_tensor(0, nbytes=16 * PAGE))
            machine.ras.age(1.0, 1.0)
            snapshots.append(
                (machine.ras.latent_errors, dict(machine.ras.counts))
            )
        assert snapshots[0] == snapshots[1]

    def test_latent_ue_never_downgraded_to_ce(self):
        machine = ras_machine()
        allocate_one(machine, make_tensor(0))
        machine.ras._latent[0] = "ue"
        # Hammer CEs onto the single mapped page: the UE must survive.
        machine.ras.config = RASConfig(seed=7, ce_rate=1e-4)
        machine.ras.age(1.0, 1.0)
        assert machine.ras.latent_errors[0] == "ue"


class TestScrubber:
    def test_patrol_scrub_corrects_latent_ces(self):
        machine = ras_machine(
            ue_rate=0.0, ce_rate=1e-3, scrub_bandwidth=float(PAGE)
        )
        allocate_one(machine, make_tensor(0, nbytes=4 * PAGE))
        machine.ras.age(1.0, 1.0)
        assert machine.ras.counts["ras.errors_injected"] > 0
        # Repeat CEs on one page collapse into a single latent entry, so
        # the patrol corrects one hit per distinct struck page.
        struck = len(machine.ras.latent_errors)
        assert struck > 0
        # One sweep period for 4 mapped pages at PAGE/s is 4 s; far past
        # that every latent CE must have been reached by the patrol read.
        machine.ras.age(0.0, 1e6)
        assert machine.ras.counts["ras.ce_scrubbed"] == struck
        assert machine.ras.latent_errors == {}

    def test_scrub_hit_increments_wear(self):
        machine = ras_machine(ce_rate=1e-3, scrub_bandwidth=float(PAGE))
        allocate_one(machine, make_tensor(0))
        machine.ras.age(1.0, 1.0)
        machine.ras.age(0.0, 1e6)
        assert sum(machine.ras._ce_wear.values()) == machine.ras.counts[
            "ras.ce_scrubbed"
        ]

    def test_no_bandwidth_no_scrubbing(self):
        machine = ras_machine(ce_rate=1e-3, scrub_bandwidth=0.0)
        allocate_one(machine, make_tensor(0, nbytes=4 * PAGE))
        machine.ras.age(1.0, 1.0)
        machine.ras.age(0.0, 1e6)
        assert machine.ras.counts["ras.ce_scrubbed"] == 0
        assert machine.ras.latent_errors  # still waiting for a demand read


class TestCheckAccess:
    def _prepared(self, preallocated=False, initialized=True, **overrides):
        machine = ras_machine(ue_rate=1e-9, ce_rate=0.0, **overrides)
        tensor = make_tensor(0, preallocated=preallocated)
        alloc, mapping = allocate_one(machine, tensor, initialized=initialized)
        producer = Op(name="conv", flops=2e9, layer_index=0)
        return machine, tensor, alloc, mapping, producer

    def test_clean_pages_cost_nothing(self):
        machine, tensor, alloc, mapping, producer = self._prepared()
        cost = machine.ras.check_access(tensor, mapping, 0.0, producer, alloc)
        assert cost == 0.0

    def test_latent_ce_corrected_in_place(self):
        machine, tensor, alloc, mapping, producer = self._prepared()
        vpn = mapping.shares[0].run.vpn
        machine.ras._latent[vpn] = "ce"
        cost = machine.ras.check_access(tensor, mapping, 0.0, producer, alloc)
        assert cost == 0.0
        assert machine.ras.counts["ras.ce_corrected"] == 1
        assert machine.ras.latent_errors == {}
        assert machine.ras._ce_wear[vpn] == 1

    def test_ue_remat_charges_producer_compute_and_retires(self):
        machine, tensor, alloc, mapping, producer = self._prepared()
        vpn = mapping.shares[0].run.vpn
        machine.ras._latent[vpn] = "ue"
        reserved_before = machine.slow.reserved
        cost = machine.ras.check_access(tensor, mapping, 0.0, producer, alloc)
        assert cost == pytest.approx(
            producer.flops / machine.platform.compute_throughput
        )
        assert machine.ras.counts["ras.remat_events"] == 1
        assert machine.ras.counts["ras.retired_frames"] == 1
        assert machine.ras.remat_bytes == tensor.nbytes
        # Containment: the frame is gone from the page table and withheld
        # from the device forever.
        assert vpn not in machine.page_table
        assert machine.slow.reserved == reserved_before + PAGE
        assert machine.ras.badblocks[machine.slow.spec.name] == [vpn]

    def test_ue_on_preallocated_tensor_refetches(self):
        machine, tensor, alloc, mapping, producer = self._prepared(
            preallocated=True
        )
        vpn = mapping.shares[0].run.vpn
        machine.ras._latent[vpn] = "ue"
        cost = machine.ras.check_access(tensor, mapping, 0.0, producer, alloc)
        assert cost > 0.0
        assert machine.ras.counts["ras.refetch_events"] == 1
        assert machine.ras.counts["ras.remat_events"] == 0
        assert machine.ras.refetch_time == pytest.approx(cost)

    def test_ue_on_uninitialized_page_is_a_free_drop(self):
        machine, tensor, alloc, mapping, producer = self._prepared(
            initialized=False
        )
        machine.ras._latent[mapping.shares[0].run.vpn] = "ue"
        cost = machine.ras.check_access(tensor, mapping, 0.0, producer, alloc)
        assert cost == 0.0
        assert machine.ras.counts["ras.clean_drops"] == 1

    def test_recovery_none_raises_immediately(self):
        machine, tensor, alloc, mapping, producer = self._prepared(
            recovery="none"
        )
        machine.ras._latent[mapping.shares[0].run.vpn] = "ue"
        with pytest.raises(UncorrectableMemoryError):
            machine.ras.check_access(tensor, mapping, 0.0, producer, alloc)

    def test_exhausted_ladder_raises(self):
        # Volatile tensor, no producer to re-run: nothing can rebuild it.
        machine, tensor, alloc, mapping, _ = self._prepared()
        machine.ras._latent[mapping.shares[0].run.vpn] = "ue"
        with pytest.raises(UncorrectableMemoryError):
            machine.ras.check_access(tensor, mapping, 0.0, None, alloc)

    def test_refetch_policy_cannot_rebuild_volatile_data(self):
        machine, tensor, alloc, mapping, producer = self._prepared(
            recovery="refetch"
        )
        machine.ras._latent[mapping.shares[0].run.vpn] = "ue"
        with pytest.raises(UncorrectableMemoryError):
            machine.ras.check_access(tensor, mapping, 0.0, producer, alloc)

    def test_in_flight_runs_are_skipped(self):
        machine, tensor, alloc, mapping, producer = self._prepared()
        run = mapping.shares[0].run
        machine.ras._latent[run.vpn] = "ue"
        run.begin_migration(DeviceKind.FAST, available_at=5.0)
        cost = machine.ras.check_access(tensor, mapping, 0.0, producer, alloc)
        assert cost == 0.0
        assert machine.ras.latent_errors == {run.vpn: "ue"}

    def test_two_ues_on_one_access_split_consistently(self):
        machine = ras_machine()
        tensor = make_tensor(0, nbytes=4 * PAGE)
        alloc, mapping = allocate_one(machine, tensor)
        producer = Op(name="conv", flops=1e9, layer_index=0)
        run = mapping.shares[0].run
        machine.ras._latent[run.vpn + 1] = "ue"
        machine.ras._latent[run.vpn + 3] = "ue"
        cost = machine.ras.check_access(tensor, mapping, 0.0, producer, alloc)
        assert cost > 0.0
        assert machine.ras.counts["ras.retired_frames"] == 2
        table = machine.page_table
        assert table.run_containing(run.vpn + 1) is None
        assert table.run_containing(run.vpn + 3) is None
        # Survivors stay mapped: pages 0 and 2 of the original run.
        assert table.run_containing(run.vpn) is not None
        assert table.run_containing(run.vpn + 2) is not None


class TestCEStorm:
    def test_worn_page_escalates_ce_to_ue(self):
        machine = ras_machine(ue_rate=0.0, ce_rate=1e-2)
        allocate_one(machine, make_tensor(0))  # one mapped page: vpn 0
        machine.ras._ce_wear[0] = CE_STORM_THRESHOLD
        machine.ras.age(1.0, 1.0)
        assert machine.ras.counts["ras.errors_injected"] > 0
        assert machine.ras.counts["ras.ce_storm_escalations"] > 0
        assert machine.ras.latent_errors[0] == "ue"


class TestTransitGate:
    def test_zero_rate_is_free(self):
        machine = ras_machine()
        when = machine.ras.transit_gate(machine.promote_channel, PAGE, 1.0, None)
        assert when == 1.0
        assert machine.ras.counts["ras.transit_retries"] == 0

    def test_corruption_burns_channel_time_and_retries(self):
        machine = ras_machine(transit_corruption_rate=0.9, ue_rate=0.0)
        when = machine.ras.transit_gate(
            machine.promote_channel, 64 * PAGE, 0.0, "test"
        )
        retries = machine.ras.counts["ras.transit_retries"]
        assert retries > 0
        assert when > 0.0
        assert machine.promote_channel.aborted_transfers == retries

    def test_deterministic_across_engines(self):
        outcomes = []
        for _ in range(2):
            machine = ras_machine(transit_corruption_rate=0.5, ue_rate=0.0)
            when = machine.ras.transit_gate(
                machine.promote_channel, PAGE, 0.0, None
            )
            outcomes.append((when, machine.ras.counts["ras.transit_retries"]))
        assert outcomes[0] == outcomes[1]


class TestMigrationScrub:
    def test_commit_corrects_latent_ces_but_ues_travel(self):
        machine = ras_machine()
        run = machine.map_run(2, DeviceKind.SLOW)
        machine.ras._latent[run.vpn] = "ce"
        machine.ras._latent[run.vpn + 1] = "ue"
        transfer, scheduled, skipped = machine.migration.promote([run], now=0.0)
        assert transfer is not None and not skipped
        machine.migration.sync(transfer.finish + 1.0)
        assert machine.ras.counts["ras.ce_migration_corrected"] == 1
        # The UE is forwarded poison: still latent on the moved data.
        assert machine.ras.latent_errors == {run.vpn + 1: "ue"}
