"""Memory devices: capacity tracking and access timing."""

import pytest
from hypothesis import given, strategies as st

from repro.mem.devices import DeviceFullError, DeviceKind, DeviceSpec, MemoryDevice


def make_device(capacity=1 << 20, read_bw=1e9, write_bw=5e8, latency=1e-7):
    spec = DeviceSpec(
        name="test",
        capacity=capacity,
        read_bandwidth=read_bw,
        write_bandwidth=write_bw,
        latency=latency,
    )
    return MemoryDevice(spec, DeviceKind.FAST)


class TestSpec:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            DeviceSpec("x", 0, 1.0, 1.0)

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            DeviceSpec("x", 1, 0.0, 1.0)
        with pytest.raises(ValueError):
            DeviceSpec("x", 1, 1.0, -1.0)

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            DeviceSpec("x", 1, 1.0, 1.0, latency=-1.0)

    def test_with_capacity_preserves_other_fields(self):
        spec = DeviceSpec("x", 100, 2.0, 3.0, latency=0.5)
        resized = spec.with_capacity(200)
        assert resized.capacity == 200
        assert resized.read_bandwidth == 2.0
        assert resized.write_bandwidth == 3.0
        assert resized.latency == 0.5
        assert resized.name == "x"


class TestDeviceKind:
    def test_other_flips(self):
        assert DeviceKind.FAST.other() is DeviceKind.SLOW
        assert DeviceKind.SLOW.other() is DeviceKind.FAST


class TestAllocation:
    def test_allocate_and_release(self):
        device = make_device(capacity=100)
        device.allocate(60)
        assert device.used == 60
        assert device.free == 40
        device.release(20)
        assert device.used == 40

    def test_overflow_raises(self):
        device = make_device(capacity=100)
        device.allocate(80)
        with pytest.raises(DeviceFullError):
            device.allocate(21)
        assert device.used == 80  # failed allocation left state intact

    def test_over_release_raises(self):
        device = make_device(capacity=100)
        device.allocate(10)
        with pytest.raises(ValueError):
            device.release(11)

    def test_negative_amounts_rejected(self):
        device = make_device()
        with pytest.raises(ValueError):
            device.allocate(-1)
        with pytest.raises(ValueError):
            device.release(-1)

    def test_fits(self):
        device = make_device(capacity=100)
        device.allocate(90)
        assert device.fits(10)
        assert not device.fits(11)

    def test_peak_tracking(self):
        device = make_device(capacity=100)
        device.allocate(70)
        device.release(50)
        device.allocate(10)
        assert device.peak_used == 70
        device.reset_peak()
        assert device.peak_used == 30

    @given(
        ops=st.lists(
            st.integers(min_value=1, max_value=1000),
            min_size=1,
            max_size=50,
        )
    )
    def test_alloc_release_conservation(self, ops):
        device = make_device(capacity=10**6)
        total = 0
        for amount in ops:
            device.allocate(amount)
            total += amount
        assert device.used == total
        for amount in ops:
            device.release(amount)
        assert device.used == 0


class TestTiming:
    def test_read_write_asymmetry(self):
        device = make_device(read_bw=1000.0, write_bw=500.0, latency=0.0)
        assert device.access_time(1000, is_write=False) == pytest.approx(1.0)
        assert device.access_time(1000, is_write=True) == pytest.approx(2.0)

    def test_latency_added(self):
        device = make_device(read_bw=1000.0, latency=0.5)
        assert device.access_time(1000, is_write=False) == pytest.approx(1.5)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            make_device().access_time(-1, is_write=False)


class TestReservations:
    def test_reserve_withholds_from_free_not_used(self):
        device = make_device(capacity=1000)
        granted = device.reserve(300)
        assert granted == 300
        assert device.reserved == 300
        assert device.used == 0
        assert device.free == 700

    def test_reserve_grant_clamped_to_free(self):
        device = make_device(capacity=1000)
        device.allocate(800)
        assert device.reserve(500) == 200
        assert device.free == 0

    def test_allocate_cannot_consume_reserved(self):
        device = make_device(capacity=1000)
        device.reserve(400)
        with pytest.raises(DeviceFullError, match="reserved"):
            device.allocate(700)
        assert not device.fits(700)
        device.allocate(600)  # exactly the unreserved remainder

    def test_capacity_partition_invariant(self):
        device = make_device(capacity=1000)
        device.allocate(250)
        device.reserve(300)
        assert device.used + device.reserved + device.free == 1000


class TestAccountingError:
    """Underflow is a typed, attributed failure — not a bare ValueError."""

    def test_over_release_raises_typed_error(self):
        from repro.errors import AccountingError, ReproError

        device = make_device()
        device.allocate(10)
        with pytest.raises(AccountingError) as excinfo:
            device.release(11)
        err = excinfo.value
        assert err.device == "test"
        assert isinstance(err, ReproError)
        # Back-compat: pre-typed callers caught ValueError; they still do.
        assert isinstance(err, ValueError)

    def test_message_names_device_counter_and_amounts(self):
        from repro.errors import AccountingError

        device = make_device()
        device.allocate(5)
        with pytest.raises(
            AccountingError, match=r"test: used accounting underflow"
        ):
            device.release(6)

    def test_negative_amounts_stay_plain_value_errors(self):
        from repro.errors import AccountingError

        device = make_device()
        with pytest.raises(ValueError) as excinfo:
            device.release(-1)
        assert not isinstance(excinfo.value, AccountingError)
