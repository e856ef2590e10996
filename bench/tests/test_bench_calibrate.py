"""The calibration loop must not depend on the heap of the code it normalizes,
and a unit's calibration samples the host while the unit runs."""

import gc
import signal
import time

import workloads
from workloads import UnitTimer, calibrate


class Node:
    def __init__(self, parent):
        self.parent = parent
        self.children = []


def test_calibration_runs_no_collection_next_to_a_large_live_heap():
    root = Node(None)
    heap = [Node(root) for _ in range(200_000)]
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    # A threshold of 1 makes every tracked allocation due for a collection,
    # as if the simulator had left the counters just short of one.
    threshold = gc.get_threshold()
    gc.callbacks.append(count)
    gc.set_threshold(1, 1, 1)
    try:
        calib_s = calibrate()
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(count)
    assert collections == []
    assert calib_s > 0.0
    assert gc.isenabled()
    assert len(heap) == 200_000


def test_calibration_leaves_a_disabled_collector_disabled():
    gc.disable()
    try:
        calibrate()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_unit_is_calibrated_before_during_and_after(monkeypatch):
    samples = iter(range(1, 1000))
    taken = []

    def fake_calibrate():
        taken.append(next(samples))
        return float(taken[-1])

    def busy(seconds):
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            pass
        return "done"

    monkeypatch.setattr(workloads, "calibrate", fake_calibrate)
    timer = UnitTimer()
    assert timer(busy, 4.5 * workloads.SAMPLE_PERIOD_S) == "done"
    # One sample before, one per tick while the unit ran, one after.
    assert len(taken) >= 4
    assert timer.calib_s == [sum(taken) / len(taken)]
    assert timer.unit_s[0] > 4.0 * workloads.SAMPLE_PERIOD_S
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    timer(busy, 2.0 * workloads.SAMPLE_PERIOD_S)
    assert len(timer.unit_s) == len(timer.calib_s) == 2


def test_child_process_unit_is_calibrated_at_its_ends_only(monkeypatch):
    taken = []
    monkeypatch.setattr(workloads, "calibrate", lambda: taken.append(1.0) or 1.0)
    timer = UnitTimer(sample_period=None)
    timer(time.sleep, 3.0 * workloads.SAMPLE_PERIOD_S)
    assert len(taken) == 2 and timer.calib_s == [1.0]


def test_uncalibrated_timer_takes_no_sample(monkeypatch):
    monkeypatch.setattr(workloads, "calibrate", lambda: 1 / 0)
    timer = UnitTimer(calibrated=False)
    assert timer(sum, [1, 2, 3]) == 6
    assert len(timer.unit_s) == 1 and timer.calib_s == []
