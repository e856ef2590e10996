"""Shape of BENCHMARK.json and of the layer-metric map in bench/moves.json."""

import json
import re
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def moves():
    with open(BENCH / "moves.json") as handle:
        return json.load(handle)


def test_top_level_keys(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["paths"] == ["bench"]
    assert spec["command"] == ["python3", "bench/run.py"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60


def test_counts(spec):
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128


def test_names_units_and_keys(spec):
    names = []
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))


def test_setup_time_is_an_end_to_end_metric(spec):
    setup = {m["name"]: m for m in spec["end_to_end"]}["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_every_layer_metric_names_what_it_moves(spec, moves):
    workloads = {w["name"] for w in spec["workloads"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    assert list(moves) == [m["name"] for m in spec["per_layer"]]
    for name, entry in moves.items():
        assert set(entry) == {"moves", "workloads"}, name
        assert entry["moves"] and set(entry["moves"]) <= end_to_end, name
        assert entry["workloads"] and set(entry["workloads"]) <= workloads, name


def test_workloads_match_the_runner(spec):
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_layer_metrics_cover_every_traced_layer(spec):
    import spans

    names = {m["name"] for m in spec["per_layer"]}
    for layer in spans.LAYERS:
        assert {f"{layer}.self_s", f"{layer}.calls"} <= names
