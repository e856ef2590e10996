"""Verdict rules of bench/compare.py."""

import pytest

import compare


def m(value, samples=None):
    metric = {"value": value}
    if samples is not None:
        metric["samples"] = samples
    return metric


@pytest.mark.parametrize(
    "base, change, better, expected",
    [
        (m(100.0, [99, 100, 101]), m(104.0, [103, 104, 105]), "higher", "within bound"),
        (m(100.0, [99, 100, 101]), m(85.0, [84, 85, 86]), "higher", "worse"),
        (m(100.0, [99, 100, 101]), m(120.0, [119, 120, 121]), "higher", "better"),
        (m(1.0, [0.99, 1.0, 1.01]), m(1.2, [1.19, 1.2, 1.21]), "lower", "worse"),
        (m(1.0, [0.99, 1.0, 1.01]), m(0.8, [0.79, 0.8, 0.81]), "lower", "better"),
    ],
)
def test_bounded_verdicts(base, change, better, expected):
    assert compare.verdict(base, change, better, 0.1) == expected


def test_wide_spread_is_unresolved():
    base = m(100.0, [70, 100, 130])
    assert compare.verdict(base, m(80.0, [60, 80, 100]), "higher", 0.1) == "unresolved"
    assert compare.verdict(base, m(100.0, [99, 100, 101]), "higher", 0.1) == "unresolved"


def test_wide_spread_but_every_change_run_better():
    base = m(100.0, [70, 100, 130])
    change = m(300.0, [200, 300, 400])
    assert compare.verdict(base, change, "higher", 0.1) == "better"


def test_single_samples_have_no_spread():
    assert compare.verdict(m(50.0), m(52.0), "lower", 0.1) == "within bound"
    assert compare.verdict(m(50.0), m(60.0), "lower", 0.1) == "worse"


def document(digest, throughput, slowdown):
    return {
        "workloads": {
            "w": {
                "sim_digest": digest,
                "metrics": {
                    "tput": m(throughput, [throughput] * 3),
                    "sim.slow": m(slowdown),
                },
            }
        }
    }


SPEC = {
    "workloads": [{"name": "w", "why": ""}],
    "end_to_end": [
        {"name": "tput", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "sim.slow", "unit": "x", "better": "lower", "bound": 0.1},
    ],
}


def test_exit_status():
    base = document("aa", 100.0, 1.5)
    assert compare.compare(base, document("aa", 95.0, 1.5), SPEC)[1] == 0
    assert compare.compare(base, document("aa", 80.0, 1.5), SPEC)[1] == 1
    assert compare.compare(base, document("bb", 100.0, 1.5), SPEC)[1] == 1
    assert compare.compare(base, document("aa", 100.0, 1.8), SPEC)[1] == 1


def test_simulated_metrics_use_the_file_bound():
    """One definition: sim.* is judged by its bound; exactness is the digest."""
    base = document("aa", 100.0, 1.5)
    lines, status = compare.compare(base, document("aa", 100.0, 1.56), SPEC)
    assert status == 0
    assert any("sim.slow" in line and "within bound" in line for line in lines)
    lines, status = compare.compare(base, document("aa", 100.0, 1.7), SPEC)
    assert status == 1
    assert any("sim.slow" in line and "worse" in line for line in lines)


def test_missing_workload_fails():
    assert compare.compare(document("aa", 100.0, 1.5), {"workloads": {}}, SPEC)[1] == 1


def test_main_needs_two_files():
    assert compare.main(["only-one.json"]) == 2
