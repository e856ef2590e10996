"""Compare two benchmark outputs metric by metric.

    python3 bench/compare.py base.json change.json

Both files are ``bench/out/run.json`` outputs of ``python3 bench/run.py``.
For every end-to-end metric of ``BENCHMARK.json`` on every workload it
prints the base and change values with the quartiles of their per-round
samples, and a verdict:

* ``unresolved`` - either side's quartile spread, as a share of its value,
  is wider than the metric's bound, and not every change sample beats every
  base sample;
* ``worse`` / ``better`` - the change moved past the bound in that direction;
* ``within bound`` - otherwise.

Every metric, simulated (``sim.*``) or host-side, is judged against its
bound in ``BENCHMARK.json``.  Exactness is a separate check: a change meant
only to speed up the simulator must leave every workload's ``sim_digest``,
a hash of all its simulated outputs, identical.  The exit code is 1 on any
``worse`` verdict or any ``sim_digest`` mismatch, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(samples: Sequence[float]) -> Tuple[float, float]:
    if len(samples) < 2:
        return samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, q3


def verdict(base: Dict, change: Dict, better: str, bound: float) -> str:
    """Verdict for one metric; ``base``/``change`` hold ``value`` and
    optionally ``samples``."""
    b, c = base["value"], change["value"]
    worse_by = (c - b) / b if better == "lower" else (b - c) / b
    b_samples = base.get("samples") or [b]
    c_samples = change.get("samples") or [c]
    b_q1, b_q3 = quartiles(b_samples)
    c_q1, c_q3 = quartiles(c_samples)
    spread = max((b_q3 - b_q1) / b, (c_q3 - c_q1) / c)
    if spread > bound:
        if better == "lower":
            all_better = max(c_samples) < min(b_samples)
        else:
            all_better = min(c_samples) > max(b_samples)
        return "better" if all_better else "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "within bound"


def compare(base: Dict, change: Dict, spec: Dict) -> Tuple[List[str], int]:
    """Report lines and exit status for two ``run.json`` documents."""
    lines: List[str] = []
    status = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        b_run = base["workloads"].get(name)
        c_run = change["workloads"].get(name)
        if b_run is None or c_run is None:
            lines.append(f"{name}: missing from {'base' if b_run is None else 'change'}")
            status = 1
            continue
        lines.append(f"{name}")
        if b_run["sim_digest"] != c_run["sim_digest"]:
            lines.append(
                f"  sim_digest MISMATCH {b_run['sim_digest'][:16]} -> "
                f"{c_run['sim_digest'][:16]}"
            )
            status = 1
        for metric in spec["end_to_end"]:
            key = metric["name"]
            b, c = b_run["metrics"][key], c_run["metrics"][key]
            result = verdict(b, c, metric["better"], metric["bound"])
            if result == "worse":
                status = 1
            b_q1, b_q3 = quartiles(b.get("samples") or [b["value"]])
            c_q1, c_q3 = quartiles(c.get("samples") or [c["value"]])
            lines.append(
                f"  {key:<24} base {b['value']:.6g} [{b_q1:.6g}, {b_q3:.6g}]  "
                f"change {c['value']:.6g} [{c_q1:.6g}, {c_q3:.6g}]  "
                f"{metric['unit']}  {result}"
            )
    return lines, status


def load(path) -> Dict:
    with open(path) as handle:
        return json.load(handle)


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 bench/compare.py BASE.json CHANGE.json", file=sys.stderr)
        return 2
    lines, status = compare(load(argv[0]), load(argv[1]), load(SPEC_PATH))
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
