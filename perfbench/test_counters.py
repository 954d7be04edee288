"""Self-test of the benchmark's work counters; asserts no wall time.

    python3 -m pytest perfbench/test_counters.py

Two traced passes of one seed must count the same work, because the
counters are what later changes may rest a claim on.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent


def _is_counter(name: str) -> bool:
    return name.endswith((".calls", ".samples", ".constructions")) \
        or name in ("exset.curves", "exset.raw_curves")


def _traced_pass(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
         "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=300)
    return json.loads(out.stdout.strip().splitlines()[-1])["layers"]


@pytest.mark.parametrize("workload", ["suite", "exset", "elimination"])
def test_traced_counters_repeat(workload):
    first, second = _traced_pass(workload, 7), _traced_pass(workload, 7)
    counters = sorted(name for name in first if _is_counter(name))
    assert len(counters) > 20
    assert {n: first[n] for n in counters} == {n: second[n] for n in counters}
    if workload != "suite":
        # exact algebra only: no circle quadrature runs
        assert first["nevanlinna.circle_average.samples"] == 0
