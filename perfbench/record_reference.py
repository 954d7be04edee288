"""Record the reference outputs the checks compare against.

    python3 perfbench/record_reference.py

Writes ``reference.json``: the outcome of each shipped scenario and the
content of each exceptional set the ``exset`` workload builds, from the
code in this checkout.  Re-record only when a change is meant to alter
those outputs, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from workbench.exset import build_W  # noqa: E402
from workbench.harness import load_scenario, run_scenario, shipped_scenario_dir  # noqa: E402


def main() -> None:
    suite = {p.stem: workloads.scenario_outcome(run_scenario(load_scenario(p)))
             for p in sorted(shipped_scenario_dir().glob("*.json"))}
    curves = workloads.exset_curves()
    exset = {f"{name}/{bound}": workloads.w_content(build_W(curves[name], bound))
             for name, bound in workloads.EXSET_BUILDS}
    workloads.REFERENCE.write_text(json.dumps({"suite": suite, "exset": exset}, indent=1) + "\n")


if __name__ == "__main__":
    main()
