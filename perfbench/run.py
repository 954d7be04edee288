"""Outside-in benchmark of the workbench.

    python3 perfbench/run.py --workload suite|exset|elimination --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout.  Each pass of a workload runs in a fresh
Python process (``worker.py``), one at a time, with one thread: the
workbench's module caches start empty on every ``workbench`` command, so a
warm loop in one process would report gains that users never see.  Passes
are started until the next one would end after ``--seconds``; there is
always at least one.  Extra processes that only set up bring the set-up
samples to at least ``SETUP_SAMPLES``.

With ``--trace 0`` the last line reports the end-to-end metrics, medians
over the run's passes:

- ``setup_s``: process start, imports and input generation, in seconds of
  a host on which a calibration slice takes ``calibration.REF_SLICE_S``:
  the wall time times that over the mean duration of the slices the
  process times right after set-up;
- ``pass_cal``: the wall time of one pass, without the calibration slices,
  in units of the mean duration of the slices ``calibration.Calibration``
  runs every 0.35 s during the pass.

The speed of a shared 2-vCPU host drifts by a third within minutes, and
the workbench and the slices slow alike, so the calibrated times hold
steady where wall times do not: three passes of one elimination seed took
25.2 to 32.4 s and 954 to 962 slices, and between two batches of seeds the
median set-up wall time rose by up to 36%.  The lines above the result
give the wall times of set-up and of one pass (``pass_s``), the time
inside the operations of each stage in seconds and in slices, and the
share of operations that failed their check; they are not gated.

With ``--trace 1`` the run makes one untraced pass, then traced passes,
which run no calibration slices (they would land in spans), and reports
the per-layer metrics of the traced passes (medians) together with the
tracing overhead, traced minus untraced ``pass_s``.  Spans go to
``.perfbench-out/``.  Every pass checks its outputs after the timed region;
the lines above the JSON list each failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import REF_SLICE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("suite", "exset", "elimination")
SETUP_SAMPLES = 9
# one run of one workload must end within 180 s
RUN_LIMIT_S = 170
# sums of stages reported under names of their own
STAGE_SUMS = {
    "curve_checks_s": ("curve_vs_form_s", "other_checks_s"),
    "membership_s": ("member_hit_s", "member_miss_s"),
}


class BenchError(RuntimeError):
    pass


def _worker(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    spawned = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=max(deadline - spawned, 1.0))
    ended = time.perf_counter()
    if proc.returncode != 0:
        raise BenchError(f"pass of {workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_wall_s"] = result["ready"] - spawned
    result["setup_s"] = result["setup_wall_s"] * REF_SLICE_S / result["setup_slice_s"]
    result["wall_s"] = ended - spawned
    return result


def _passes(workload: str, seed: int, seconds: float, deadline: float, flags_of) -> list[dict]:
    """Start passes until the next would end after ``seconds``."""
    start = time.perf_counter()
    passes = []
    while True:
        passes.append(_worker(workload, seed, deadline, "--pass-id", str(len(passes)),
                              *flags_of(len(passes))))
        elapsed = time.perf_counter() - start
        if elapsed + passes[-1]["wall_s"] > seconds:
            return passes


def environment() -> dict:
    import mpmath
    import numpy

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                 cwd=ROOT, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
    }


def declared(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; return the report lines and the result object."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    if trace:
        OUT.mkdir(exist_ok=True)

    def flags_of(i):
        # with --trace 1, pass 0 is the untraced pass the overhead is taken against
        if trace and i > 0:
            return ("--trace", "1", "--spans", str(OUT / f"spans-{workload}-{seed}-{i}.jsonl.gz"))
        return ("--trace", "0")

    passes = _passes(workload, seed, seconds, deadline, flags_of)
    if trace and len(passes) == 1:
        passes.append(_worker(workload, seed, deadline, "--pass-id", "1", *flags_of(1)))
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    lines = [f"# environment {json.dumps(environment())}",
             f"# {workload} seed {seed}: {len(passes)} passes, {attempted} operations checked",
             f"# {workload} failed_share {failed / attempted!r} ratio ({failed} of {attempted})"]
    lines += [f"# FAILED {f}" for f in failures]
    degrees = passes[-1]["degrees"]
    if degrees["morphisms.pushforward_curve.checked"]:
        lines.append(f"# {workload} pushforwards over the bound deg A <= 2 deg Z: "
                     f"{degrees['morphisms.pushforward_curve.over_degree_bound']} of "
                     f"{degrees['morphisms.pushforward_curve.checked']}, "
                     f"{degrees['morphisms.pushforward_curve.extra_degree']} degrees in excess "
                     f"(ROADMAP item 3b; counted, not failed)")

    if trace:
        traced = passes[1:]
        metrics = {}
        for name in traced[0]["layers"]:
            metrics[name] = statistics.median(p["layers"][name] for p in traced)
        for name in ("morphisms.pushforward_curve.over_degree_bound",
                     "morphisms.pushforward_curve.extra_degree"):
            metrics[name] = statistics.median(p["degrees"][name] for p in traced)
        metrics["trace.pass_s"] = statistics.median(p["pass_s"] for p in traced)
        metrics["trace.untraced_pass_s"] = passes[0]["pass_s"]
        metrics["trace.overhead_s"] = metrics["trace.pass_s"] - passes[0]["pass_s"]
    else:
        setups = passes + [_worker(workload, seed, deadline, "--setup-only")
                           for _ in range(SETUP_SAMPLES - len(passes))]
        metrics = {
            "setup_s": statistics.median(p["setup_s"] for p in setups),
            "pass_cal": statistics.median(p["pass_cal"] for p in passes),
        }
        lines.append(f"# {workload} pass_s {statistics.median(p['pass_s'] for p in passes)!r} s")
        stages = list(passes[0]["stages"])
        sums = {**{stage: (stage,) for stage in stages},
                **{name: parts for name, parts in STAGE_SUMS.items() if set(parts) <= set(stages)}}
        for name, parts in sums.items():
            wall, cal = (statistics.median(sum(p[key][s] for s in parts) for p in passes)
                         for key in ("stages", "stages_cal"))
            of = f" ({' + '.join(parts)})" if len(parts) > 1 else ""
            lines.append(f"# {workload} {name} {wall!r} s, {cal!r} cal{of}")
        walls = [p["setup_wall_s"] for p in setups]
        lines.append(f"# {workload} set-up wall time {statistics.median(walls)!r} s "
                     f"(median of {[round(w, 4) for w in walls]})")
    units = declared(trace)
    if set(units) != set(metrics):
        raise BenchError(f"measured metrics differ from BENCHMARK.json: "
                         f"{sorted(set(units) ^ set(metrics))}")
    for name, unit in units.items():
        lines.append(f"# {workload} {name} {metrics[name]!r} {unit}")
    return {
        "lines": lines,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run raises inside subprocess.run, which kills and reaps the pass
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "workbench").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"no workbench sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    runs = [(w, t) for w in WORKLOADS for t in (False, True)] \
        if args.workload == "all" else [(args.workload, bool(args.trace))]
    try:
        for workload, trace in runs:
            out = measure(workload, args.seed, args.seconds, trace)
            print("\n".join(out["lines"]), flush=True)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
