"""One pass of one workload in a fresh process; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --pass-id K --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

``run.py`` starts this once per pass, so every pass pays the imports and
starts with the workbench's module caches empty, as a ``workbench``
command does.  The line carries ``ready``, the ``time.perf_counter()``
reading when set-up (imports and input generation) ended; on Linux that
clock is CLOCK_MONOTONIC and comparable with the parent's readings.  It
also carries ``setup_slice_s``, the mean duration of calibration slices
timed right after set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import calibration  # noqa: E402
import workloads  # noqa: E402  (needs src on the path)
from tracer import Tracer  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-id", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", type=Path, help="where a traced pass writes its spans")
    args = ap.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed, workloads.load_reference())
    ready = time.perf_counter()
    # the host's speed right after set-up, in which run.py states set-up time
    setup_slice_s = calibration.mean_slice_s(calibration.SETUP_SLICES)
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_slice_s": setup_slice_s}))
        return 0

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    # traced passes run no calibration slices, which would land in spans
    sampler = None if tracer else calibration.Calibration()
    p = workloads.Pass(workload.stages, sampler)
    with sampler or contextlib.nullcontext():
        start = time.perf_counter()
        workload.run(p)
        pass_s = time.perf_counter() - start - p.paused_s()
    if tracer:
        # read the trace before the checks, which call traced kernels themselves
        layers = tracer.layer_metrics()
        roots = list(tracer.certified_roots())
        if args.spans:
            tracer.write(args.spans, args.pass_id)
    result = {"ready": ready, "setup_slice_s": setup_slice_s, "pass_s": pass_s,
              "stages": p.stage_s,
              "attempted": len(p.ops), "failures": p.verify(),
              "degrees": workloads.pushforward_degrees(workload, p)}
    if sampler:
        result["pass_cal"] = pass_s / sampler.slice_s
        result["stages_cal"] = {stage: t / sampler.slice_s for stage, t in p.stage_s.items()}
    if tracer:
        layers.update(workloads.enclosure_metrics(roots))
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
