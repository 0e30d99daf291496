"""Run one workload's jobs in a fresh process; run.py starts it.

    worker.py --workload W --seed S --probe
        import gradus and build the first unit's inputs, then exit: one set-up.
    worker.py --workload W --seed S --units N [--spans DIR]
        run the first N units of jobs; print one JSON line per job, then
        {"peak_rss_mb": ..., "speed_scale": ...}.  A job's "speed_scale", and
        the run's, turn measured times into times at the reference speed
        (see speed.py).

A fresh process per run keeps every module cache of the program cold.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, HERE)

import workloads  # noqa: E402
from speed import Speedometer  # noqa: E402


def _import_program():
    import gradus

    where = os.path.dirname(os.path.abspath(gradus.__file__))
    if where != os.path.join(ROOT, "src", "gradus"):
        sys.exit(f"gradus imported from {where}, not from this checkout")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--units", type=int, default=1)
    ap.add_argument("--spans")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    cli = args.workload == "cli_session"
    if args.probe or not cli:
        _import_program()
    if args.probe:
        workloads.unit_inputs(args.workload, args.seed, 0)
        return 0

    done = []
    with Speedometer(timer=not cli) as speed:
        runner = workloads.Runner(args.workload, ROOT, speed.clock, args.spans)
        for unit in range(args.units):
            for job in workloads.unit_inputs(args.workload, args.seed, unit):
                if cli:
                    speed.tick()
                first = len(speed.samples)
                res = runner.run(job, len(done))
                done.append((res, first, len(speed.samples)))
    for job_id, (res, first, last) in enumerate(done):
        # the samples taken during the job and the two on either side of it
        res.update(job=job_id, speed_scale=speed.scale(speed.samples[max(first - 2, 0):last + 2]))
        print(json.dumps(res), flush=True)
    runner.write_spans()
    # CLI jobs run in child processes; the worker itself does no program work
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    rss_kb = resource.getrusage(who).ru_maxrss
    tail = {"peak_rss_mb": rss_kb / 1024.0, "speed_scale": speed.scale(speed.samples)}
    print(json.dumps(tail), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
