"""The gradus benchmark: one seeded workload, measured end to end or traced.

    python3 perfbench/run.py --workload W --seed N --seconds R --trace 0|1

--trace 0 measures set-up (the median of several fresh set-ups) and then
runs about R seconds of jobs in a fresh worker process, with no tracing, and
reports the end-to-end metrics.  --trace 1 runs about R/2 seconds of jobs
twice in fresh processes, untraced and then traced, checks that both give
the same outputs, and reports per-layer metrics from the spans.
Every job's output is checked against a known answer.  The last line of
stdout is the result as JSON.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DEADLINE_S = 170  # the whole run, set-up and workers included
SETUP_REPEATS = 7
# Seconds per unit of jobs at the seed commit (2-core container, Python
# 3.11.7).  A run's job count is fixed from --seconds with these, not by a
# clock: a clock-bound run of multi-second jobs ends on a different job count
# when the machine is a little slower, which changes the job mix and moves
# every figure; a fixed count also gives both commits of a comparison the
# same work.
UNIT_COST_S = {
    "pair_pipeline": 2.2,
    "pair_pipeline_fp": 0.95,
    "smoothness_survey": 6.5,
    "cli_session": 11.5,
}


def _units(workload: str, seconds: float) -> str:
    return str(max(1, round(seconds / UNIT_COST_S[workload])))


class RunFailed(Exception):
    pass


def _worker(args: list, deadline: float) -> list:
    """Run worker.py to completion; return its stdout lines parsed as JSON."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunFailed(f"worker {args} ran past the deadline") from None
    if proc.returncode != 0:
        raise RunFailed(f"worker {args} exited {proc.returncode}")
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def _setup_s(base: list, deadline: float) -> tuple:
    """Median of fresh set-ups: (at reference speed, as timed)."""
    speedometer = speed.Speedometer(timer=False)
    raw = []
    for _ in range(SETUP_REPEATS):
        speedometer.tick()
        t0 = time.perf_counter()
        _worker(base + ["--probe"], deadline)
        raw.append(time.perf_counter() - t0)
    speedometer.tick()
    setup = statistics.median(raw)
    return setup * speedometer.scale(speedometer.samples), setup


def _split(lines: list):
    """(job lines, the worker's closing line)."""
    jobs = [x for x in lines if "job" in x]
    tail = [x for x in lines if "peak_rss_mb" in x]
    if not jobs or len(tail) != 1:
        raise RunFailed("worker printed no jobs or no closing line")
    return jobs, tail[0]


def _timings(times: list, setup: float) -> dict:
    return {
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "job_s_p50": (statistics.median(times), "s"),
        "job_s_p90": (statistics.quantiles(times, n=10, method="inclusive")[8], "s"),
        "setup_s": (setup, "s"),
    }


def _end_to_end(workload: str, base: list, seconds: int, deadline: float):
    """Metrics at reference speed, and the same figures as timed."""
    setup, setup_raw = _setup_s(base, deadline)
    jobs, tail = _split(_worker(base + ["--units", _units(workload, seconds)], deadline))
    ok = [j for j in jobs if j["error"] is None]
    if len(ok) < 2:
        raise RunFailed(f"{len(ok)} of {len(jobs)} jobs succeeded")
    metrics = _timings([j["s"] * j["speed_scale"] for j in ok], setup)
    metrics["peak_rss_mb"] = (tail["peak_rss_mb"], "MB")
    as_timed = _timings([j["s"] for j in ok], setup_raw)
    return jobs, len(jobs) - len(ok), metrics, as_timed


def _import_s(span_file: str) -> float:
    with open(span_file, encoding="utf-8") as fh:
        return json.load(fh)["meta"].get("import_s", 0.0)


def _traced(workload: str, seed: int, base: list, seconds: int, deadline: float):
    units = _units(workload, seconds / 2)
    plain, _ = _split(_worker(base + ["--units", units], deadline))
    spans_dir = os.path.join(ROOT, ".perfbench", f"trace-{workload}-seed{seed}")
    shutil.rmtree(spans_dir, ignore_errors=True)
    os.makedirs(spans_dir)
    traced, traced_tail = _split(
        _worker(base + ["--units", units, "--spans", spans_dir], deadline))
    jobs = plain + traced
    failed = sum(1 for j in jobs if j["error"] is not None)
    same = [a["digest"] for a in plain] == [b["digest"] for b in traced]
    overhead = 0.0
    if failed == 0:
        overhead = (sum(b["s"] * b["speed_scale"] for b in traced)
                    / sum(a["s"] * a["speed_scale"] for a in plain) - 1)
    files = sorted(os.path.join(spans_dir, f) for f in os.listdir(spans_dir))
    cli = None
    if workload == "cli_session":
        cli = {
            "process_s": sum(b["s"] or 0.0 for b in traced),
            "dispatch_s": sum(b.get("dispatch_s") or 0.0 for b in traced),
            "import_s": sum(_import_s(f) for f in files),
        }
    layer = tracing.layer_metrics(files, len(traced), traced_tail["speed_scale"], cli, overhead)
    units_of = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
    metrics = {name: (value, units_of[name]) for name, value in layer.items()}
    return jobs, failed, metrics, same


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "gradus", "__init__.py")):
        print(f"no gradus sources under {ROOT}/src", file=sys.stderr)
        return 2
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    as_timed, same = {}, True
    try:
        if args.trace:
            jobs, failed, metrics, same = _traced(
                args.workload, args.seed, base, args.seconds, deadline)
        else:
            jobs, failed, metrics, as_timed = _end_to_end(
                args.workload, base, args.seconds, deadline)
    except RunFailed as err:
        print(f"benchmark run failed: {err}", file=sys.stderr)
        return 1

    for j in jobs:
        if j["error"] is not None:
            print(f"job {j['job']} failed: {j['error']}")
    if not same:
        print("traced outputs differ from untraced outputs")
    print(f"{args.workload} seed={args.seed} trace={args.trace} jobs={len(jobs)} "
          f"failed={failed} failed_frac={failed / len(jobs):.4f}")
    for name, (value, unit) in metrics.items():
        timed = f"  (as timed: {as_timed[name][0]:.6g})" if name in as_timed else ""
        print(f"  {name} = {value:.6g} {unit}{timed}")
    result = {
        "correct": failed == 0 and same,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
