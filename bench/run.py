"""runcube benchmark: run one workload, check its results, print its metrics.

Usage:
    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds runcube's sources in src/.
Each pass of the workload runs in a fresh interpreter (bench/worker.py);
passes repeat until the next one would end after --seconds.  With
--trace 0 the last stdout line reports the end-to-end metrics (medians
over the passes); with --trace 1 it reports the per-layer metrics from
traced passes, alternated with untraced ones to measure the overhead.
README.md describes the workloads and the metrics.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

import workloads
from tracer import metric_units

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
# a run, however slow the code under test, ends well inside 180 s
RUN_LIMIT_S = 170

# name: (unit, how a run combines its passes).  Which job runs first shifts
# a pass's peak RSS by a few percent (the allocator's state differs), so a
# run reports the highest peak of its passes; times are medians.
END_TO_END = {
    "wall_s": ("s", statistics.median),
    "setup_s": ("s", statistics.median),
    "peak_rss_mb": ("MB", max),
}


class PassError(Exception):
    pass


def worker_env():
    """The caller's environment minus runcube's overrides, with a fixed hash seed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("RUNCUBE_")}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(jobs, traced, timeout):
    """Run one pass in a fresh interpreter; returns the worker's record plus setup_s."""
    plan = json.dumps({"jobs": jobs, "trace": traced})
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER, plan],
        cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise PassError("the run did not finish within %d s" % RUN_LIMIT_S)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError("the worker exited with code %d" % proc.returncode)
    record = json.loads(lines[-1])
    record["setup_s"] = record["ready_at"] - spawned
    record["traced"] = traced
    return record


def run_passes(workload, size, seed, seconds, trace):
    """Passes until the next would end after the deadline; trace 1 alternates modes.

    Each pass draws its own job order (and BFS sources) from the seed, so a
    run's medians average over orders instead of resting on one of them.
    """
    rng = random.Random(seed)
    deadline = time.monotonic() + seconds
    limit = time.monotonic() + RUN_LIMIT_S
    modes = [False, True] if trace else [False]
    passes = []
    last = {}
    while True:
        traced = modes[len(passes) % len(modes)]
        start = time.monotonic()
        jobs = workloads.plan(workload, size, rng)
        passes.append(run_pass(jobs, traced, timeout=max(1.0, limit - start)))
        last[traced] = time.monotonic() - start
        if len(passes) < len(modes):
            continue
        nxt = modes[len(passes) % len(modes)]
        if time.monotonic() + last[nxt] > deadline:
            return passes


def summarize(passes):
    """attempted, failed and error_rate over every job of every pass."""
    attempted = sum(len(p["jobs"]) for p in passes)
    failed = sum(1 for p in passes for job in p["jobs"] if not job["ok"])
    return attempted, failed, failed / attempted


def end_to_end(passes):
    return {
        name: {"value": combine(p[name] for p in passes), "unit": unit}
        for name, (unit, combine) in END_TO_END.items()
    }


def per_layer(passes):
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    values = {}
    for name, unit in metric_units().items():
        samples = [p["layers"].get(name, 0) for p in traced]
        values[name] = {"value": statistics.median_low(samples), "unit": unit}
    values["process.cpu_s"]["value"] = statistics.median(p["cpu_s"] for p in plain)
    values["trace.overhead_s"]["value"] = (
        statistics.median(p["wall_s"] for p in traced)
        - statistics.median(p["wall_s"] for p in plain)
    )
    return values


def parse_args(argv):
    parser = argparse.ArgumentParser(description="runcube benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="job sizes; 'tiny' is for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "runcube", "__init__.py")):
        print("error: no runcube sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    try:
        passes = run_passes(args.workload, args.size, args.seed, args.seconds, args.trace)
    except PassError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    attempted, failed, error_rate = summarize(passes)
    metrics = per_layer(passes) if args.trace else end_to_end(passes)
    first = passes[0]
    print("workload %s, seed %d, size %s: %d passes (%d traced), nproc %d, python %s, numpy %s"
          % (args.workload, args.seed, args.size, len(passes), sum(p["traced"] for p in passes),
             len(os.sched_getaffinity(0)), first["python"], first["numpy"]))
    if args.trace and passes[1]["absent"]:
        print("absent (reported as 0): %s" % ", ".join(passes[1]["absent"]))
    for name, m in metrics.items():
        print("%-52s %14.6g %s" % (name, m["value"], m["unit"]))
    print("%-52s %14.6g %s  (%d of %d jobs)" % ("error_rate", error_rate, "1", failed, attempted))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
