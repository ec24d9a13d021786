"""One pass of a workload, in a fresh interpreter.

Usage: python3 bench/worker.py '<plan JSON>'

Everything before READY is set-up: interpreter start, `import runcube`
and building the CLI parser.  The jobs then run serially in this process;
a fresh process per pass means the unbounded lru_caches inside runcube
start empty, as they do for every CLI invocation.  Peak RSS is read
before the results are checked, and the pass prints one JSON line.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import runcube  # noqa: E402
import runcube.cli  # noqa: E402

runcube.cli.build_parser()
READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402


def run_job(job):
    """(exit code, output) of one job; CLI output is captured, not printed."""
    kind = job["check"]
    if kind == "ecc":
        g = runcube.build(job["n"])
        return 0, [runcube.eccentricity(g, s) for s in job["sources"]]
    if kind == "diam":
        g = runcube.build(job["n"])
        return 0, [runcube.diameter(g), runcube.graph.radius(g)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = runcube.cli.main(list(job["argv"]))
        except SystemExit as exc:
            rc = exc.code
    return rc, buf.getvalue()


def cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_pass(plan, expected):
    tracer = Tracer() if plan["trace"] else None
    if tracer is not None:
        tracer.install()
    results = []
    wall = 0.0
    cpu0 = cpu_seconds()
    try:
        for job in plan["jobs"]:
            start = time.perf_counter()
            try:
                rc, output = run_job(job)
            except Exception:
                traceback.print_exc()
                rc, output = None, None
            wall += time.perf_counter() - start
            results.append((job, rc, output))
    finally:
        if tracer is not None:
            tracer.uninstall()
    cpu = cpu_seconds() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    jobs = []
    for job, rc, output in results:
        why = "job raised" if output is None else checks.check(job, rc, output, expected)
        if why is not None:
            print("check failed: %s: %s" % (job["id"], why), file=sys.stderr)
        jobs.append({"id": job["id"], "ok": why is None})
    out = {
        "ready_at": READY,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "jobs": jobs,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["absent"] = tracer.absent
    return out


def main():
    plan = json.loads(sys.argv[1])
    expected = checks.load_expected()
    print(json.dumps(run_pass(plan, expected)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
