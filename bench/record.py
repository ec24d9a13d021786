"""Write expected.json, the recorded results the checks compare against.

Run from the checkout root at the commit that defines the benchmark:

    python3 bench/record.py

Each job of each workload and size is run once; its output must pass the
code-independent invariants in checks.py before its digest is stored.
For the eccentricity jobs the whole table (every vertex as a source) is
stored, so that any seed's sources can be checked.
"""

import json
import sys

import checks
import workloads
from worker import run_job


def main():
    expected = {}
    for size in workloads.SIZES:
        for workload in workloads.WORKLOADS:
            for job in workloads.jobs(workload, size):
                if job["check"] == "ecc":
                    job["sources"] = list(range(checks.vertex_count(job["n"])))
                rc, output = run_job(job)
                if rc != job["rc"]:
                    raise SystemExit("%s exited %r, want %d" % (job["id"], rc, job["rc"]))
                expected[job["id"]] = checks.recorded_value(job, output)
                print(job["id"], file=sys.stderr)
    lines = ["  %s: %s" % (json.dumps(k), json.dumps(v, separators=(",", ":")))
             for k, v in sorted(expected.items())]
    with open(checks.EXPECTED_PATH, "w") as fh:
        fh.write("{\n%s\n}\n" % ",\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
