"""The benchmark's workloads: which jobs each runs, at which size.

Each workload is chosen so that one layer does most of its work and
another does almost none (README.md has the reasons and the layer map).
The seed picks each pass's job order and, in `search`, its BFS sources; it
never changes a job's size, so runs under different seeds stay comparable.
"""

from checks import vertex_count

GF_ORDERS = {
    "updown": 100,
    "degree": 150,
    "up": 150,
    "down": 150,
    "cube": 150,
    "rank": 150,
    "maximal": 400,
    "edge": 400,
}

SIZES = {
    "full": {
        "census": 30, "maximal": 27, "graph": 24, "gf": GF_ORDERS,
        "verify": (12, 40), "dilation": 6, "ecc": (17, 48), "diam": 12,
    },
    # small enough to run all four workloads in a few seconds, for the tests
    "tiny": {
        "census": 10, "maximal": 8, "graph": 8, "gf": {kind: 12 for kind in GF_ORDERS},
        "verify": (5, 16), "dilation": 2, "ecc": (5, 4), "diam": 4,
    },
}


def _cli(check, argv, rc=0, **params):
    return {"id": " ".join(argv), "check": check, "argv": argv, "rc": rc, **params}


def jobs(workload, size="full"):
    """The workload's jobs in their canonical order, before the seed acts."""
    s = SIZES[size]
    if workload == "census":
        return [
            _cli("census", ["census", "--n", str(s["census"]), "--format", "json"], n=s["census"]),
            _cli("maximal", ["poset", "maximal", "--n", str(s["maximal"])], n=s["maximal"]),
            _cli("graph", ["graph", "--n", str(s["graph"])], n=s["graph"]),
        ]
    if workload == "series":
        return [
            _cli("gf", ["gf", "--kind", kind, "--order", str(order), "--format", "json"],
                 kind=kind, order=order)
            for kind, order in s["gf"].items()
        ]
    if workload == "verify":
        max_n, order = s["verify"]
        argv = ["verify", "--all", "--max-n", str(max_n), "--order", str(order), "--format", "json"]
        return [_cli("verify", argv, rc=1)]
    if workload == "search":
        n_ecc, k = s["ecc"]
        return [
            _cli("dilation", ["embed", "dilation", "--n", str(s["dilation"]), "--format", "json"],
                 n=s["dilation"]),
            {"id": "eccentricities R_%d" % n_ecc, "check": "ecc", "rc": 0, "n": n_ecc, "sources": k},
            {"id": "diameter radius R_%d" % s["diam"], "check": "diam", "rc": 0, "n": s["diam"]},
        ]
    raise KeyError(workload)


WORKLOADS = ("census", "series", "verify", "search")


def plan(workload, size, rng):
    """One pass's jobs in an order drawn from `rng`, with BFS sources filled in."""
    out = jobs(workload, size)
    rng.shuffle(out)
    for job in out:
        if job["check"] == "ecc":
            job["sources"] = rng.sample(range(vertex_count(job["n"])), job["sources"])
    return out
