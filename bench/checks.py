"""Correctness checks for benchmark jobs.

A job is judged by the mathematical content parsed from its output, never
by its bytes, so extra fields (such as a future per-report `elapsed_s` in
`verify` JSON) or a change of layout do not count as failures.  Where an
invariant exists that does not depend on runcube's code it is checked
directly:

* R_n has f_(n+2) vertices;
* R_n has (3n+4) f_(n-6) + (5n+6) f_(n-5) edges (n >= 5), and every edge
  is the up-flip of one endpoint and the down-flip of the other;
* the rank polynomial of R_n has coefficient C(n-w+1, w) at x^w;
* `verify --all` exits 1 with exactly the Boolean-interval and Mobius
  reports failing, first at the pair [00100, 11100] of R_5.

Everything else is compared with a digest recorded in expected.json at
the commit that defined the benchmark (see record.py).
"""

import hashlib
import json
import os
from functools import lru_cache
from math import comb

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

FAILING_REPORTS = {"Boolean-interval claim", "Mobius closed form"}
COUNTEREXAMPLE = ("00100", "11100")


@lru_cache(maxsize=None)
def fib(k):
    """Fibonacci numbers with f_0 = 0, f_1 = 1 and f_(-1) = 1."""
    if k == -1:
        return 1
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def vertex_count(n):
    return fib(n + 2)


def edge_count(n):
    """Closed-form edge count of R_n; None below n = 5 where it does not apply."""
    if n < 5:
        return None
    return (3 * n + 4) * fib(n - 6) + (5 * n + 6) * fib(n - 5)


def is_vertex_word(word):
    """Run condition on a full string: a run of r ones is followed by >= r + 1 zeros."""
    i = 0
    while i < len(word):
        if word[i] != "1":
            i += 1
            continue
        r = 0
        while i < len(word) and word[i] == "1":
            r += 1
            i += 1
        z = 0
        while i < len(word) and word[i] == "0":
            z += 1
            i += 1
        if z < r + 1:
            return False
    return True


def digest(content):
    text = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_expected(path=EXPECTED_PATH):
    with open(path) as fh:
        return json.load(fh)


class CheckFailure(Exception):
    pass


def _require(cond, why):
    if not cond:
        raise CheckFailure(why)


def _census(job, output):
    c = json.loads(output)["census"]
    n = job["n"]
    counts = c["counts"]
    vertices = sum(k for _, _, k in counts)
    _require(c["n"] == n, "census is for n=%s" % c["n"])
    _require(vertices == vertex_count(n) == c["vertices"], "vertex total %d" % vertices)
    edges = edge_count(n)
    if edges is not None:
        _require(c["edges"] == edges, "edge total %s, want %d" % (c["edges"], edges))
        _require(sum(b * k for _, b, k in counts) == edges, "down-flip sum is not the edge count")
        _require(sum(a * k for a, _, k in counts) == edges, "up-flip sum is not the edge count")
    return {"n": n, "counts": counts}


def _maximal(job, output):
    labels = output.split()
    n = job["n"]
    _require(all(len(w) == n for w in labels), "label of wrong length")
    _require(labels == sorted(set(labels)), "labels not strictly ascending")
    _require(all(is_vertex_word(w + "00") for w in labels), "label that is not a vertex")
    return labels


def _graph(job, output):
    fields = dict(line.split(": ", 1) for line in output.splitlines() if ": " in line)
    n = job["n"]
    content = {key: int(fields[key]) for key in ("n", "vertices", "edges")}
    _require(content["n"] == n, "graph is for n=%d" % content["n"])
    _require(content["vertices"] == vertex_count(n), "vertex count %d" % content["vertices"])
    if edge_count(n) is not None:
        _require(content["edges"] == edge_count(n), "edge count %d" % content["edges"])
    return content


def _gf(job, output):
    payload = json.loads(output)
    kind, order = job["kind"], job["order"]
    _require(payload["kind"] == kind and payload["order"] == order, "wrong kind or order")
    variables = payload["variables"]
    coeffs = payload["coefficients"]
    _require([k for k, _ in coeffs] == list(range(order + 1)), "coefficient indices")
    for n, terms in coeffs[1:]:
        terms = [(tuple(e), int(c)) for e, c in terms]
        total = sum(c for _, c in terms)
        edges = edge_count(n)
        if kind in ("updown", "down", "up", "degree", "rank"):
            _require(total == vertex_count(n), "t^%d does not count the vertices" % n)
        if kind in ("updown", "down") and edges is not None:
            d = variables.index("d")
            _require(sum(e[d] * c for e, c in terms) == edges, "t^%d down-flips != edges" % n)
        if kind == "degree" and edges is not None:
            _require(sum(e[0] * c for e, c in terms) == 2 * edges, "t^%d degree sum != 2E" % n)
        if kind == "rank":
            want = {w: comb(n - w + 1, w) for w in range(n + 1) if comb(n - w + 1, w)}
            _require(dict((e[0], c) for e, c in terms) == want, "t^%d is not binomial" % n)
        if kind == "cube":
            by_dim = dict((e[0], c) for e, c in terms)
            _require(by_dim.get(0) == vertex_count(n), "t^%d 0-cubes != vertices" % n)
            if edges is not None:
                _require(by_dim.get(1) == edges, "t^%d 1-cubes != edges" % n)
        if kind == "edge" and edges is not None:
            _require(total == edges, "t^%d is not the edge count" % n)
    return {"kind": kind, "order": order, "variables": variables, "coefficients": coeffs}


def _verify(job, output):
    payload = json.loads(output)
    reports = payload["reports"]
    failing = {r["name"] for r in reports if not r["ok"]}
    _require(payload["ok"] is False, "verify claims every check passed")
    _require(failing == FAILING_REPORTS, "failing reports %s" % sorted(failing))
    for r in reports:
        if r["name"] in FAILING_REPORTS:
            first = next(c for c in r["checks"] if not c["ok"])
            pair_named = all(label in first["detail"] for label in COUNTEREXAMPLE)
            _require("R_5" in first["label"] and pair_named,
                     "%s does not first fail on [00100, 11100] in R_5" % r["name"])
    return [[r["name"], r["ok"], [[c["label"], c["ok"]] for c in r["checks"]]] for r in reports]


def _dilation(job, output):
    d = json.loads(output)["dilation"]
    n = job["n"]
    _require(d["n"] == n and d["host_dim"] == 3 * n - 1, "wrong host for Q_%d" % n)
    return d


def _eccentricities(job, output):
    _require(len(output) == len(job["sources"]), "one eccentricity per source")
    return output


def _diameter_radius(job, output):
    diameter, radius = output
    _require(radius <= diameter <= 2 * radius, "radius %d, diameter %d" % (radius, diameter))
    return output


PARSERS = {
    "census": _census,
    "maximal": _maximal,
    "graph": _graph,
    "gf": _gf,
    "verify": _verify,
    "dilation": _dilation,
    "ecc": _eccentricities,
    "diam": _diameter_radius,
}


def content(job, output):
    """Mathematical content of a job's output, after its invariants held."""
    return PARSERS[job["check"]](job, output)


def check(job, rc, output, expected):
    """Return None when the job's result is right, else the reason it is not."""
    if rc != job["rc"]:
        return "exit code %r, want %d" % (rc, job["rc"])
    try:
        got = content(job, output)
    except CheckFailure as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError, StopIteration) as exc:
        return "unparseable output: %s: %s" % (type(exc).__name__, exc)
    want = expected.get(job["id"])
    if want is None:
        return "no recorded value for %r" % job["id"]
    if job["check"] == "ecc":
        want = [want[s] for s in job["sources"]]
        return None if got == want else "eccentricities differ from the recorded table"
    return None if digest(got) == want else "content differs from the recorded digest"


def recorded_value(job, output):
    """The value record.py stores for a job: a digest, or the full table for `ecc`."""
    got = content(job, output)
    return got if job["check"] == "ecc" else digest(got)
