"""Checks past tier-1's sizes, each with the bound CI holds it to.

    PYTHONPATH=src python -m pytest -q --durations=0 tests/reach.py

The file name does not match test_*.py, so a plain pytest run does not
collect it.  The oracles are tier-1's own (test_graph, test_cli).  Memory
bounds read the peak RSS of a fresh interpreter from /proc/self/status
(VmHWM): a child's ru_maxrss starts from its parent's peak, which under
pytest is large.
"""
import json
import subprocess
import sys
import time
from collections import Counter

import numpy as np

from runcube import enumerators, graph, strings
from test_cli import gf_document, run
from test_graph import oracle_distances

# cli.main(argv), then this interpreter's peak RSS in kB on stderr
CHILD = """import sys
from runcube import cli
code = cli.main(sys.argv[1:])
sys.stdout.flush()
with open("/proc/self/status") as f:
    sys.stderr.write(f.read().split("VmHWM:")[1].split()[0])
sys.exit(code)
"""


def run_child(argv):
    """cli.main(argv) in a fresh interpreter: exit code, stdout, peak RSS in MB."""
    done = subprocess.run([sys.executable, "-c", CHILD, *argv], capture_output=True, text=True)
    return done.returncode, done.stdout, int(done.stderr.split()[-1]) / 1024


def coefficient_sums(out):
    """{k: the coefficients of t^k summed} from gf's JSON."""
    return {k: sum(int(c) for _, c in terms) for k, terms in json.loads(out)["coefficients"]}


def test_poset_surveys_fail_only_the_two_false_claims(capsys):
    # R_1 .. R_18, beyond tier-1's n <= 12 (R_20 is over REACH_MAX_BYTES)
    code, out, _ = run(["verify", "poset", "--max-n", "18", "--format", "json"], capsys)
    failed = sorted(r["name"] for r in json.loads(out)["reports"] if not r["ok"])
    assert (code, failed) == (1, ["Boolean-interval claim", "Mobius closed form"])


def test_maximal_vertices_match_the_flip_scan():
    # the label construction kept to up-degree 0, on R_25 .. R_28, beyond
    # tier-1's n <= 24
    for n in range(25, 29):
        assert graph.maximal_vertices(n) == graph._maximal_by_flip_scan(n), "R_%d" % n


def test_build_csr_matches_census_closed_form_and_is_symmetric():
    # R_25 .. R_27, beyond tier-1's n <= 24 and its lexsort oracle's n <= 20;
    # the transfer automaton flips no bit, and the degrees, which come from
    # the label construction, must equal the plain flip scan's (tier-1: n <= 20)
    for n in range(25, 28):
        g = graph.build(n)
        ups, downs = graph._flip_scan(g.labels, n)
        assert np.array_equal(g.up_degrees, ups), "R_%d up-degrees" % n
        assert np.array_equal(g.down_degrees, downs), "R_%d down-degrees" % n
        census = Counter(zip(g.up_degrees.tolist(), g.down_degrees.tolist()))
        assert dict(census) == graph.transfer_census(n).counts, "R_%d" % n
        assert g.edge_count == graph.closed_form_edge_count(n), "R_%d" % n
        rows = np.repeat(np.arange(g.vertex_count), np.diff(g.indptr))
        assert (np.diff(g.indices)[rows[1:] == rows[:-1]] > 0).all(), "R_%d row order" % n
        # the arcs sorted by (w, v), read backwards, must be the arcs
        # themselves, which ascending rows list sorted by (v, w)
        order = np.lexsort((rows, g.indices))
        assert np.array_equal(g.indices[order], rows), "R_%d reverse arcs" % n
        assert np.array_equal(rows[order], g.indices), "R_%d reverse arcs" % n


def test_graph_summary_at_the_vertex_cap_stays_under_200_mb():
    # n = 29, the largest n under the default vertex cap; under 200 MB only
    # while the summary counts edges from the label construction alone and
    # builds no adjacency (about 336 MB when it did)
    code, out, peak_mb = run_child(["graph", "--n", "29"])
    edges = graph.closed_form_edge_count(29)
    assert (code, out) == (0, "n: 29\nvertices: %d\nedges: %d\n" % (strings.fibonacci(31), edges))
    assert peak_mb < 200


def test_census_past_tier1_within_20_s():
    # the flip-scan census of R_30 merges three 1M-label chunks
    assert graph.degree_census(30).counts == graph.transfer_census(30).counts
    # the RUN_ARCS interpreter on R_200 and R_300, beyond tier-1's n <= 150,
    # against invariants that do not depend on the table
    spent = 0.0
    for n in (200, 300):
        start = time.perf_counter()
        census = graph.transfer_census(n, cap=strings.fibonacci(n + 2))
        spent += time.perf_counter() - start
        edges = graph.closed_form_edge_count(n)
        assert census.vertex_total() == strings.fibonacci(n + 2), "R_%d" % n
        assert sum(a * c for (a, _), c in census.counts.items()) == edges, "R_%d ups" % n
        assert sum(b * c for (_, b), c in census.counts.items()) == edges, "R_%d downs" % n
    assert spent <= 20


def test_case_assembly_past_tier1_within_10_s():
    # order 80, beyond tier-1's order 32, against every string through length 22
    start = time.perf_counter()
    rep = enumerators.case_assembly_check(order=80, max_len=22)
    seconds = time.perf_counter() - start
    assert rep.ok, rep.failures
    assert seconds <= 10


def test_degree_k_probe_past_tier1():
    # k <= 16 at order 200, beyond tier-1's k <= 8 at order 120
    rep = enumerators.pk_probe_check(k_max=16, order=200)
    assert rep.ok, rep.failures
    # each check is labelled "k=<k> ..." with the detail "observed degree <d>"
    degrees = {
        int(label.split()[0].removeprefix("k=")): int(detail.removeprefix("observed degree "))
        for label, _, detail in rep.checks
    }
    assert [degrees.get(k) for k in range(1, 17)] == [(11 * k + 4) // 2 for k in range(1, 17)]


def test_distances_past_tier1():
    # beyond tier-1's R_14 distances and n <= 10 diameters
    for n in (22, 24):
        g = graph.build(n)
        for source in (i * (g.vertex_count - 1) // 7 for i in range(8)):
            got = graph.bfs_distances(g, source).tolist()
            assert got == oracle_distances(g, source), "R_%d from %d" % (n, source)
    for n in range(14, 19):
        g = graph.build(n)
        assert (graph.diameter(g), graph.radius(g)) == (n - 2, (n + 1) // 2), "R_%d" % n


def test_streamed_gf_at_the_benchmark_orders(capsys):
    # the orders the series benchmark runs, beyond tier-1's order 60
    orders = {"updown": 100, "degree": 150, "up": 150, "down": 150,
              "cube": 150, "rank": 150, "maximal": 400, "edge": 400}
    for kind, order in orders.items():
        for fmt in ("json", "text"):
            code, out, _ = run(["gf", "--kind", kind, "--order", str(order), "--format", fmt], capsys)
            same = out == gf_document(kind, order, fmt)
            assert code == 0 and same, "%s order %d %s" % (kind, order, fmt)


def test_updown_series_at_its_order_cap_stays_under_150_mb():
    # order 250, the largest the packed-layout cap allows; t^k sums to
    # f_(k+2), the vertex count of R_k, which does not depend on the GF
    code, out, peak_mb = run_child(["gf", "--kind", "updown", "--order", "250", "--format", "json"])
    want = [0] + [strings.fibonacci(k + 2) for k in range(1, 251)]
    assert (code, coefficient_sums(out)) == (0, dict(enumerate(want)))
    assert peak_mb < 150


def test_edge_gf_at_order_5000(capsys):
    # the product of two table-built factors that share (1 - t - t^2), against
    # the closed-form edge count from n = 5, which does not depend on the GF,
    # and the census below; R_0 is one vertex and no edge
    code, out, _ = run(["gf", "--kind", "edge", "--order", "5000", "--format", "json"], capsys)
    want = [0] + [graph.edge_count(n) for n in range(1, 5)]
    want += [graph.closed_form_edge_count(n) for n in range(5, 5001)]
    assert (code, coefficient_sums(out)) == (0, dict(enumerate(want)))
