"""Acceptance criteria, one test per criterion (criterion 8 per claim).

Each test prints one PASS/FAIL line and asserts, so `pytest -v` reads as
a checklist.  Two published order-theoretic claims are implemented as
stated and fail against first-principles computation; the corresponding
tests stay red deliberately, with the minimal counterexample in the
message, rather than being weakened until they pass.
"""

import time

from goldens import G_PRINTED, UPDOWN_PRINTED
from test_poset import comparable_pairs
from runcube import embedding as emb
from runcube import enumerators as en
from runcube import graph, inversions, poset, strings


def verdict(tag, ok, detail=""):
    line = "%s %s" % ("PASS" if ok else "FAIL", tag)
    if detail and not ok:
        line += ": " + detail
    print(line)
    assert ok, line


def test_criterion_01_golden_polynomials():
    t0 = time.monotonic()
    updown = en.gf_updown_closed(8)
    ok = all(
        updown[n] == en.UD.poly(terms)
        for n, terms in UPDOWN_PRINTED.items()
    )
    degree = en.gf_degree_closed(10)
    ok = ok and all(
        degree[n] == en.DEGREE_RING.poly(terms)
        for n, terms in G_PRINTED.items()
    )
    elapsed = time.monotonic() - t0
    verdict(
        "criterion 1: printed up-down (n<=8) and degree (n<=10) polynomials, %.2fs" % elapsed,
        ok and elapsed < 1.0,
    )


def test_criterion_02_closed_form_vs_census():
    t0 = time.monotonic()
    rep = en.census_check(n_max=16)
    elapsed = time.monotonic() - t0
    verdict(
        "criterion 2: bivariate and univariate closed forms vs census, n<=16, %.2fs" % elapsed,
        rep.ok and elapsed < 30.0,
        "; ".join(rep.failures),
    )


def test_criterion_03_five_case_assembly():
    t0 = time.monotonic()
    rep = en.case_assembly_check(order=32, max_len=16)
    elapsed = time.monotonic() - t0
    verdict(
        "criterion 3: five-case assembly = closed form to order 30, cases vs census to length 16, %.2fs" % elapsed,
        rep.ok and elapsed < 60.0,
        "; ".join(rep.failures),
    )


def test_criterion_04_specializations():
    rep = en.specialize_checks(order=40)
    rep.merge(en.edge_gf_check(order=40))
    verdict(
        "criterion 4: u:=1, d:=1, u:=0 d:=1, and edge-derivative specializations to order 40",
        rep.ok,
        "; ".join(rep.failures),
    )


def test_criterion_05_degree_k_laws():
    rep = en.degree_k_law_check(order=40)
    ok = rep.ok
    detail = "; ".join(rep.failures)
    # brute-force confirmation through n = 16
    for n in range(2, 17):
        poly = en.degree_polynomial(n)
        for k in (2, 3, 4, 5):
            if poly.coefficient("x", k).constant_term() != en.degree_k_series(k, n)[n]:
                ok = False
                detail = "brute count disagrees at n=%d, k=%d" % (n, k)
    verdict("criterion 5: degree-k vertex counts, laws to n=40, brute to n=16", ok, detail)


def test_criterion_06_vertex_and_edge_counts():
    ok = True
    detail = ""
    egf = [c.constant_term() for c in en.edge_gf().expand(30)]
    for n in range(1, 31):
        if len(graph.rc_masks(n + 2)) != strings.fibonacci(n + 2):
            ok, detail = False, "vertex count breaks at n=%d" % n
            break
        edges = graph.edge_count(n)
        if edges != egf[n]:
            ok, detail = False, "edge GF breaks at n=%d" % n
            break
        if n >= 5 and edges != graph.closed_form_edge_count(n):
            ok, detail = False, "edge closed form breaks at n=%d" % n
            break
    verdict("criterion 6: |V| = f_(n+2) and both edge formulas, n<=30", ok, detail)


def test_criterion_07_recurrence():
    rep = en.recurrence_check(n_max=40)
    verdict(
        "criterion 7: degree-polynomial recurrence for 12<=n<=40",
        rep.ok,
        "; ".join(rep.failures),
    )


def test_criterion_08a_rank_polynomials():
    ok = True
    detail = ""
    x = poset.X_RING.var("x")
    for n in range(1, 26):
        formula = poset.rank_polynomial(n)
        census = poset.X_RING.zero()
        for k in range(n + 3):
            c = strings.count_by_weight(n + 2, k)
            if c:
                census = census + c * x ** k
        if formula != census:
            ok, detail = False, "weight formula breaks at n=%d" % n
            break
    verdict("criterion 8a: rank polynomials match the weight formula, n<=25", ok, detail)


def test_criterion_08b_boolean_intervals():
    # implemented as published and surveyed exhaustively; the claim is
    # false from n = 5 on, so this test is red by design
    ok = True
    detail = ""
    for n in range(1, 11):
        survey = poset.verify_boolean_intervals(n)
        if survey["violations"]:
            v = survey["violations"][0]
            ok = False
            detail = (
                "claim fails first in R_%d: interval [%s, %s] has %d elements, "
                "a Boolean interval of rank %d needs %d (%d of %d intervals violate; "
                "%s is missing because flipping its bits breaks the run condition)"
                % (
                    n,
                    v["bottom"],
                    v["top"],
                    v["actual_size"],
                    v["rank_difference"],
                    v["expected_size"],
                    len(survey["violations"]),
                    survey["pairs_checked"],
                    v["first_missing"],
                )
            )
            break
    verdict("criterion 8b: every interval is Boolean, n<=10", ok, detail)


def test_criterion_08c_mobius_formula():
    # the closed form rides on criterion 8b's claim and fails with it
    ok = True
    detail = ""
    for n in range(1, 9):
        for a, b in comparable_pairs(n):
            got = poset.mobius_recursive(n, a >> 2, b >> 2)
            want = poset.mobius(n, a >> 2, b >> 2)
            if got != want:
                ok = False
                detail = (
                    "first mismatch in R_%d: mu(%s, %s) = %d by recursion, "
                    "closed form gives %d"
                    % (
                        n,
                        poset._to_label(n, a),
                        poset._to_label(n, b),
                        got,
                        want,
                    )
                )
                break
        if not ok:
            break
    verdict("criterion 8c: closed-form Mobius matches the recursion, n<=8", ok, detail)


def test_criterion_08d_maximal_tables():
    ok = True
    detail = ""
    for n, table in sorted(poset.MAXIMAL_TABLES.items()):
        got = [label + "00" for label in graph.maximal_vertices(n)]
        if got != sorted(table):
            ok, detail = False, "table differs at n=%d" % n
            break
    verdict("criterion 8d: maximal vertex tables verbatim, n<=6", ok, detail)


def test_criterion_09_inversions():
    rep = inversions.recurrence_check(n_max=25)
    rep.merge(inversions.functional_identity_check(order=25))
    rep.merge(inversions.q1_specialization_check(order=25))
    verdict(
        "criterion 9: printed Q tables, recurrence and functional identity to 25, q:=1 collapse",
        rep.ok,
        "; ".join(rep.failures),
    )


def test_criterion_10_embedding():
    rep = emb.encoding_check(n_max=4)
    rep.merge(emb.cube_gf_check(order=25, brute_max=10))
    rep.merge(emb.host_check(n_max=8))
    rep.merge(emb.dilation_check(n_max=4))
    verdict(
        "criterion 10: encoding table, cube GF vs oracle to n=10, hosts to n=8, dilations to n=4",
        rep.ok,
        "; ".join(rep.failures),
    )


def test_criterion_11_degree_k_polynomial_probe():
    ok = True
    details = []
    for k in range(5):
        probe = en.conjecture_pk_probe(k, order=40)
        details.append("k=%d observed degree %d (bound %d)" % (k, probe.observed_degree, probe.conjectured_bound))
        if not probe.residual_zero or probe.observed_degree > probe.conjectured_bound:
            ok = False
    verdict(
        "criterion 11: (1-t^2)^(k+1) products vanish beyond the bound at order 40; " + ", ".join(details),
        ok,
    )
