from collections import Counter
from functools import partial

import numpy as np
import pytest

from goldens import G_PRINTED, R4_DEGREE, R4_DOWN, R4_UP, UPDOWN_PRINTED
from runcube import embedding, enumerators as en, graph, inversions, poset, strings
from runcube.errors import ConfigError, DomainError, ResourceLimitError
from runcube.polyseries import RationalGF


def test_printed_updown_polynomials():
    series = en.gf_updown_closed(8)
    for n, terms in UPDOWN_PRINTED.items():
        assert series[n] == en.UD.poly(terms)


def test_printed_degree_polynomials():
    series = en.gf_degree_closed(10)
    for n, terms in G_PRINTED.items():
        assert series[n] == en.DEGREE_RING.poly(terms)


def test_r4_polynomials():
    down = en.down_gf().expand(4)[4]
    up = en.up_gf().expand(4)[4]
    degree = en.gf_degree_closed(4)[4]
    assert down == en.UD.poly(R4_DOWN)
    assert up == en.UD.poly(R4_UP)
    assert degree == en.DEGREE_RING.poly(R4_DEGREE)


def test_degree_polynomial_counts_vertices_and_edge_ends():
    from runcube import graph, strings

    series = en.gf_degree_closed(30)
    for n in range(1, 31):
        g = series[n]
        assert g.evaluate({"x": 1}) == strings.fibonacci(n + 2)
        edges = graph.edge_count(n) if n <= 12 else graph.closed_form_edge_count(n)
        assert g.partial_derivative("x").evaluate({"x": 1}) == 2 * edges


def test_up_gf_bare_t3_variant_fails_at_t4():
    # keeping the numerator's bare +t^3 makes the expansion leave the
    # census at the fourth coefficient; the (u-2)t^3 reading never does
    good = en.up_gf().expand(12)
    bad = en.up_gf_printed_variant().expand(12)
    assert [k for k in range(13) if good[k] != bad[k]][0] == 4
    assert bad[4] != en.UD.poly(R4_UP)
    assert good[4] == en.UD.poly(R4_UP)
    census = en.updown_polynomial(4).evaluate_at("d", 1)
    assert good[4] == census


def test_census_polynomials_match_closed_forms():
    rep = en.census_check(n_max=10)
    assert rep.ok, "\n".join(rep.failures)


def test_five_case_assembly():
    rep = en.case_assembly_check(order=20, max_len=12)
    assert rep.ok, "\n".join(rep.failures)


def test_case_census_covers_everything():
    # the census reads its flips off a flip scan of R_(m-2); the per-word
    # string oracle checks it at every length, the graphless m = 1, 2 included
    for m in range(1, 15):
        tags = en.case_census_polynomials(m)
        total = tags["A"] + tags["B"] + tags["C"] + tags["D"] + tags["E"]
        whole = en.UD.zero()
        for word in strings.enumerate_rc(m):
            up, down = strings.flip_degrees(word)
            whole = whole + en.UD.monomial(1, u=up, d=down)
        assert total == whole
        assert tags["E"] == tags["E/zero"] + tags["E/single"] + tags["E/block"]


def test_word_monomial_examples():
    ring = en.WORD_RING
    def monomial(word):
        return ring.poly({en._word_exponents(word): 1})

    assert monomial("aabbaa") == ring.monomial(1, x=4, y=2, alpha=3, beta=2)
    assert monomial("aababbaaa") == ring.monomial(1, x=6, y=3, alpha=5, beta=3)
    assert monomial("a") == ring.monomial(1, x=1)
    assert monomial("") == ring.one()


def test_word_sum_identities():
    rep = en.word_sum_identity_check(n_max=8)
    assert rep.ok, "\n".join(rep.failures)


def test_word_sums_fail_against_a_wrong_geometric(monkeypatch):
    # the graded sums are compared with 1/(1 - step t) from RationalGF.geometric
    real = RationalGF.geometric
    monkeypatch.setattr(
        RationalGF, "geometric", lambda self: real(self) + RationalGF(self.ring, {3: 1})
    )
    assert en.word_sum_identity_check(n_max=4).failures == [
        "FAIL graded sum over %s w %s equals geometric form" % pair
        for pair in (("a", "a"), ("b", "a"), ("a", "b"), ("b", "b"))
    ]


def test_specializations():
    rep = en.specialize_checks(order=24)
    assert rep.ok, "\n".join(rep.failures)


@pytest.mark.parametrize("order", [1, 6, 12])
def test_specializations_pass_below_the_printed_prefix(order):
    # MAXIMAL_PREFIX has 13 terms; a shorter order must not fail on it
    rep = en.specialize_checks(order=order)
    assert rep.ok, "\n".join(rep.failures)


def test_edge_gf():
    rep = en.edge_gf_check(order=24)
    assert rep.ok, "\n".join(rep.failures)


def test_edge_checks_name_the_first_wrong_power(monkeypatch):
    # every edge check reads the edge GF; a wrong t^9 term fails each at t^9
    monkeypatch.setattr(en, "edge_gf", _with_term(en.edge_gf, 9, 1))
    assert en.edge_gf_check(order=16).failures == [
        "FAIL d-derivative of down GF at d=1: first difference at t^9",
        "FAIL u-derivative of up GF at u=1: first difference at t^9",
        "FAIL closed-form edge count through n=16: first difference at t^9",
        "FAIL census edge counts through n=12: first difference at t^9",
    ]


def test_degree_k_laws():
    rep = en.degree_k_law_check(order=30)
    assert rep.ok, "\n".join(rep.failures)


@pytest.mark.parametrize("order", [3, 10, 13])
def test_degree_k_laws_pass_below_the_printed_prefixes(order):
    # the degree-4 prefix runs through n = 14; a shorter order must not fail on it
    rep = en.degree_k_law_check(order=order)
    assert rep.ok, "\n".join(rep.failures)


def test_degree_k_series_matches_census():
    for n in range(2, 13):
        poly = en.degree_polynomial(n)
        for k in (2, 3, 4, 5):
            assert poly.coefficient("x", k).constant_term() == en.degree_k_series(
                k, n
            )[n]


def test_pk_probe_shapes():
    p1 = en.conjecture_pk_probe(1, order=40)
    assert p1.residual_zero
    assert p1.observed_degree == 7
    assert p1.coefficients[: p1.observed_degree + 1] == [0, 2, 2, -3, -4, 0, 2, 1]
    p2 = en.conjecture_pk_probe(2, order=40)
    assert p2.residual_zero
    assert p2.observed_degree == 13
    assert p2.coefficients[: p2.observed_degree + 1] == [
        0, 0, 1, 3, 2, -4, -8, -3, 4, 5, 3, 0, -2, -1,
    ]
    assert en.conjecture_pk_probe(3, order=40).observed_degree == 18
    assert en.conjecture_pk_probe(4, order=40).observed_degree == 24


def test_pk_probe_degree_is_eleven_k_plus_four_over_two():
    # (1 - t^2)^(k+1) times the degree-k series is a polynomial of degree
    # (11k + 4) // 2, well inside the conjectured bound
    assert en.conjecture_pk_probe(0, 120).observed_degree == -1
    for k in range(1, 9):
        probe = en.conjecture_pk_probe(k, 120)
        assert probe.residual_zero
        assert probe.observed_degree == (11 * k + 4) // 2, k


def test_recurrence():
    rep = en.recurrence_check(n_max=30)
    assert rep.ok, "\n".join(rep.failures)
    with pytest.raises(DomainError):
        en.recurrence_check(n_max=5)


SIZED = [
    graph.build,
    graph.transfer_census,
    graph.degree_census,
    graph.maximal_vertices,
    graph.count_induced_cubes,
    graph.vertex_labels,
    inversions.q_polynomial,
    poset.rank_polynomial,
    embedding.dilation,
    en.updown_polynomial,
    strings.enumerate_rc,
]
NOT_SIZES = [2.5, "5", None, True]


@pytest.mark.parametrize(
    "call",
    [
        lambda: en.assemble_case_gfs(2),
        lambda: en.degree_k_series(-1, 10),
        lambda: inversions.q_polynomial(-1),
        lambda: poset.rank_polynomial(-1),
        lambda: embedding.dilation(0),
        lambda: embedding.dilation(-3),
        *[partial(f, bad) for f in SIZED for bad in NOT_SIZES],
    ],
    ids=[
        "assembly",
        "degree_k",
        "q_polynomial",
        "rank_polynomial(-1)",
        "dilation(0)",
        "dilation(-3)",
        *["%s(%r)" % (f.__name__, bad) for f in SIZED for bad in NOT_SIZES],
    ],
)
def test_bad_arguments_are_domain_errors(call):
    with pytest.raises(DomainError):
        call()


CAPPED = {
    "build": lambda cap: graph.build(5, cap=cap).edges(),
    "transfer_census": lambda cap: graph.transfer_census(5, cap=cap),
    "q_polynomial": lambda cap: inversions.q_polynomial(5, cap=cap),
    "enumerate_rc": lambda cap: strings.enumerate_rc(5, cap=cap),
    "leq": lambda cap: poset.leq(5, "00000", "10000", cap=cap),
}


@pytest.mark.parametrize("call", CAPPED.values(), ids=CAPPED.keys())
@pytest.mark.parametrize("cap", ["x", 2.5, True, -1], ids=repr)
def test_bad_caps_are_config_errors(call, cap):
    # refused as the RUNCUBE_*_CAP variables are, not truncated or raised as ValueError
    with pytest.raises(ConfigError):
        call(cap)


@pytest.mark.parametrize("call", CAPPED.values(), ids=CAPPED.keys())
def test_caps_may_be_numpy_integers(call):
    assert call(np.int64(1000)) == call(1000)


@pytest.mark.parametrize(
    "check, want",
    [
        (lambda: [en.pk_probe_check(k_max=6, order=40)], 1),
        (lambda: [en.degree_k_law_check(order=30)], 1),
        (lambda: en.suite(max_n=8, order=16), 1),
    ],
    ids=["pk_probe", "degree_k_law", "suite"],
)
def test_each_check_expands_the_degree_gf_once(monkeypatch, check, want):
    calls = []
    expand = en.gf_degree_closed

    def counted(order):
        calls.append(order)
        return expand(order)

    monkeypatch.setattr(en, "gf_degree_closed", counted)
    assert all(r.ok for r in check())
    assert len(calls) == want


def test_suite_expands_each_closed_form_once(monkeypatch):
    # each expansion is counted under the constructor that made its GF; the
    # made GFs are kept, so no other GF can reuse one of their ids
    made = {}

    def tagged(name, make):
        def constructor():
            gf = make()
            made[id(gf)] = (name, gf)
            return gf

        return constructor

    names = ("updown_gf", "degree_gf", "up_gf", "down_gf")
    for name in names:
        monkeypatch.setattr(en, name, tagged(name, getattr(en, name)))
    counts = Counter()
    expand = RationalGF.expand

    def counted(self, order):
        counts[made.get(id(self), ("other",))[0]] += 1
        return expand(self, order)

    monkeypatch.setattr(RationalGF, "expand", counted)
    assert all(r.ok for r in en.suite(max_n=12, order=40))
    assert {name: counts[name] for name in names} == dict.fromkeys(names, 1)
    # a second run makes the same calls: nothing is kept between runs
    first = dict(counts)
    counts.clear()
    en.suite(max_n=12, order=40)
    assert counts == first


def test_suite_is_refused_where_its_checks_are():
    # the run's one up-down expansion, at order 100000, is over the packed
    # layout cap; census_check must not be refused for it, so the run stops
    # in the assembly with the assembly's own message, as each check alone does
    with pytest.raises(ResourceLimitError) as alone:
        en.case_assembly_check(order=100000, max_len=6)
    with pytest.raises(ResourceLimitError) as run:
        en.suite(max_n=4, order=100000)
    assert str(run.value) == str(alone.value)


def test_combined_e_form_matches_parts():
    # order 24; the brute census by case runs through length 18, past the
    # acceptance test's 16 (length 24 alone takes seconds)
    assembly = en.assemble_case_gfs(24)
    combined = en.combined_e_gf(24)
    assert len(combined) == 25
    assert assembly.cases["E"] == combined
    for m in range(1, 19):
        census = en.case_census_polynomials(m)
        for tag in "ABCDE":
            assert assembly.cases[tag][m] == census[tag], (tag, m)
        for sub in ("zero", "single", "block"):
            assert assembly.e_parts[sub][m] == census["E/" + sub], (sub, m)
    total = [sum(cs) for cs in zip(*(assembly.cases[t] for t in "ABCDE"))]
    assert assembly.gfx == total
    assert assembly.gf == en.gf_updown_closed(22)


def test_assembly_never_reads_the_printed_closed_form(monkeypatch):
    def refuse():
        raise AssertionError("the assembly read the printed GF")

    want = en.assemble_case_gfs(12)
    monkeypatch.setattr(en, "updown_gf", refuse)
    got = en.assemble_case_gfs(12)
    assert got.gf == want.gf
    assert en.combined_e_gf(12) == want.cases["E"]


def test_assembly_multiplies_no_series(monkeypatch):
    from runcube import polyseries
    from runcube.polyseries import TruncatedSeries

    def refuse(self, other):
        raise AssertionError("the assembly multiplied truncated series")

    divisions = []
    divide = polyseries._divide

    def counted(*args):
        divisions.append(args[-1])
        return divide(*args)

    monkeypatch.setattr(TruncatedSeries, "__mul__", refuse)
    monkeypatch.setattr(polyseries, "_divide", counted)
    en.assemble_case_gfs(12)
    # each of the five cases, the three E parts and GFX is expanded once
    assert divisions == [12] * 9
    assert en.case_assembly_check(order=12, max_len=8).ok


def test_suite_reports_expected_names():
    reports = en.suite(max_n=8, order=16)
    names = [r.name for r in reports]
    assert "closed forms vs census" in names
    assert "five-case assembly" in names
    assert all(r.ok for r in reports)


def _with_term(make, k, c):
    """A generating function maker whose expansion differs from make's at t^k only."""
    gf = make()
    wrong = gf + RationalGF(gf.ring, {k: c})
    return lambda: wrong


def _census_with_term(tag, m):
    """case_census_polynomials with d added to `tag`'s census of length m only."""
    real = en.case_census_polynomials

    def census(length):
        tags = real(length)
        if length == m:
            tags[tag] = tags[tag] + en.UD.var("d")
        return tags

    return census


@pytest.mark.parametrize(
    "check, name, mutant, line",
    [
        (
            lambda: en.case_assembly_check(order=12, max_len=8),
            "updown_gf",
            _with_term(en.updown_gf, 9, en.UD.var("u")),
            "FAIL assembled GF equals closed form through order 10: first difference at t^9",
        ),
        (
            lambda: en.specialize_checks(order=16),
            "down_gf",
            _with_term(en.down_gf, 6, 1),
            "FAIL u := 1 gives the down-degree GF: first difference at t^6",
        ),
        (
            lambda: en.specialize_checks(order=16),
            "up_gf",
            en.up_gf_printed_variant,
            "FAIL d := 1 gives the up-degree GF: first difference at t^4",
        ),
        (
            lambda: en.specialize_checks(order=16),
            "degree_gf",
            _with_term(en.degree_gf, 11, en.DEGREE_RING.var("x")),
            "FAIL u, d := x gives the degree GF: first difference at t^11",
        ),
        (
            lambda: en.specialize_checks(order=16),
            "maximal_gf",
            _with_term(en.maximal_gf, 15, -1),
            "FAIL u := 0, d := 1 gives the maximal-count GF: first difference at t^15",
        ),
        (
            lambda: en.edge_gf_check(order=16),
            "edge_derivative_gf",
            _with_term(en.edge_derivative_gf, 7, en.UD.var("d")),
            "FAIL printed derivative form matches d/dd of down GF: first difference at t^7",
        ),
        (
            lambda: en.case_assembly_check(order=12, max_len=8),
            "case_census_polynomials",
            _census_with_term("C", 6),
            "FAIL case C series = census through length 8: first difference at t^6",
        ),
        (
            lambda: en.case_assembly_check(order=12, max_len=8),
            "case_census_polynomials",
            _census_with_term("E/single", 5),
            "FAIL case E/single series = census through length 8: first difference at t^5",
        ),
        (
            lambda: en.edge_gf_check(order=16),
            "graph.closed_form_edge_count",
            lambda n, real=graph.closed_form_edge_count: real(n) + (n == 9),
            "FAIL closed-form edge count through n=16: first difference at t^9",
        ),
        (
            lambda: en.degree_k_law_check(order=30),
            "degree_gf",
            _with_term(en.degree_gf, 20, en.DEGREE_RING.var("x") ** 2),
            "FAIL degree-2 law through n=30: first difference at t^20",
        ),
        (
            lambda: en.recurrence_check(n_max=30),
            "degree_gf",
            _with_term(en.degree_gf, 20, en.DEGREE_RING.var("x")),
            "FAIL recurrence for 12 <= n <= 30: first difference at t^20",
        ),
        (
            # d/du of u^2 d at u = 1 is 2d, which no edge count equals
            lambda: en.edge_gf_check(order=16),
            "up_gf",
            _with_term(en.up_gf, 8, en.UD.var("u") ** 2 * en.UD.var("d")),
            "FAIL u-derivative of up GF at u=1: first difference at t^8",
        ),
        (
            # one more vertex of degrees (0, 1) in R_7 is one more edge
            lambda: en.edge_gf_check(order=16),
            "graph.degree_census",
            lambda n, real=graph.degree_census: graph.DegreeCensus(
                n, dict(Counter(real(n).counts) + Counter({(0, 1): int(n == 7)}))
            ),
            "FAIL census edge counts through n=12: first difference at t^7",
        ),
        (
            lambda: en.specialize_checks(order=16),
            "MAXIMAL_PREFIX",
            en.MAXIMAL_PREFIX[:10] + [41] + en.MAXIMAL_PREFIX[11:],
            "FAIL maximal-count prefix: first difference at t^11",
        ),
        (
            lambda: en.degree_k_law_check(order=30),
            "degree_gf",
            _with_term(en.degree_gf, 9, en.DEGREE_RING.var("x") ** 4),
            "FAIL degree-4 prefix from n=4: first difference at t^9",
        ),
    ],
    ids=[
        "assembly",
        "u=1",
        "d=1",
        "u,d=x",
        "u=0,d=1",
        "edge_derivative",
        "case_C",
        "case_E_single",
        "edge_closed_form",
        "degree_2_law",
        "recurrence",
        "u_derivative_stray_d",
        "census_edges",
        "maximal_prefix",
        "degree_4_prefix",
    ],
)
def test_series_checks_name_the_first_wrong_power(monkeypatch, check, name, mutant, line):
    # a dotted name patches a module enumerators imports, e.g. graph
    owner, _, attr = name.rpartition(".")
    monkeypatch.setattr(getattr(en, owner) if owner else en, attr, mutant)
    assert check().failures == [line]


def test_census_check_refuses_before_the_first_census(monkeypatch):
    calls = []
    monkeypatch.setattr(graph, "degree_census", lambda n, cap=None: calls.append(n))
    # R_12 has 377 vertices; R_1 .. R_9 fit a cap of 100
    with pytest.raises(ResourceLimitError, match="R_12 has 377 vertices"):
        en.census_check(n_max=12, cap=100)
    assert calls == []
