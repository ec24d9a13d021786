"""Degree generating functions: closed forms, assembly, and verification.

This module carries the full catalog of closed-form generating functions
for the degree statistics of Fibonacci-run graphs:

  * the bivariate up-down enumerator GF(u,d;t) = N/D,
  * its univariate specializations (down, up, degree, maximal counts),
  * the edge-count GF,

together with the machinery to re-derive GF(u,d;t) from the five-case
decomposition of run-constrained strings and to verify everything against
brute-force censuses.  All checks return Report objects; nothing here is
trusted without an independent oracle.

One transcription note, crumbled into the catalog below: the printed
numerator of the up-degree GF carries a bare +t^3 term inside the
parentheses where the coefficient must be (u-2); the bare form disagrees
with the brute-force census (and with the up polynomial of R_4) starting
at t^4, while the (u-2) reading makes the GF identical to GF(u,d;t) at
d := 1.  gf_up_closed uses the corrected coefficient and the variant is
kept available for the regression test that documents the discrepancy.
"""

from collections import Counter
from dataclasses import dataclass
from itertools import product

from . import graph, strings
from .errors import DomainError
from .polyseries import RationalGF, Ring, over_t2
from .report import Report

UD = Ring(("u", "d"))
DEGREE_RING = Ring(("x",))
SCALAR = Ring(())
WORD_RING = Ring(("alpha", "beta", "x", "y"))

MAXIMAL_PREFIX = [1, 2, 2, 3, 5, 6, 10, 13, 20, 27, 40, 56, 80]


def updown_gf():
    """Closed form of the up-down degree enumerator GF, N(u,d)/D(u,d)."""
    u = UD.var("u")
    d = UD.var("d")
    num = {
        1: d + u,
        2: -d * (u - 2),
        3: d * d - d - 2 * u,
        4: -(d - 2) * d * (u - 2),
        5: -(d - 1) * (u - d + d * u),
        6: -d * (d + u - 2),
        7: d * (1 - 2 * d + 2 * d * d + d * u - 2 * d * d * u),
        8: -2 * (d - 1) * d * d * (u - 1),
        9: -(d - 1) * d * d * (d + 1) * (u - 1),
        10: -((d - 1) ** 2) * d * d * (u - 1),
        11: -((d - 1) ** 2) * d * d * (u - 1),
    }
    den = {
        0: 1,
        1: -u,
        2: -2,
        3: 2 * u - d,
        4: 1,
        5: 2 * d - d * d - u,
        7: d * (d * u - 1),
        9: 2 * (d - 1) * d * d * (u - 1),
        11: (d - 1) ** 2 * d * d * (u - 1),
    }
    return RationalGF(UD, num, den)


def down_gf():
    """Down-degree enumerator GF (unbalanced printed parenthesis closed at end)."""
    d = UD.var("d")
    num = {1: 1 + d, 2: d, 3: d * d - 1, 4: d * (d - 1), 5: d * (d - 1)}
    den = {0: 1, 1: -1, 2: -1, 3: -(d - 1), 5: -d * (d - 1)}
    return RationalGF(UD, num, den)


def up_gf():
    """Up-degree enumerator GF, with the t^3 numerator coefficient corrected.

    The printed numerator has +t^3 where only +(u-2)t^3 reproduces the
    up-degree polynomials (first divergence at the t^4 coefficient, i.e.
    R_4).  See up_gf_printed_variant for the uncorrected transcription.
    """
    u = UD.var("u")
    num = {1: 1 + u, 2: -(u - 2), 3: -2 * u, 4: u - 2, 6: -(u - 1), 7: -(u - 1)}
    den = {0: 1, 1: -u, 2: -2, 3: 2 * u - 1, 4: 1, 5: -(u - 1), 7: u - 1}
    return RationalGF(UD, num, den)


def up_gf_printed_variant():
    """The verbatim up-degree numerator with the bare +t^3 term.

    Expanding this variant yields 6 + u + 2u^2 + u^4 at t^4 instead of the
    census value 3 + 2u + 2u^2 + u^4; it exists so a test can pin down the
    transcription decision.
    """
    u = UD.var("u")
    num = {1: 1 + u, 2: -(u - 2), 3: -2 * u, 4: 1, 6: -(u - 1), 7: -(u - 1)}
    den = {0: 1, 1: -u, 2: -2, 3: 2 * u - 1, 4: 1, 5: -(u - 1), 7: u - 1}
    return RationalGF(UD, num, den)


def degree_gf():
    """Closed form N_x/D_x of the degree enumerator GF sum g_n(x) t^n."""
    x = DEGREE_RING.var("x")
    inner = {
        0: 2 * x,
        1: -(x - 2) * x,
        2: (x - 3) * x,
        3: -((x - 2) ** 2) * x,
        4: -x * x * (x - 1),
        5: -2 * (x - 1) * x,
        6: -(x - 1) * (2 * x * x - x + 1) * x,
        7: -2 * x * (x - 1) ** 2 * x,
        8: -x * (x - 1) ** 2 * (x + 1) * x,
        9: -x * (x - 1) ** 3 * x,
        10: -x * (x - 1) ** 3 * x,
    }
    num = {k + 1: c for k, c in inner.items()}
    den = {
        0: 1,
        1: -x,
        2: -2,
        3: x,
        4: 1,
        5: -x * (x - 1),
        7: x * (x - 1) * (x + 1),
        9: 2 * x * x * (x - 1) ** 2,
        11: x * x * (x - 1) ** 3,
    }
    return RationalGF(DEGREE_RING, num, den)


def maximal_gf():
    """GF of the maximal-element counts M_n."""
    num = {1: 1, 2: 2, 4: -2, 6: 1, 7: 1}
    den = {0: 1, 2: -2, 3: -1, 4: 1, 5: 1, 7: -1}
    return RationalGF(SCALAR, num, den)


def edge_gf():
    """GF of the edge counts, t(1-t^4)/(1-t-t^2)^2."""
    fib = {0: 1, 1: -1, 2: -1}
    return RationalGF(SCALAR, {1: 1, 5: -1}, fib) * RationalGF(SCALAR, {0: 1}, fib)


def edge_derivative_gf():
    """d/dd of the down GF as printed: t(1-t^2)(1+(2d-1)t^2) over D_down^2."""
    d = UD.var("d")
    dden = {0: 1, 1: -1, 2: -1, 3: -(d - 1), 5: -d * (d - 1)}
    return RationalGF(UD, {1: 1, 3: -1}, dden) * RationalGF(UD, {0: 1, 2: 2 * d - 1}, dden)


def gf_updown_closed(order):
    return updown_gf().expand(order)


def gf_degree_closed(order):
    return degree_gf().expand(order)


def census_polynomial(census):
    """Turn a DegreeCensus into its polynomial, sum of c * u^a d^b."""
    return UD.poly({(a, b): c for (a, b), c in census.counts.items()})


def updown_polynomial(n, cap=None):
    """Up-down degree enumerator of R_n from the streamed census."""
    return census_polynomial(graph.degree_census(n, cap=cap))


def degree_polynomial(n, cap=None):
    """Degree enumerator g_n(x), the u,d := x collapse of the census."""
    x = DEGREE_RING.var("x")
    return updown_polynomial(n, cap=cap).map_onto(
        DEGREE_RING, {"u": x, "d": x}
    )


def census_check(n_max=16, cap=None):
    """Closed forms vs. streamed censuses for 1 <= n <= n_max."""
    # the largest census is refused before any other runs
    if n_max >= 1:
        graph._vertex_total(n_max, cap, streaming=True)
    report = Report("closed forms vs census")
    closed = gf_updown_closed(n_max)
    closed_degree = gf_degree_closed(n_max)
    x = DEGREE_RING.var("x")
    for n in range(1, n_max + 1):
        poly = updown_polynomial(n, cap=cap)
        report.expect_equal("up-down GF coefficient t^%d" % n, closed[n], poly)
        report.expect_equal(
            "degree GF coefficient t^%d" % n,
            closed_degree[n],
            poly.map_onto(DEGREE_RING, {"u": x, "d": x}),
        )
    return report


# ---------------------------------------------------------------------------
# five-case assembly


def _case_factors():
    """Shared rational pieces: G, 1/(1-ut), X, Y, and the block geometric."""
    u = UD.var("u")
    d = UD.var("d")
    tp = lambda terms: RationalGF(UD, terms)
    inv1 = tp({1: u}).geometric()          # 1/(1-ut)
    geom_t2 = tp({2: 1}).geometric()       # 1/(1-t^2)
    G = tp({3: d}) + tp({5: d * d}) * geom_t2
    X = G
    Y = G * G * G.geometric()
    alpha = tp({1: u}) * inv1
    beta = tp({1: 1}) * inv1
    return u, tp, inv1, G, X, Y, alpha, beta


@dataclass
class CaseAssembly:
    """The five case series, the E subclass split, and their combination.

    cases, e_parts and gfx hold coefficient lists through t^order; gf is the
    coefficient list of (GFX - t - t^2)/t^2, through t^(order - 2).
    """

    order: int
    cases: dict
    e_parts: dict
    gfx: list
    gf: list


def assemble_case_gfs(order):
    """Re-run the five-case construction of the up-down GF.

    Strings are split by the block structure around their internal zero
    runs: cases A-D have at least two blocks of S-letters and are graded by
    whether the outer blocks are single letters; case E has at most one
    block.  Pre-run, internal-run and post-run contributions are the
    printed rational factors; the u^{-1} carried by the A/B post-run is
    absorbed by rewriting u^{-1} alpha = beta, which keeps every factor a
    genuine power series.  Every case is built as an exact rational
    function and expanded once; the denominators come out of the
    construction, not from the printed D(u,d;t).
    """
    if order < 3:
        raise DomainError("assembly needs order >= 3")
    u, tp, inv1, G, X, Y, alpha, beta = _case_factors()
    geom = (alpha * X + beta * Y).geometric()
    pre_single = tp({0: 1, 1: u}) + tp({2: u}) * inv1     # before s0...
    pre_multi = tp({0: 1, 1: 1}) + tp({2: 1}) * inv1      # before s^2 s^* 0...
    post = tp({0: 1}) + tp({1: 1}) * inv1                 # after ...0 s-block
    cases = {
        "A": pre_single * (beta * inv1) * X * X * geom,
        "B": pre_multi * (beta * inv1) * X * Y * geom,
        "C": pre_single * post * beta * X * Y * geom,
        "D": pre_multi * post * beta * Y * Y * geom,
    }
    e_parts = {
        "zero": tp({1: 1}) + tp({2: 1}) * inv1,
        "single": (tp({0: 1}) + tp({1: 2}) * inv1 + tp({2: 1}) * inv1 * inv1) * X,
        "block": (
            tp({0: 1, 1: 1})
            + tp({1: 1, 2: 1}) * inv1
            + tp({2: 1}) * inv1
            + tp({3: 1}) * inv1 * inv1
        ) * Y,
    }
    cases["E"] = e_parts["zero"] + e_parts["single"] + e_parts["block"]
    gfx = sum(cases.values()).expand(order)
    gf = over_t2(gfx, [0, 1, 1])
    return CaseAssembly(
        order,
        {tag: part.expand(order) for tag, part in cases.items()},
        {sub: part.expand(order) for sub, part in e_parts.items()},
        gfx,
        gf,
    )


def combined_e_gf(order):
    """The printed single-expression form of the case-E series."""
    u, tp, inv1, G, X, Y, alpha, beta = _case_factors()
    one_mu_t = tp({0: 1, 1: 1 - u})
    part1 = tp({1: 1, 2: 1 - u}) * inv1
    part2 = one_mu_t * one_mu_t * inv1 * inv1 * G
    part3 = one_mu_t * tp({0: 1, 1: 1 - u, 2: 1 - u}) * inv1 * inv1 * Y
    return (part1 + part2 + part3).expand(order)


def _e_subtag(dec):
    if not dec.segments:
        return "zero"
    return "single" if len(dec.segments[0][0]) == 1 else "block"


def case_census_polynomials(m):
    """Census of full strings of length m by case tag and flip statistic."""
    counts = Counter()
    for word in strings.enumerate_rc(m):
        stat = strings.flip_degrees(word)
        dec = strings.decompose(word)
        counts[dec.case_tag, stat] += 1
        if dec.case_tag == "E":
            counts["E/" + _e_subtag(dec), stat] += 1
    return {
        tag: UD.poly({stat: c for (t, stat), c in counts.items() if t == tag})
        for tag in ("A", "B", "C", "D", "E", "E/zero", "E/single", "E/block")
    }


def case_assembly_check(order=30, max_len=16):
    """Verify the assembly against per-case censuses and the closed form."""
    report = Report("five-case assembly")
    assembly = assemble_case_gfs(order)
    upto = min(max_len, order)
    censuses = [case_census_polynomials(m) for m in range(1, upto + 1)]
    series = {**assembly.cases, **{"E/" + sub: part for sub, part in assembly.e_parts.items()}}
    for tag in ("A", "B", "C", "D", "E", "E/zero", "E/single", "E/block"):
        report.expect_series(
            "case %s series = census through length %d" % (tag, upto),
            series[tag][1 : upto + 1],
            [census[tag] for census in censuses],
            start=1,
        )
    report.add("E parts sum to printed combined form", assembly.cases["E"] == combined_e_gf(order))
    total = [sum(cs) for cs in zip(*(assembly.cases[t] for t in "ABCDE"))]
    report.add("GFX equals sum of case series", assembly.gfx == total)
    report.expect_series(
        "assembled GF equals closed form through order %d" % (order - 2),
        assembly.gf,
        gf_updown_closed(order - 2),
    )
    return report


# ---------------------------------------------------------------------------
# word-sum identities behind the A-D cases


def _word_exponents(word):
    """Exponents (alpha, beta, x, y) of m(word) = x^{#a} y^{#b} alpha^{#aa+#ba} beta^{#ab+#bb}."""
    a_count = word.count("a")
    # each adjacent pair is counted by its second letter
    alpha_exp = word.count("a", 1)
    beta_exp = max(len(word) - 1, 0) - alpha_exp
    return (alpha_exp, beta_exp, a_count, len(word) - a_count)


def word_sum_identity_check(n_max=12):
    """Brute-force the boundary-letter sums over all middle words."""
    report = Report("word-sum identities")
    alpha = WORD_RING.var("alpha")
    beta = WORD_RING.var("beta")
    x = WORD_RING.var("x")
    y = WORD_RING.var("y")
    step = alpha * x + beta * y
    closed_heads = {
        ("a", "a"): alpha * x * x,
        ("b", "a"): alpha * x * y,
        ("a", "b"): beta * x * y,
        ("b", "b"): beta * y * y,
    }
    sums = {key: [] for key in closed_heads}
    for n in range(n_max + 1):
        words = ["".join(w) for w in product("ab", repeat=n)]
        for (first, last), head in closed_heads.items():
            brute = WORD_RING.poly(Counter(_word_exponents(first + w + last) for w in words))
            sums[(first, last)].append(brute)
            report.expect_equal(
                "sum over %s w %s, |w| = %d" % (first, last, n),
                brute,
                head * step ** n,
            )
    # the same identity summed over all middle-word lengths at once
    geom = RationalGF(WORD_RING, {1: step}).geometric().expand(n_max)
    for (first, last), head in closed_heads.items():
        report.add(
            "graded sum over %s w %s equals geometric form" % (first, last),
            sums[(first, last)] == [c * head for c in geom],
        )
    return report


# ---------------------------------------------------------------------------
# specializations and consequences


def specialize_checks(order=40):
    """The four printed specializations of the up-down GF."""
    report = Report("specializations")
    base = gf_updown_closed(order)
    x = DEGREE_RING.var("x")
    # the printed prefix is checked in full even when `order` is shorter
    maximal = maximal_gf().expand(max(order, len(MAXIMAL_PREFIX)))
    for label, ring, images, want in (
        ("u := 1 gives the down-degree GF", UD, {"u": 1}, down_gf().expand(order)),
        ("d := 1 gives the up-degree GF", UD, {"d": 1}, up_gf().expand(order)),
        ("u, d := x gives the degree GF", DEGREE_RING, {"u": x, "d": x}, degree_gf().expand(order)),
        ("u := 0, d := 1 gives the maximal-count GF", SCALAR, {"u": 0, "d": 1}, maximal),
    ):
        report.expect_series(label, [c.map_onto(ring, images) for c in base], want)
    report.expect_series(
        "maximal-count prefix", [c.constant_term() for c in maximal[1:]], MAXIMAL_PREFIX, start=1
    )
    return report


def edge_gf_check(order=40, brute_max=12):
    """Edge-count GF from both degree derivatives plus the closed formula."""
    report = Report("edge generating function")
    edges = [c.constant_term() for c in edge_gf().expand(order)]
    # a MultiPoly equals an int only when it is that constant
    down = [c.partial_derivative("d") for c in down_gf().expand(order)]
    report.expect_series(
        "d-derivative of down GF at d=1", [c.evaluate_at("d", 1) for c in down], edges
    )
    up = [c.partial_derivative("u") for c in up_gf().expand(order)]
    report.expect_series(
        "u-derivative of up GF at u=1", [c.evaluate_at("u", 1) for c in up], edges
    )
    report.expect_series(
        "printed derivative form matches d/dd of down GF", down, edge_derivative_gf().expand(order)
    )
    top = min(order, 30)
    report.expect_series(
        "closed-form edge count through n=%d" % top,
        [graph.closed_form_edge_count(n) for n in range(5, top + 1)],
        edges[5 : top + 1],
        start=5,
    )
    brute = [0] + [graph.edge_count(n) for n in range(1, min(brute_max, order) + 1)]
    report.expect_series("census edge counts through n=%d" % min(brute_max, order), brute, edges)
    return report


def degree_k_series(k, order):
    """Number of degree-k vertices of R_n for n = 0..order, from the GF."""
    if k < 0:
        raise DomainError("k must be nonnegative")
    return _degree_k_counts(gf_degree_closed(order), k)


def _degree_k_counts(series, k):
    """[x^k] of every coefficient of an expanded degree GF."""
    return [c.coefficient("x", k).constant_term() for c in series]


DEGREE_K_PREFIXES = {
    2: (2, [1, 3, 5, 5, 4, 3]),
    3: (3, [1, 2, 5, 8, 12, 14, 14, 10]),
    4: (4, [1, 2, 6, 9, 16, 24, 39, 42, 46, 39, 43]),
}


# k: (n0, law), the eventual piecewise-linear count law(n) of the degree-k
# vertices of R_n for n >= n0
DEGREE_K_LAWS = {
    2: (8, lambda n: 2),
    3: (11, lambda n: 10 if n % 2 else 8),
    4: (15, lambda n: 2 * n + 9 if n % 2 else 3 * n // 2 + 21),
    5: (18, lambda n: 9 * n - 1 if n % 2 else 12 * n - 48),
}


def degree_k_law_check(order=40):
    """Printed prefixes and eventual laws for the degree-k counts."""
    report = Report("degree-k counts")
    # the printed prefixes are checked in full even when `order` is shorter
    top = max(start + len(prefix) - 1 for start, prefix in DEGREE_K_PREFIXES.values())
    series = gf_degree_closed(max(order, top))
    for k, (n0, law) in DEGREE_K_LAWS.items():
        seq = _degree_k_counts(series, k)
        if k in DEGREE_K_PREFIXES:
            start, prefix = DEGREE_K_PREFIXES[k]
            report.expect_series(
                "degree-%d prefix from n=%d" % (k, start), seq[start:], prefix, start=start
            )
        report.expect_series(
            "degree-%d law through n=%d" % (k, order),
            seq[n0:],
            [law(n) for n in range(n0, order + 1)],
            start=n0,
        )
    return report


@dataclass
class PkProbe:
    """Evidence for the conjectured polynomial form of degree-k GFs."""

    k: int
    order: int
    coefficients: list
    conjectured_bound: int
    observed_degree: int
    residual_zero: bool


def conjecture_pk_probe(k, order=40):
    """Multiply the degree-k series by (1-t^2)^(k+1) and inspect the tail.

    If the conjecture holds, the product is a polynomial of degree at most
    (15k+8)/2 for even k and (15k+7)/2 for odd k.  Truncated series can
    only furnish evidence, so the result reports what was observed.
    """
    return _pk_probe(k, order, degree_k_series(k, order))


def _pk_probe(k, order, coeffs):
    """conjecture_pk_probe on `coeffs`, the degree-k counts through t^order."""
    for _ in range(k + 1):
        # times (1 - t^2), truncated at t^order
        coeffs = coeffs[:2] + [c - b for c, b in zip(coeffs[2:], coeffs)]
    bound = (15 * k + 8) // 2 if k % 2 == 0 else (15 * k + 7) // 2
    observed = max((i for i, c in enumerate(coeffs) if c != 0), default=-1)
    residual = all(c == 0 for c in coeffs[bound + 1 :])
    return PkProbe(k, order, coeffs, bound, observed, residual)


def pk_probe_check(k_max=4, order=40):
    report = Report("degree-k polynomial-form probe")
    series = gf_degree_closed(order)
    for k in range(k_max + 1):
        probe = _pk_probe(k, order, _degree_k_counts(series, k))
        report.add(
            "k=%d tail vanishes beyond degree %d" % (k, probe.conjectured_bound),
            probe.residual_zero and probe.observed_degree <= probe.conjectured_bound,
            "observed degree %d" % probe.observed_degree,
        )
    return report


def recurrence_check(n_max=40):
    """The linear recurrence satisfied by g_n for n >= 12."""
    if n_max < 12:
        raise DomainError("recurrence starts at n = 12")
    report = Report("degree polynomial recurrence")
    g = gf_degree_closed(n_max)
    x = DEGREE_RING.var("x")
    rhs = [
        x * g[n - 1]
        + 2 * g[n - 2]
        - x * g[n - 3]
        - g[n - 4]
        + x * (x - 1) * g[n - 5]
        - x * (x * x - 1) * g[n - 7]
        - 2 * x * x * (x - 1) ** 2 * g[n - 9]
        - x * x * (x - 1) ** 3 * g[n - 11]
        for n in range(12, n_max + 1)
    ]
    report.expect_series("recurrence for 12 <= n <= %d" % n_max, g[12:], rhs, start=12)
    return report


def suite(max_n=None, order=None):
    """Every verification report this module offers, in a fixed order.

    None means the defaults max_n = 14 and order = 30.
    """
    max_n = 14 if max_n is None else max_n
    order = 30 if order is None else order
    return [
        census_check(n_max=max_n),
        case_assembly_check(order=max(order, 3), max_len=min(max_n + 2, 16)),
        word_sum_identity_check(n_max=min(max_n, 12)),
        specialize_checks(order=order),
        edge_gf_check(order=order),
        degree_k_law_check(order=max(order, 18)),
        pk_probe_check(k_max=4, order=max(order, 40)),
        recurrence_check(n_max=max(order, 12)),
    ]
