"""Inversion enumerators of run-constrained strings.

Q_n(x, q) sums x^(number of ones) q^(number of inversions) over all
run-constrained strings of length n, where an inversion is a pair of
positions i < j with a 0 at i and a 1 at j.  That statistic, zeros before
ones, is the one the printed tables use (the prose convention, larger
entry first, would count ones before zeros and disagrees with every
table from Q_3 on, so the tables win).

The polynomials satisfy a clean recurrence obtained by splitting off the
first letter s_k = 1^k 0^(k+1):

    Q_n = sum_k x^k Q_(n-1-2k)(x -> x q^(k+1)),   Q_0 = 1, Q_(<0) = 0,

because the k ones of the leading letter are jumped by every later one
(contributing q^k per crossing pair) and the letter itself contains k+1
zeros... each later 1 also crosses those, which the substitution
x -> x q^(k+1) records.  Everything here is verified against direct
enumeration; at q = 1 the polynomials collapse onto the rank enumerators
of the vertex posets two sizes down.
"""

from functools import lru_cache

import numpy as np

from . import config, graph, poset, strings
from .errors import ResourceLimitError
from .polyseries import RationalGF, Ring, TruncatedSeries
from .report import Report

XQ = Ring(("x", "q"))

PRINTED_Q = {
    0: {(0, 0): 1},
    1: {(0, 0): 1},
    2: {(0, 0): 1},
    3: {(0, 0): 1, (1, 0): 1},
    4: {(0, 0): 1, (1, 0): 1, (1, 1): 1},
    5: {(0, 0): 1, (1, 0): 1, (1, 1): 1, (1, 2): 1, (2, 0): 1},
    6: {
        (0, 0): 1,
        (1, 0): 1,
        (1, 1): 1,
        (1, 2): 1,
        (1, 3): 1,
        (2, 0): 1,
        (2, 2): 2,
    },
    7: {
        (0, 0): 1,
        (1, 0): 1,
        (1, 1): 1,
        (1, 2): 1,
        (1, 3): 1,
        (1, 4): 1,
        (2, 0): 1,
        (2, 2): 2,
        (2, 3): 1,
        (2, 4): 2,
        (3, 0): 1,
    },
}


def q_polynomial(n, cap=None):
    """Q_n(x, q) by direct enumeration of the strings of length n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = strings.fibonacci(n) if n else 1
    limit = config.vertex_cap(cap)
    if total > limit:
        raise ResourceLimitError(
            "length %d needs %d strings, over the cap %d" % (n, total, limit)
        )
    if n == 0:
        return XQ.one()
    masks = graph.rc_masks(n)
    weight = np.zeros(len(masks), dtype=np.int64)
    inv = np.zeros(len(masks), dtype=np.int64)
    zeros_before = np.zeros(len(masks), dtype=np.int64)
    for p in range(n):
        bit = (masks >> (n - 1 - p)) & 1
        inv += bit * zeros_before
        zeros_before += 1 - bit
        weight += bit
    span = n * n // 4 + 1
    codes, counts = np.unique(weight * span + inv, return_counts=True)
    return XQ.poly(
        {
            (int(c) // span, int(c) % span): int(k)
            for c, k in zip(codes, counts)
        }
    )


@lru_cache(maxsize=None)
def q_polynomial_recursive(n):
    """Q_n(x, q) from the first-letter recurrence, no enumeration."""
    if n < 0:
        return XQ.zero()
    if n == 0:
        return XQ.one()
    x = XQ.var("x")
    q = XQ.var("q")
    out = XQ.zero()
    k = 0
    while n - 1 - 2 * k >= 0:
        inner = q_polynomial_recursive(n - 1 - 2 * k)
        out = out + x ** k * inner.substitute("x", x * q ** (k + 1))
        k += 1
    return out


def q_series(order):
    """H(t) = sum Q_n t^n as a truncated series."""
    return TruncatedSeries(
        XQ, [q_polynomial_recursive(n) for n in range(order + 1)], order
    )


def q1_gf():
    """GF of the q = 1 specialization, (1 - xt^2)/(1 - t - xt^2)."""
    x = XQ.var("x")
    return RationalGF(XQ, {0: 1, 2: -x}, {0: 1, 1: -1, 2: -x})


def recurrence_check(n_max=18, cap=None):
    """Recurrence and printed tables against direct enumeration."""
    report = Report("inversion recurrence")
    for n in range(n_max + 1):
        report.expect_equal(
            "Q_%d recurrence vs enumeration" % n,
            q_polynomial_recursive(n),
            q_polynomial(n, cap=cap),
        )
    for n, terms in sorted(PRINTED_Q.items()):
        report.expect_equal(
            "printed table Q_%d" % n, q_polynomial_recursive(n), XQ.poly(terms)
        )
    return report


def functional_identity_check(order=24):
    """H = 1 + t sum_k x^k t^(2k) H(x -> x q^(k+1)), truncated."""
    report = Report("inversion functional identity")
    h = q_series(order)
    x = XQ.var("x")
    q = XQ.var("q")
    rhs = TruncatedSeries.one(XQ, order)
    k = 0
    while 2 * k + 1 <= order:
        sub = h.substitute("x", x * q ** (k + 1))
        rhs = rhs + (x ** k) * sub.shift(2 * k + 1)
        k += 1
    diff = h.first_difference(rhs)
    report.add(
        "functional identity through t^%d" % order,
        diff is None,
        "" if diff is None else "first difference at t^%d" % diff,
    )
    return report


def q1_specialization_check(order=24):
    """q = 1 collapse: closed GF and the match with the rank enumerators."""
    report = Report("q = 1 specialization")
    h1 = q_series(order).evaluate_at("q", 1)
    gf = q1_gf().expand(order)
    diff = h1.first_difference(gf)
    report.add(
        "H at q = 1 equals (1 - xt^2)/(1 - t - xt^2) through t^%d" % order,
        diff is None,
        "" if diff is None else "first difference at t^%d" % diff,
    )
    x = poset.X_RING.var("x")
    ok = True
    # n = 0 is checked even when `order` < 2
    for n in range(max(order, 2) - 1):
        left = q_polynomial_recursive(n + 2).map_onto(poset.X_RING, {"x": x, "q": 1})
        if left != poset.rank_polynomial(n):
            report.add(
                "Q_(n+2) at q = 1 is the rank polynomial of R_n",
                False,
                "mismatch at n=%d" % n,
            )
            ok = False
            break
    if ok:
        report.add("Q_(n+2) at q = 1 is the rank polynomial of R_n", True)
    # dividing by t^2 needs H through t^2 even when `order` is shorter
    top = max(order, 2)
    shifted = (
        q_series(top).evaluate_at("q", 1)
        - TruncatedSeries.from_terms(XQ, {0: 1, 1: 1, 2: 1}, top)
    ).shift_divide_by_t_power(2)
    rank_gf = poset.rank_gf().expand(top - 2).map_onto(XQ, {"x": XQ.var("x")})
    diff = shifted.first_difference(rank_gf)
    report.add(
        "(H|q=1 - 1 - t - t^2)/t^2 is the rank GF",
        diff is None,
        "" if diff is None else "first difference at t^%d" % diff,
    )
    return report


def suite(max_n=None, order=None):
    """The inversion reports; None means max_n = 18 and order = 24."""
    max_n = 18 if max_n is None else max_n
    order = 24 if order is None else order
    return [
        recurrence_check(n_max=max_n),
        functional_identity_check(order=order),
        q1_specialization_check(order=order),
    ]
