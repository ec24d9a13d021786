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
x -> x q^(k+1) records.

Packed x-slabs.  Q_n is held as {x-degree a: int}, the int packing the
q-polynomial of x^a in slots of W bits (Kronecker substitution in q alone;
A. Schoenhage, EUROCAL 1982).  The format is polyseries' _Layout over
(q, x), q-degrees up to order^2 / 4 and x-degrees up to order / 2, for
coefficients up to f_(order+2): every coefficient counts strings, so it
is nonnegative and below f_(order+2), W is a whole number of bytes with
a spare sign bit, and no slot can carry into the next.  Slab a is the
run of slots at x-degree a, so Q_n's slabs set side by side in one int
are its layout packing, which _Layout.decode reads back in one pass.
On slab a the substitution x -> x q^(k+1) multiplies by q^((k+1) a), a
left shift by W (k+1) a bits, so one step of the recurrence adds slab a of
Q_(n-1-2k), shifted, into slab a+k of Q_n.

The string scan.  An independent pass builds every Q_n from the strings
themselves, left to right, with no letters: a prefix is free (complete),
inside a 1-run of length r, or owes m zeros.  Appending a 1 at position
p after w ones charges it the p - w zeros before it, so slab w moves to
slab w+1 shifted by W (p - w) bits; a 0 ends a run of length r with r
zeros still owed, pays one owed zero, or extends a free prefix.  Free
prefixes of length n are the strings Q_n counts.  Prefixes that cannot be
completed within the order are dropped, so every slot still counts
distinct strings of length at most the order and W stays exact.  The
functional identity, which fixes H = sum Q_n t^n uniquely, is checked on
the scanned slabs, so a pass shows that the scan and the recurrence agree.

Both passes size their slabs before they start and refuse more than
PACKED_MAX_BYTES.  Everything here is verified against direct
enumeration; at q = 1 (the sum of a slab's slots) the polynomials
collapse onto the rank enumerators of the vertex posets two sizes down.
"""

from itertools import repeat, zip_longest

import numpy as np

from . import graph, poset, strings
from .errors import DomainError, ResourceLimitError
from .polyseries import MultiPoly, RationalGF, Ring, _Layout, over_t2
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
    strings._require_int(n, least=0)
    strings._refuse_enumeration(n, cap)
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


# a packed pass refuses to start when its slabs would need more bytes than
# this; they grow about like order^4 / 32 slots
PACKED_MAX_BYTES = 1 << 27


def _slab_layout(order):
    """The (q, x) layout of a pass through t^order, size-checked."""
    # Q_n has x-degree at most n/2 and q-degree at most n^2/4
    layout = _Layout([order * order // 4, order // 2], strings.fibonacci(order + 2))
    slots = sum((n // 2 + 1) * (n * n // 4 + 1) for n in range(order + 1))
    need = slots * layout.width
    if need > PACKED_MAX_BYTES:
        raise ResourceLimitError(
            "inversion series through t^%d needs about %d bytes of packed slabs, cap is %d"
            % (order, need, PACKED_MAX_BYTES)
        )
    return layout


def _letter_step(qs, n, bits):
    """Slabs of sum_k x^k Q_(n-1-2k)(x -> x q^(k+1)), from qs = Q_0 .. Q_(n-1)."""
    out = {}
    for k in range((n + 1) // 2):
        step = bits * (k + 1)
        for a, slab in qs[n - 1 - 2 * k].items():
            out[a + k] = out.get(a + k, 0) + (slab << step * a)
    return out


def _packed_series(order):
    """(layout, [Q_0 .. Q_order]) as packed x-slabs, from the letter recurrence."""
    layout = _slab_layout(order)
    qs = [{0: 1}]
    for n in range(1, order + 1):
        qs.append(_letter_step(qs, n, 8 * layout.width))
    return layout, qs


def _append_one(slabs, p, bits):
    """A 1 appended at position p: x^w q^b -> x^(w+1) q^(b + p - w)."""
    return {w + 1: slab << bits * (p - w) for w, slab in slabs.items()}


def _merge(a, b):
    """Sum of two slab dicts."""
    out = dict(a)
    for w, slab in b.items():
        out[w] = out.get(w, 0) + slab
    return out


def _scanned_series(order):
    """(layout, [Q_0 .. Q_order]) as packed x-slabs, by a left-to-right string scan."""
    layout = _slab_layout(order)
    bits = 8 * layout.width
    free = {0: 1}
    runs = []  # runs[r - 1]: prefixes ending in a 1-run of length r
    owed = []  # owed[m - 1]: prefixes that still owe m zeros
    out = [free]
    for p in range(order):
        room = order - 1 - p  # characters still to come after this one
        # a 0 extends a free prefix, pays an owed zero, or ends a run of
        # length r with r zeros owed; a 1 starts or extends a run.  A run of
        # length r needs r + 1 more characters and m owed zeros need m.
        free, runs, owed = (
            _merge(free, owed[0]) if owed else free,
            [_append_one(s, p, bits) for s in ([free] + runs)[: max(room - 1, 0)]],
            [_merge(r, m) for r, m in zip_longest(runs, owed[1:], fillvalue={})][:room],
        )
        out.append(free)
    return layout, out


def _terms(slabs, layout):
    """Term dict {(a, b): c} of one packed Q_n, its slabs set side by side and decoded at once."""
    # slab a starts at slot s a, so slot i holds the coefficient of x^(i // s) q^(i % s)
    s = layout.strides[1]
    live, coeffs = layout.decode(sum(slab << 8 * layout.width * s * a for a, slab in slabs.items()))
    return dict(zip(map(divmod, live.tolist(), repeat(s)), coeffs))


def _at_q_one(slabs, layout):
    """{a: Q_n(x, 1) coefficient of x^a}: the sum of each slab's slots.

    Folding a slab's upper half onto its lower half keeps the slots apart,
    since every partial sum stays below the slab total, a count of strings.
    """
    bits = 8 * layout.width
    out = {}
    for a, slab in slabs.items():
        slots = -(-slab.bit_length() // bits)
        while slots > 1:
            half = (slots + 1) // 2
            slab = (slab & ((1 << bits * half) - 1)) + (slab >> bits * half)
            slots = half
        out[a] = slab
    return out


def q_polynomial_recursive(n):
    """Q_n(x, q) from the first-letter recurrence, no enumeration."""
    if n < 0:
        return XQ.zero()
    layout, qs = _packed_series(n)
    return MultiPoly(XQ, _terms(qs[n], layout))


def q_series(order):
    """H(t) = sum Q_n t^n as the list Q_0 .. Q_order, from one packed pass."""
    if order < 0:
        raise DomainError("series order must be nonnegative")
    layout, qs = _packed_series(order)
    return [MultiPoly(XQ, _terms(s, layout)) for s in qs]


def q1_gf():
    """GF of the q = 1 specialization, (1 - xt^2)/(1 - t - xt^2)."""
    x = XQ.var("x")
    return RationalGF(XQ, {0: 1, 2: -x}, {0: 1, 1: -1, 2: -x})


def recurrence_check(n_max=18, cap=None):
    """Recurrence and printed tables against direct enumeration."""
    # the largest enumeration is refused before any other runs
    strings._refuse_enumeration(n_max, cap)
    report = Report("inversion recurrence")
    enumerated = [q_polynomial(n, cap=cap) for n in range(n_max + 1)]
    recursive = q_series(max(n_max, max(PRINTED_Q)))
    for n, poly in enumerate(enumerated):
        report.expect_equal("Q_%d recurrence vs enumeration" % n, recursive[n], poly)
    for n, terms in sorted(PRINTED_Q.items()):
        report.expect_equal("printed table Q_%d" % n, recursive[n], XQ.poly(terms))
    return report


def functional_identity_check(order=24):
    """H = 1 + t sum_k x^k t^(2k) H(x -> x q^(k+1)), truncated, on the scanned H."""
    report = Report("inversion functional identity")
    layout, h = _scanned_series(order)
    rhs = [{0: 1}] + [_letter_step(h, n, 8 * layout.width) for n in range(1, order + 1)]
    report.expect_series("functional identity through t^%d" % order, h, rhs)
    return report


def q1_specialization_check(order=24):
    """q = 1 collapse: closed GF and the match with the rank enumerators."""
    report = Report("q = 1 specialization")
    # n = 0 of the rank polynomials, and dividing by t^2, need H through t^2
    # even when `order` is shorter
    top = max(order, 2)
    layout, qs = _packed_series(top)
    collapsed = [_at_q_one(s, layout) for s in qs]
    h1 = [MultiPoly(XQ, {(a, 0): c for a, c in q1.items()}) for q1 in collapsed]
    report.expect_series(
        "H at q = 1 equals (1 - xt^2)/(1 - t - xt^2) through t^%d" % order,
        h1,
        q1_gf().expand(order),
    )
    report.expect_series(
        "Q_(n+2) at q = 1 is the rank polynomial of R_n",
        [MultiPoly(poset.X_RING, {(a,): c for a, c in q1.items()}) for q1 in collapsed[2:]],
        [poset.rank_polynomial(n) for n in range(top - 1)],
    )
    x = XQ.var("x")
    report.expect_series(
        "(H|q=1 - 1 - t - t^2)/t^2 is the rank GF",
        over_t2(h1, [1, 1, 1]),
        [c.map_onto(XQ, {"x": x}) for c in poset.rank_gf().expand(top - 2)],
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
