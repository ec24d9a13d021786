"""The induced subposet of the Boolean lattice on run-constrained vertices.

Vertices of R_n are ordered by reachability through valid single-bit
flips: u <= v when some chain of vertices climbs from u to v adding one
1-bit at a time.  This is finer than mask containment; from n = 7 there
are containments with no connecting chain, so `leq` is a graph search,
not a subset test.

Two published claims about this order are implemented here verbatim and
then checked against first-principles computation, because both fail:

  * "every interval [u, v] is a Boolean lattice of rank rk(v) - rk(u)"
    breaks first in R_5, where [00100, 11100] is a 3-element chain
    (01100 is the only vertex strictly between, since 10100 has an
    unsupported run);
  * the consequent Mobius formula mu(u, v) = (-1)^(rk(v) - rk(u)) breaks
    at the same pair: recursive evaluation gives 0, the formula +1.

mobius() computes the published closed form; mobius_recursive() is the
defining recursion and serves as the oracle in mobius_check().
leq, interval, mobius and mobius_recursive take a vertex as a label
string or an int label mask, parsed by `graph._require_label`.

One reachability kernel, `_reach`, answers every question: transitive
closure by bitset union in topological order (Purdom, BIT 1970;
Nuutila 1995).  One `graph._flip_scan` writes the neighbour table of a
sorted label array, and one `np.nonzero` reads the up-arcs off it.
Bit k stands for the k-th label, and ascending masks are a
topological order, so up[v] is bit v OR the up sets of v's
up-neighbours, filled from the top down, and down[v] the mirror.  The
interval [a, b] is up[a] & down[b], and mu(a, b) is -sum of mu(a, z)
over its bits z other than b, walked upward with one bitset per mu value
and one masked popcount per value.  The surveys run the kernel on all of
R_n, the single-pair calls on the box a <= z <= b (as masks) of R_n's
labels, which holds every chain from a to b: there the kernel flips only
the bits of b & ~a, since every other flip leaves the box, and one index
array maps its R_n positions to box positions.  R_n must fit the
vertex cap, as in `graph.build`, and the bitsets, about 2 V^2 / 8 bytes
for V vertices, REACH_MAX_BYTES; both are checked before any scan, and a
survey checks its largest n before its first report.
"""

from collections import Counter
from math import comb

import numpy as np

from . import enumerators, graph, strings
from .errors import ResourceLimitError
from .polyseries import RationalGF, Ring
from .report import Report

X_RING = Ring(("x",))

# maximal vertices of R_1 .. R_6, written as full strings
MAXIMAL_TABLES = {
    1: ["100"],
    2: ["0100", "1000"],
    3: ["00100", "11000"],
    4: ["011000", "100100", "110000"],
    5: ["0011000", "0100100", "1000100", "1001000", "1110000"],
    6: ["00100100", "01001000", "01110000", "10011000", "11000100", "11100000"],
}

RANK_PREFIX_TERMS = {1: "1 + x", 2: "1 + 2*x", 3: "1 + 3*x + x^2", 4: "1 + 4*x + 3*x^2"}


# rank_polynomial refuses a larger n; R_5000's takes about 0.6 s on a
# 2-vCPU host and is 1.9 MB of text
RANK_MAX_N = 5000


def rank_polynomial(n):
    """Rank enumerator of R_n: sum over vertices of x^(number of ones)."""
    strings._require_int(n, least=0)
    if n > RANK_MAX_N:
        raise ResourceLimitError(
            "rank polynomial of R_%d refused, n is capped at %d" % (n, RANK_MAX_N)
        )
    return X_RING.poly({(k,): comb(n - k + 1, k) for k in range(n // 2 + 2)})


def rank_gf():
    """GF of the rank polynomials, t(1 + x + xt)/(1 - t - xt^2)."""
    x = X_RING.var("x")
    return RationalGF(X_RING, {1: 1 + x, 2: x}, {0: 1, 1: -1, 2: -x})


# the kernel refuses a vertex set whose two bitset tables, about 2 V^2 / 8
# bytes for V vertices, would need more than this; R_19 is the largest
# whole graph it takes
REACH_MAX_BYTES = 1 << 25


def _check_reach(n, nv):
    need = 2 * nv * nv // 8
    if need > REACH_MAX_BYTES:
        raise ResourceLimitError(
            "reachability on %d vertices of R_%d needs about %d bytes of bitsets, cap is %d"
            % (nv, n, need, REACH_MAX_BYTES)
        )


def _refuse_oversized(n, cap=None):
    """Raise before any work if R_n is over the vertex cap or the bitset cap."""
    _check_reach(n, graph._vertex_total(n, cap))


def _reach(n, labels, bits, position=None):
    """(masks, up, down) of `labels`, a sorted array of R_n's label masks.

    masks holds their full-string masks, and bit k of the int bitsets up[v]
    and down[v] stands for masks[k]: up[v] is what v reaches by valid
    0 -> 1 flips, down[v] what reaches v, v included.  The flip scan tries
    the label bits in `bits`, and `position` maps its R_n indices to
    indices in `labels` (the identity by default).
    """
    _check_reach(n, len(labels))
    table = np.empty((len(bits), len(labels)), dtype=graph._index_type(n))
    graph._flip_scan(labels, n, table, bits)
    if position is not None:
        table = np.where(table >= 0, position[table], -1)
    # a flip that adds a bit leads to a larger mask, so to a higher index;
    # read a row per label, the arcs come ascending in their lower end
    src, k = np.nonzero(table.T > np.arange(len(labels))[:, None])
    arcs = list(zip(src.tolist(), table[k, src].tolist()))
    up = [1 << k for k in range(len(labels))]
    down = up[:]
    for lo, hi in reversed(arcs):
        up[lo] |= up[hi]
    for lo, hi in sorted(arcs, key=lambda arc: arc[1]):
        down[hi] |= down[lo]
    return [m << 2 for m in labels.tolist()], up, down


def _whole(n, cap=None):
    _refuse_oversized(n, cap)
    return _reach(n, graph.vertex_labels(n), range(n))


def _box(n, u, v, cap=None):
    """_reach on the labels z of R_n with a <= z <= b as masks, and [a, b].

    Returns (masks, up, down, members): masks[0] is a, masks[-1] is b and
    members = up[0] & down[-1] is the interval's bitset; all are empty
    when a is not contained in b.  Only the bits of b & ~a are flipped,
    since any other flip leaves the box.
    """
    graph._vertex_total(n, cap)
    a = graph._require_label(n, u)
    b = graph._require_label(n, v)
    if a & ~b:
        return [], [], [], 0
    labels = graph.vertex_labels(n)
    inside = np.flatnonzero(((labels & a) == a) & ((labels & ~b) == 0))
    position = np.empty(len(labels), dtype=np.int64)
    position[inside] = np.arange(len(inside))
    masks, up, down = _reach(n, labels[inside], _bits(b & ~a), position)
    return masks, up, down, up[0] & down[-1]


def _bit_lists(bitsets):
    """The list of the set bits of each int bitset >= 0, lowest first, all read in one pass.

    Each bitset becomes a row of `width` little-endian bytes; its nonzero
    bytes are found row by row and unpacked low bit first, so the bits come
    out grouped by bitset and ascending within each.
    """
    width = (max(bitsets, default=0).bit_length() + 7) // 8
    rows = np.frombuffer(b"".join([x.to_bytes(width, "little") for x in bitsets]), dtype=np.uint8)
    rows = rows.reshape(len(bitsets), width)
    r, c = np.nonzero(rows)
    k, bit = np.nonzero(np.unpackbits(rows[r, c][:, None], axis=1, bitorder="little"))
    flat = (8 * c[k] + bit).tolist()
    ends = np.cumsum(np.bincount(r[k], minlength=len(bitsets))).tolist()
    return [flat[a:b] for a, b in zip([0] + ends, ends)]


def _bits(x):
    """The list of the set bits of x >= 0, lowest first."""
    return _bit_lists([x])[0]


def _to_label(n, mask):
    return strings.mask_to_word(mask >> 2, n)


def leq(n, u, v, cap=None):
    """Whether a chain of valid single-bit additions leads from u to v."""
    return _box(n, u, v, cap)[3] != 0


def interval(n, u, v, cap=None):
    """All vertices on chains between u and v, as label strings."""
    masks, _, _, members = _box(n, u, v, cap)
    return [_to_label(n, masks[k]) for k in _bits(members)]


def mobius(n, u, v, cap=None):
    """The published closed form: (-1)^(rank difference) on comparable pairs.

    This is the formula as stated; it disagrees with mobius_recursive
    from n = 5 onward.  See mobius_check for the survey.
    """
    masks, _, _, members = _box(n, u, v, cap)
    if not members:
        return 0
    return -1 if (masks[-1] ^ masks[0]).bit_count() % 2 else 1


def mobius_recursive(n, u, v, cap=None):
    """Mobius function straight from its defining recursion."""
    masks, up, down, members = _box(n, u, v, cap)
    if not members:
        return 0
    return _mobius_from(up, down, _bits(up[0]))[len(masks) - 1]


def _mobius_from(up, down, above):
    """{j: mu(i, j)} for every bit j of up[i], given `above`, the list of those bits.

    i, the lowest of them, comes first, since up[i] holds i and what i reaches.
    The walk climbs, so every z of [i, j] other than j is set before j.
    The z sharing one nonzero mu value share one bitset, so mu(i, j) is
    -sum of value * popcount([i, j] & bitset), one masked popcount per
    value instead of one term per bit of the interval.
    """
    i = above[0]
    mu = {i: 1}
    by_value = {1: 1 << i}
    for j in above[1:]:
        interval = up[i] & down[j]
        m = -sum(v * (interval & bits).bit_count() for v, bits in by_value.items())
        mu[j] = m
        if m:
            by_value[m] = by_value.get(m, 0) | (1 << j)
    return mu


def _index_pairs(masks, up):
    """Bit pairs (i, j) with i <= j in the order, by (rank gap, mask i, mask j)."""
    pairs = [(i, j) for i, above in enumerate(_bit_lists(up)) for j in above]
    # built in (a, b) order, so a stable sort on the gap gives (gap, a, b)
    pairs.sort(key=lambda ij: (masks[ij[1]] ^ masks[ij[0]]).bit_count())
    return pairs


def verify_boolean_intervals(n, cap=None):
    """Survey every interval of R_n against the Boolean-lattice claim.

    Returns {n, pairs_checked, violations}; a violation records the
    expected size 2^k, the actual size, and the smallest submask of the
    difference that fails to be a vertex on a chain.
    """
    masks, up, down = _whole(n, cap)
    pairs = _index_pairs(masks, up)
    index = {m: k for k, m in enumerate(masks)}
    violations = []
    for i, j in _violations(masks, up, down, pairs):
        a, b = masks[i], masks[j]
        members = up[i] & down[j]
        diff = b ^ a
        k = diff.bit_count()
        # (sub - diff) & diff steps through the submasks of diff in increasing order
        sub = 0
        while (a | sub) in index and (members >> index[a | sub]) & 1:
            sub = (sub - diff) & diff
        violations.append(
            {
                "bottom": _to_label(n, a),
                "top": _to_label(n, b),
                "rank_difference": k,
                "expected_size": 1 << k,
                "actual_size": members.bit_count(),
                "first_missing": _to_label(n, a | sub),
            }
        )
    return {"n": n, "pairs_checked": len(pairs), "violations": violations}


def _violations(masks, up, down, pairs):
    """The pairs (i, j) of `pairs` whose interval is not a Boolean lattice, in order."""
    return [
        (i, j)
        for i, j in pairs
        if (up[i] & down[j]).bit_count() != 1 << (masks[j] ^ masks[i]).bit_count()
    ]


def _interval_entry(report, n, masks, up, down, pairs):
    """The Boolean-interval claim's line for R_n."""
    bad = _violations(masks, up, down, pairs)
    detail = ""
    if bad:
        i, j = bad[0]
        detail = "%d of %d intervals violate, e.g. [%s, %s] has %d elements, not %d" % (
            len(bad),
            len(pairs),
            _to_label(n, masks[i]),
            _to_label(n, masks[j]),
            (up[i] & down[j]).bit_count(),
            1 << (masks[j] ^ masks[i]).bit_count(),
        )
    report.add("all intervals of R_%d are Boolean" % n, not bad, detail)


def _mobius_entry(report, n, masks, up, down, pairs):
    """The Mobius closed form's line for R_n."""
    mus = [_mobius_from(up, down, above) for above in _bit_lists(up)]
    mismatches = []
    for i, j in pairs:
        a, b = masks[i], masks[j]
        got = mus[i][j]
        want = -1 if (b ^ a).bit_count() % 2 else 1
        if got != want:
            mismatches.append((a, b, got, want))
    detail = ""
    if mismatches:
        a, b, got, want = mismatches[0]
        detail = "%d pairs disagree, e.g. mu(%s, %s) = %d, formula says %d" % (
            len(mismatches),
            _to_label(n, a),
            _to_label(n, b),
            got,
            want,
        )
    report.add("closed form matches recursion on R_%d" % n, not mismatches, detail)


_INTERVALS = ("Boolean-interval claim", _interval_entry)
_MOBIUS = ("Mobius closed form", _mobius_entry)


def _closure_reports(n_max, checks):
    """One report per (name, entry) of `checks`, through R_n_max.

    Each R_n's closure and comparable pairs are built once and handed to
    every entry, which adds that n's line to its report.
    """
    _refuse_oversized(n_max)
    reports = [Report(name) for name, _ in checks]
    for n in range(1, n_max + 1):
        masks, up, down = _whole(n)
        pairs = _index_pairs(masks, up)
        for report, (_, entry) in zip(reports, checks):
            entry(report, n, masks, up, down, pairs)
    return reports


def interval_check(n_max=8):
    """Boolean-interval claim survey; fails from n = 5 with counterexamples."""
    return _closure_reports(n_max, [_INTERVALS])[0]


def mobius_check(n_max=8):
    """Closed-form Mobius values against the defining recursion."""
    return _closure_reports(n_max, [_MOBIUS])[0]


def rank_check(n_max=14):
    """Rank polynomials: binomial formula vs census vs generating function."""
    report = Report("rank polynomials")
    binomial = [rank_polynomial(n) for n in range(1, n_max + 1)]
    for n, poly in enumerate(binomial, 1):
        census = X_RING.poly(Counter((word.count("1"),) for word in strings.enumerate_rc(n + 2)))
        report.expect_equal("rank polynomial of R_%d vs census" % n, poly, census)
    report.expect_series(
        "GF matches binomial formula through t^%d" % n_max,
        rank_gf().expand(n_max)[1:],
        binomial,
        start=1,
    )
    for n, text in sorted(RANK_PREFIX_TERMS.items()):
        report.expect_equal(
            "printed rank polynomial of R_%d" % n, rank_polynomial(n).render(), text
        )
    return report


def maximal_gf_check(order=30, brute_max=20):
    """Maximal-vertex counts: GF vs brute force vs printed tables."""
    report = Report("maximal vertices")
    # the printed prefix is checked in full even when `order` is shorter
    prefix = enumerators.MAXIMAL_PREFIX
    series = enumerators.maximal_gf().expand(max(order, len(prefix)))
    counts = [c.constant_term() for c in series]
    top = min(brute_max, order)
    report.expect_series(
        "GF counts maximal vertices through n=%d" % top,
        counts[1 : top + 1],
        [len(graph._maximal_by_flip_scan(n)) for n in range(1, top + 1)],
        start=1,
    )
    for n, table in sorted(MAXIMAL_TABLES.items()):
        got = [label + "00" for label in graph.maximal_vertices(n)]
        report.expect_equal("maximal vertices of R_%d" % n, got, sorted(table))
    report.expect_series("printed count prefix", counts[1:], prefix, start=1)
    return report


def suite(max_n=None, order=None):
    """The poset reports through R_max_n (default 8); no check takes an order."""
    max_n = 8 if max_n is None else max_n
    _refuse_oversized(max_n)
    return [
        rank_check(n_max=max(max_n, 8)),
        *_closure_reports(max_n, [_INTERVALS, _MOBIUS]),
        maximal_gf_check(),
    ]
