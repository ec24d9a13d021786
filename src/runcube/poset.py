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
"""

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from . import enumerators, graph, strings
from .errors import ValidationError
from .polyseries import RationalGF, Ring, TruncatedSeries
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


def rank_polynomial(n):
    """Rank enumerator of R_n: sum over vertices of x^(number of ones)."""
    if n < 0:
        raise ValidationError("n must be nonnegative")
    x = X_RING.var("x")
    out = X_RING.zero()
    for k in range(n // 2 + 2):
        c = comb(n - k + 1, k) if n - k + 1 >= k else 0
        if c:
            out = out + c * x ** k
    return out


def rank_gf():
    """GF of the rank polynomials, t(1 + x + xt)/(1 - t - xt^2)."""
    x = X_RING.var("x")
    return RationalGF(X_RING, {1: 1 + x, 2: x}, {0: 1, 1: -1, 2: -x})


@lru_cache(maxsize=None)
def _member_masks(n):
    """Set of full-string masks (length n + 2) of the vertices of R_n."""
    return frozenset(int(m) for m in graph.rc_masks(n + 2))


def _to_mask(n, vertex):
    """Accept a label string or label mask; return the full-string mask."""
    if isinstance(vertex, str):
        if len(vertex) != n:
            raise ValidationError(
                "vertex label must have length %d, got %r" % (n, vertex)
            )
        mask = strings.word_to_mask(vertex + "00")
    else:
        mask = int(vertex) << 2
    if mask not in _member_masks(n):
        raise ValidationError("not a vertex of R_%d: %r" % (n, vertex))
    return mask


def _to_label(n, mask):
    return strings.mask_to_word(mask >> 2, n)


def _up_closure_within(n, start, box):
    """Masks reachable from `start` by valid flips 0 -> 1 inside `box`."""
    members = _member_masks(n)
    free = box & ~start
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for mask in frontier:
            todo = free & ~mask
            while todo:
                bit = todo & -todo
                todo ^= bit
                cand = mask | bit
                if cand not in seen and cand in members:
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return seen


def _down_closure_above(n, start, floor):
    """Masks reachable from `start` by valid flips 1 -> 0 keeping `floor`."""
    members = _member_masks(n)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for mask in frontier:
            todo = mask & ~floor
            while todo:
                bit = todo & -todo
                todo ^= bit
                cand = mask ^ bit
                if cand not in seen and cand in members:
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return seen


def _leq_masks(n, a, b):
    if a & ~b:
        return False
    if a == b:
        return True
    return b in _up_closure_within(n, a, b)


def leq(n, u, v):
    """Whether a chain of valid single-bit additions leads from u to v."""
    return _leq_masks(n, _to_mask(n, u), _to_mask(n, v))


def _interval_masks(n, a, b):
    if a & ~b:
        return []
    up = _up_closure_within(n, a, b)
    if b not in up:
        return []
    down = _down_closure_above(n, b, a)
    return sorted(up & down)


def interval(n, u, v):
    """All vertices on chains between u and v, as label strings."""
    return [_to_label(n, m) for m in _interval_masks(n, _to_mask(n, u), _to_mask(n, v))]


def mobius(n, u, v):
    """The published closed form: (-1)^(rank difference) on comparable pairs.

    This is the formula as stated; it disagrees with mobius_recursive
    from n = 5 onward.  See mobius_check for the survey.
    """
    a = _to_mask(n, u)
    b = _to_mask(n, v)
    if not _leq_masks(n, a, b):
        return 0
    return -1 if (b ^ a).bit_count() % 2 else 1


def mobius_recursive(n, u, v):
    """Mobius function straight from its defining recursion."""
    a = _to_mask(n, u)
    b = _to_mask(n, v)
    members = _interval_masks(n, a, b)
    if not members:
        return 0
    return _mobius_on_interval(n, members)[b]


def _mobius_on_interval(n, members):
    """mu(bottom, w) for every w in an interval, bottom = members[0]."""
    order = sorted(members, key=lambda m: (m.bit_count(), m))
    below = {
        w: [z for z in order if z != w and _leq_masks(n, z, w)] for w in order
    }
    mu = {order[0]: 1}
    for w in order[1:]:
        mu[w] = -sum(mu[z] for z in below[w])
    return mu


@dataclass
class IntervalViolation:
    """An interval whose size is not 2^(rank difference)."""

    bottom: str
    top: str
    rank_difference: int
    expected_size: int
    actual_size: int
    first_missing: str

    def to_json_dict(self):
        return {
            "bottom": self.bottom,
            "top": self.top,
            "rank_difference": self.rank_difference,
            "expected_size": self.expected_size,
            "actual_size": self.actual_size,
            "first_missing": self.first_missing,
        }


def _comparable_pairs(n):
    """All ordered pairs a <= b of full-string masks, smallest rank gap first."""
    members = sorted(_member_masks(n))
    pairs = []
    for a in members:
        for b in members:
            if not (a & ~b) and _leq_masks(n, a, b):
                pairs.append((a, b))
    pairs.sort(key=lambda ab: ((ab[1] ^ ab[0]).bit_count(), ab[0], ab[1]))
    return pairs


def verify_boolean_intervals(n):
    """Survey every interval of R_n against the Boolean-lattice claim.

    Returns {n, pairs_checked, violations}; a violation records the
    expected size 2^k, the actual size, and the smallest submask of the
    difference that fails to be a vertex on a chain.
    """
    pairs = _comparable_pairs(n)
    violations = []
    for a, b in pairs:
        k = (b ^ a).bit_count()
        members = set(_interval_masks(n, a, b))
        if len(members) == 1 << k:
            continue
        first_missing = ""
        diff = b ^ a
        bits = [diff & -diff]
        rest = diff ^ bits[0]
        while rest:
            bits.append(rest & -rest)
            rest ^= bits[-1]
        for pick in range(1 << len(bits)):
            cand = a
            for i, bit in enumerate(bits):
                if pick >> i & 1:
                    cand |= bit
            if cand not in members:
                first_missing = _to_label(n, cand)
                break
        violations.append(
            IntervalViolation(
                _to_label(n, a), _to_label(n, b), k, 1 << k, len(members), first_missing
            )
        )
    return {
        "n": n,
        "pairs_checked": len(pairs),
        "violations": [v.to_json_dict() for v in violations],
    }


def interval_check(n_max=8):
    """Boolean-interval claim survey; fails from n = 5 with counterexamples."""
    report = Report("Boolean-interval claim")
    for n in range(1, n_max + 1):
        survey = verify_boolean_intervals(n)
        bad = survey["violations"]
        detail = ""
        if bad:
            v = bad[0]
            detail = "%d of %d intervals violate, e.g. [%s, %s] has %d elements, not %d" % (
                len(bad),
                survey["pairs_checked"],
                v["bottom"],
                v["top"],
                v["actual_size"],
                v["expected_size"],
            )
        report.add("all intervals of R_%d are Boolean" % n, not bad, detail)
    return report


def mobius_check(n_max=8):
    """Closed-form Mobius values against the defining recursion."""
    report = Report("Mobius closed form")
    for n in range(1, n_max + 1):
        mismatches = []
        for a, b in _comparable_pairs(n):
            members = _interval_masks(n, a, b)
            got = _mobius_on_interval(n, members)[b]
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
    return report


def rank_check(n_max=14):
    """Rank polynomials: binomial formula vs census vs generating function."""
    report = Report("rank polynomials")
    gf = rank_gf().expand(n_max)
    for n in range(1, n_max + 1):
        x = X_RING.var("x")
        census = X_RING.zero()
        for word in strings.enumerate_rc(n + 2):
            census = census + x ** word.count("1")
        report.expect_equal(
            "rank polynomial of R_%d vs census" % n, rank_polynomial(n), census
        )
    report.add(
        "GF matches binomial formula through t^%d" % n_max,
        all(gf.coefficient(n) == rank_polynomial(n) for n in range(1, n_max + 1)),
    )
    for n, text in sorted(RANK_PREFIX_TERMS.items()):
        report.expect_equal(
            "printed rank polynomial of R_%d" % n, rank_polynomial(n).render(), text
        )
    return report


def maximal_gf_check(order=30, brute_max=20):
    """Maximal-vertex counts: GF vs brute force vs printed tables."""
    report = Report("maximal vertices")
    counts = enumerators.maximal_gf().expand(order).integer_coefficients()
    for n in range(1, min(brute_max, order) + 1):
        brute = graph.maximal_vertices(n)
        if len(brute) != counts[n]:
            report.add(
                "GF counts maximal vertices through n=%d" % min(brute_max, order),
                False,
                "mismatch at n=%d: %d vs %d" % (n, len(brute), counts[n]),
            )
            break
    else:
        report.add("GF counts maximal vertices through n=%d" % min(brute_max, order), True)
    for n, table in sorted(MAXIMAL_TABLES.items()):
        got = [label + "00" for label in graph.maximal_vertices(n)]
        report.expect_equal("maximal vertices of R_%d" % n, got, sorted(table))
    prefix = counts[1 : len(enumerators.MAXIMAL_PREFIX) + 1]
    report.expect_equal("printed count prefix", prefix, enumerators.MAXIMAL_PREFIX)
    return report


def suite(max_n=None, order=None):
    """The poset reports through R_max_n (default 8); no check takes an order."""
    max_n = 8 if max_n is None else max_n
    return [
        rank_check(n_max=max(max_n, 8)),
        interval_check(n_max=max_n),
        mobius_check(n_max=max_n),
        maximal_gf_check(),
    ]
