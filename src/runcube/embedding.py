"""Embedding hypercubes into run-constrained graphs, and counting cubes.

The encoder rewrites a binary word by its run lengths: a word
0^(j0) 1^(i1) 0^(j1) ... 1^(ik) 0^(jk) maps to the concatenation of the
letters s_(j0) s_(i1) s_(j1) ... s_(ik) s_(jk), skipping empty runs,
with a single protective 0 in front when the word starts with a 0-run.
Right-padding with zeros to length 3n + 1 and dropping the final two
zeros gives a vertex label of R_(3n-1), so Q_n embeds into R_(3n-1).

The other direction of the story counts the hypercubes already sitting
inside R_n: h(n, k) is the number of intervals of the subcube order that
are k-dimensional boxes, h(n, 0) counts vertices and h(n, 1) edges, and
the bivariate GF of the h(n, k) has a short rational closed form that is
checked against brute-force interval counting.
"""

from dataclasses import dataclass

import numpy as np

from . import graph, strings
from .errors import StructureError, ValidationError
from .polyseries import RationalGF, Ring
from .report import Report

CUBE_RING = Ring(("x",))

DILATION_PREFIX = {1: 2, 2: 4, 3: 4, 4: 6}

SMALLEST_HOST_PREFIX = {1: 1, 2: 3, 3: 6, 4: 8, 5: 11, 6: 13, 7: 16, 8: 18}

ENCODING_TABLE_N3 = {
    "000": "0111000000",
    "001": "0110001000",
    "010": "0100100100",
    "100": "1001100000",
    "011": "0100110000",
    "101": "1001001000",
    "110": "1100010000",
    "111": "1110000000",
}


@dataclass
class EncodingResult:
    """A hypercube vertex, its padded image, and the host vertex label."""

    source: str
    image: str
    label: str
    host_dim: int

    def to_json_dict(self):
        return {
            "source": self.source,
            "image": self.image,
            "label": self.label,
            "host_dim": self.host_dim,
        }


def _runs(word):
    """Run-length pairs (char, length) from left to right."""
    out = []
    for ch in word:
        if out and out[-1][0] == ch:
            out[-1][1] += 1
        else:
            out.append([ch, 1])
    return [(ch, ln) for ch, ln in out]


def encode(word):
    """Map a binary word of length n to its vertex in R_(3n-1)."""
    if not word:
        raise ValidationError("cannot encode the empty word")
    for i, ch in enumerate(word):
        if ch not in "01":
            raise ValidationError("binary words only, found %r" % ch, position=i)
    n = len(word)
    runs = _runs(word)
    pieces = []
    if runs[0][0] == "0":
        pieces.append("0")
    for _, ln in runs:
        pieces.append(strings.letter(ln))
    image = "".join(pieces)
    image = image + "0" * (3 * n + 1 - len(image))
    label = image[: 3 * n - 1]
    if not strings.is_run_constrained(image):
        raise StructureError("image %s of %s is not run-constrained" % (image, word))
    return EncodingResult(word, image, label, 3 * n - 1)


def encoding_check(n_max=5):
    """Validity, injectivity, and the printed length-3 table."""
    report = Report("hypercube encoding")
    for n in range(1, n_max + 1):
        g = graph.build(3 * n - 1)
        labels = set()
        ok = True
        detail = ""
        for v in range(1 << n):
            word = format(v, "0%db" % n)
            res = encode(word)
            if len(res.image) != 3 * n + 1 or not res.image.endswith("00"):
                ok = False
                detail = "image of %s has the wrong shape" % word
                break
            try:
                g.index_of(res.label)
            except Exception:
                ok = False
                detail = "image of %s is not a vertex" % word
                break
            labels.add(res.label)
        if ok and len(labels) != 1 << n:
            ok = False
            detail = "encoder is not injective on length %d" % n
        report.add("encoder maps Q_%d into R_%d" % (n, 3 * n - 1), ok, detail)
    got = {w: encode(w).image for w in ENCODING_TABLE_N3}
    report.expect_equal("printed image table for n = 3", got, ENCODING_TABLE_N3)
    return report


@dataclass
class DilationResult:
    """Largest host distance over the images of hypercube edges."""

    n: int
    host_dim: int
    dilation: int
    worst_edge: tuple

    def to_json_dict(self):
        return {
            "n": self.n,
            "host_dim": self.host_dim,
            "dilation": self.dilation,
            "worst_edge": list(self.worst_edge),
        }


def dilation(n, cap=None):
    """Exact dilation of the encoder on Q_n, by host BFS from every image.

    The images run through the bit-parallel BFS 64 at a time.  For image v
    and each bit it lacks, the distance to the image of v | 1 << bit is the
    level at which that target first shows v's bit.  The worst edge is the
    first maximum with v ascending, then bit ascending.
    """
    if n < 1:
        raise ValidationError("n must be positive")
    g = graph.build(3 * n - 1, cap=cap)
    words = [format(v, "0%db" % n) for v in range(1 << n)]
    image = np.array([g.index_of(encode(word).label) for word in words], dtype=np.int64)
    # dist[v, bit] = host distance from image v to image v | 1 << bit; it
    # stays -1 where v has the bit, since then the target is v's own image
    dist = np.full((1 << n, n), -1, dtype=np.int64)
    bit = np.arange(n)
    for lo in range(0, 1 << n, graph.BFS_WIDTH):
        hi = min(lo + graph.BFS_WIDTH, 1 << n)
        v = np.arange(lo, hi)[:, None]
        targets = image[v | 1 << bit]
        own = (v - lo).astype(np.uint64)
        block = dist[lo:hi]
        for d, new in enumerate(graph.bfs_levels(g, image[lo:hi]), start=1):
            block[(new[targets] >> own) & np.uint64(1) == 1] = d
    v, b = divmod(int(dist.argmax()), n)
    return DilationResult(n, 3 * n - 1, int(dist[v, b]), (words[v], words[v | 1 << b]))


def dilation_check(n_max=4):
    """Regression on the measured dilations (2, 4, 4, 6 for n = 1..4)."""
    report = Report("encoder dilation")
    for n in range(1, n_max + 1):
        if n not in DILATION_PREFIX:
            break
        res = dilation(n)
        report.expect_equal(
            "dilation on Q_%d (host R_%d)" % (n, res.host_dim),
            res.dilation,
            DILATION_PREFIX[n],
        )
    return report


def cube_gf():
    """Closed form for sum_(n,k) h(n,k) x^k t^n, h = induced cube counts."""
    x = CUBE_RING.var("x")
    num = {
        1: 2 + x,
        2: x + 1,
        3: x * (x + 2),
        4: x * (x + 1),
        5: x * (x + 1),
    }
    den = {0: 1, 1: -1, 2: -1, 3: -x, 5: -x * (x + 1)}
    return RationalGF(CUBE_RING, num, den)


def cube_gf_check(order=24, brute_max=10):
    """Cube-count GF vs brute interval counts, vertices, and edges."""
    report = Report("induced-cube counts")
    series = cube_gf().expand(order)
    for n in range(1, min(brute_max, order) + 1):
        brute = graph.count_induced_cubes(n)
        poly = series.coefficient(n)
        got = [poly.coefficient("x", k).constant_term() for k in range(len(brute))]
        if got != brute or poly.degree("x") >= len(brute):
            report.add(
                "GF matches brute cube counts through n=%d" % min(brute_max, order),
                False,
                "mismatch at n=%d: %s vs %s" % (n, got, brute),
            )
            break
    else:
        report.add(
            "GF matches brute cube counts through n=%d" % min(brute_max, order), True
        )
    ok = True
    for n in range(1, order + 1):
        poly = series.coefficient(n)
        if poly.coefficient("x", 0).constant_term() != strings.fibonacci(n + 2):
            report.add("x^0 coefficients count vertices", False, "fails at n=%d" % n)
            ok = False
            break
    if ok:
        report.add("x^0 coefficients count vertices", True)
    edges = [
        series.coefficient(n).coefficient("x", 1).constant_term()
        for n in range(1, min(order, 13) + 1)
    ]
    want = [graph.edge_count(n) for n in range(1, min(order, 13) + 1)]
    report.expect_equal("x^1 coefficients count edges", edges, want)
    return report


@dataclass
class HostRecord:
    """First host size containing a k-cube, next to the conjectured value."""

    n: int
    smallest_host: int
    conjectured: int

    def to_json_dict(self):
        return {
            "n": self.n,
            "smallest_host": self.smallest_host,
            "conjectured": self.conjectured,
        }


def smallest_host_probe(n_max=8, order=None):
    """m(n) = least m with an induced Q_n inside R_m, read off the GF.

    The order must reach past ceil((5 n_max - 4)/2) or the column scan
    cannot terminate; the default leaves comfortable slack.
    """
    if order is None:
        order = (5 * n_max) // 2 + 6
    series = cube_gf().expand(order)
    records = []
    for n in range(1, n_max + 1):
        found = None
        for m in range(1, order + 1):
            if series.coefficient(m).coefficient("x", n).constant_term() > 0:
                found = m
                break
        if found is None:
            raise ValidationError(
                "no Q_%d found through order %d, raise the order" % (n, order)
            )
        records.append(HostRecord(n, found, (5 * n - 4 + 1) // 2))
    return records


def host_check(n_max=8, brute_max=4):
    """Smallest-host values vs the conjectured ceiling and brute counts."""
    report = Report("smallest hosts")
    records = smallest_host_probe(n_max)
    got = {r.n: r.smallest_host for r in records}
    report.expect_equal(
        "GF smallest hosts for n <= %d" % min(n_max, 8),
        {n: got[n] for n in sorted(got) if n <= 8},
        {n: m for n, m in SMALLEST_HOST_PREFIX.items() if n <= n_max},
    )
    report.add(
        "values match ceil((5n-4)/2) for n <= %d" % n_max,
        all(r.smallest_host == r.conjectured for r in records),
        "; ".join(
            "m(%d)=%d vs %d" % (r.n, r.smallest_host, r.conjectured)
            for r in records
            if r.smallest_host != r.conjectured
        ),
    )
    for n in range(1, brute_max + 1):
        m = SMALLEST_HOST_PREFIX[n]
        below = all(
            len(graph.count_induced_cubes(mm)) <= n
            or graph.count_induced_cubes(mm)[n] == 0
            for mm in range(1, m)
        )
        at = len(graph.count_induced_cubes(m)) > n and graph.count_induced_cubes(m)[n] > 0
        report.add("brute confirmation of m(%d) = %d" % (n, m), below and at)
    return report


def suite(max_n=4, order=24):
    return [
        encoding_check(n_max=max(max_n, 3)),
        dilation_check(n_max=max_n),
        cube_gf_check(order=order),
        host_check(),
    ]
