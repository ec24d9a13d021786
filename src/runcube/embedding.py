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
from itertools import groupby

import numpy as np

from . import config, graph, strings
from .errors import DomainError, ResourceLimitError, StructureError, ValidationError
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


def encode(word):
    """Map a binary word of length n to its vertex in R_(3n-1)."""
    strings._check_binary(word)
    if not word:
        raise ValidationError("cannot encode the empty word")
    n = len(word)
    pieces = ["0"] if word[0] == "0" else []
    pieces += [strings.letter(len(list(run))) for _, run in groupby(word)]
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
        # the host is refused over the vertex cap as build refuses it, but not built
        graph._vertex_total(3 * n - 1, None)
        labels = set()
        ok = True
        detail = ""
        for word in strings._words(np.arange(1 << n), n):
            res = encode(word)
            if len(res.image) != 3 * n + 1 or not res.image.endswith("00"):
                ok = False
                detail = "image of %s has the wrong shape" % word
                break
            try:
                graph._require_label(3 * n - 1, res.label)
            except ValidationError:
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


def dilation(n, cap=None):
    """Exact dilation of the encoder on Q_n, by host BFS from every image.

    The images run through the bit-parallel BFS 64 at a time.  For image v
    and each bit it lacks, the distance to the image of v | 1 << bit is the
    level at which that target first shows v's bit.  The worst edge is the
    first maximum with v ascending, then bit ascending.  Each pass may read
    every arc of the host, so the work is refused before the host is built
    when that many arc visits pass the streaming cap (R_2, the host of
    Q_1, needs no bound).
    """
    strings._require_int(n, least=1)
    graph._vertex_total(3 * n - 1, cap)
    if n > 1:
        work = -(-(1 << n) // graph.BFS_WIDTH) * 2 * graph.closed_form_edge_count(3 * n - 1)
        limit = config.stream_cap(None)
        if work > limit:
            raise ResourceLimitError(
                "dilation for n=%d needs about %d arc visits, cap is %d" % (n, work, limit)
            )
    g = graph.build(3 * n - 1, cap=cap)
    words = strings._words(np.arange(1 << n), n)
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
    top = min(brute_max, order)
    report.expect_series(
        "GF matches brute cube counts through n=%d" % top,
        series[1 : top + 1],
        [
            CUBE_RING.poly({(k,): h for k, h in enumerate(graph.count_induced_cubes(n))})
            for n in range(1, top + 1)
        ],
        start=1,
    )
    report.expect_series(
        "x^0 coefficients count vertices",
        [poly.coefficient("x", 0).constant_term() for poly in series[1:]],
        [strings.fibonacci(n + 2) for n in range(1, order + 1)],
        start=1,
    )
    report.expect_series(
        "x^1 coefficients count edges",
        [poly.coefficient("x", 1).constant_term() for poly in series[1:]],
        [graph.edge_count(n) for n in range(1, min(order, 13) + 1)],
        start=1,
    )
    return report


@dataclass
class HostRecord:
    """First host size containing a k-cube, next to the conjectured value."""

    n: int
    smallest_host: int
    conjectured: int


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
            if series[m].coefficient("x", n).constant_term() > 0:
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
    # brute confirmation reads m(n) from the printed table
    if not 0 <= brute_max <= max(SMALLEST_HOST_PREFIX):
        raise DomainError(
            "brute_max must be between 0 and %d, got %d" % (max(SMALLEST_HOST_PREFIX), brute_max)
        )
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
    # brute cube counts of R_1 .. R_m(brute_max), one count per graph
    last = SMALLEST_HOST_PREFIX.get(brute_max, 0)
    cubes = [graph.count_induced_cubes(m) for m in range(1, last + 1)]
    for n in range(1, brute_max + 1):
        m = SMALLEST_HOST_PREFIX[n]
        # whether R_1 .. R_m hold an induced Q_n: only R_m may
        hosts = [len(h) > n and h[n] > 0 for h in cubes[:m]]
        report.add(
            "brute confirmation of m(%d) = %d" % (n, m), hosts == [False] * (m - 1) + [True]
        )
    return report


def suite(max_n=None, order=None):
    """The embedding reports; None means max_n = 4 and order = 24."""
    max_n = 4 if max_n is None else max_n
    order = 24 if order is None else order
    return [
        encoding_check(n_max=max(max_n, 3)),
        dilation_check(n_max=max_n),
        cube_gf_check(order=order),
        host_check(),
    ]
