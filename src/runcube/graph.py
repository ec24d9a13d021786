"""Fibonacci-run graphs: construction, degrees, distances, cube counts.

The graph R_n has one vertex per run-constrained string of length n+2;
since every such string ends in 00, vertices are labeled by the first n
characters.  Two vertices are adjacent when their labels differ in a
single bit (validity of a flip is always decided on the full string,
label + "00").  |V(R_n)| is the Fibonacci number f_{n+2}.

Vertex labels are kept as sorted int64 bitmasks (most significant bit =
first character), which lets adjacency and degree scans run as vectorized
flip-and-binary-search passes instead of pairwise comparisons.

Distances come from one bit-parallel BFS kernel, `bfs_levels`, after
Then et al., "The More the Merrier: Efficient Multi-Source Graph
Traversal" (VLDB 2014): up to 64 sources advance together, each vertex
holding a uint64 word of the sources that have reached it, and each level
is a single gather and per-row OR over the CSR arrays.  `bfs_distances`,
`eccentricity`, `diameter`, `radius` and `embedding.dilation` all read
their answers off its levels.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import config
from .errors import DomainError, ResourceLimitError, StructureError, ValidationError
from .strings import fibonacci, is_run_constrained, mask_to_word, word_to_mask


def rc_masks(length):
    """Sorted int64 masks of all run-constrained strings of a length.

    Built bottom up: level L is level L-1 behind a leading zero, then each
    letter 1^r 0^(r+1) in front of level L-2r-1.  Prefixes are emitted in
    increasing numeric order, so the result is ascending without a sort.
    """
    if length < 0:
        raise DomainError("length must be nonnegative")
    levels = [np.zeros(1, dtype=np.int64)]
    for L in range(1, length + 1):
        parts = [levels[L - 1]]
        r = 1
        while 2 * r + 1 <= L:
            head = np.int64(((1 << r) - 1) << (r + 1))
            shift = L - 2 * r - 1
            parts.append((head << np.int64(shift)) + levels[shift])
            r += 1
        levels.append(np.concatenate(parts))
    return levels[length]


def vertex_labels(n):
    """Sorted n-bit label masks of R_n (full strings with the 00 removed)."""
    if n < 1:
        raise DomainError("n must be at least 1")
    return rc_masks(n + 2) >> np.int64(2)


def _require_label(n, label):
    """Normalize a label given as string or int, validating vertex-hood."""
    if isinstance(label, str):
        if len(label) != n:
            raise ValidationError(
                "label %r has length %d, expected %d" % (label, len(label), n)
            )
        mask = word_to_mask(label)
        word = label
    else:
        mask = int(label)
        try:
            word = mask_to_word(mask, n)
        except DomainError:
            raise ValidationError("mask %d does not fit a length-%d label" % (mask, n))
    if not is_run_constrained(word + "00"):
        raise ValidationError("%s is not a vertex of R_%d" % (word, n))
    return mask


class FibRunGraph:
    """Explicit R_n with sorted labels and CSR adjacency."""

    def __init__(self, n, labels, indptr, indices, up_degrees, down_degrees):
        self.n = n
        self.labels = labels
        self.indptr = indptr
        self.indices = indices
        self.up_degrees = up_degrees
        self.down_degrees = down_degrees

    @property
    def vertex_count(self):
        return len(self.labels)

    @property
    def edge_count(self):
        return len(self.indices) // 2

    def label_string(self, i):
        return mask_to_word(int(self.labels[i]), self.n)

    def index_of(self, label):
        mask = _require_label(self.n, label)
        i = int(np.searchsorted(self.labels, mask))
        if i >= len(self.labels) or self.labels[i] != mask:
            raise ValidationError("label not found in R_%d" % self.n)
        return i

    def neighbors(self, i):
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def degree(self, i):
        return int(self.indptr[i + 1] - self.indptr[i])

    def edges(self):
        """Sorted (i, j) pairs with i < j, each edge once."""
        out = []
        for i in range(self.vertex_count):
            for j in self.neighbors(i):
                if i < j:
                    out.append((i, int(j)))
        return out


def build(n, cap=None):
    """Materialize R_n explicitly; capped by the vertex limit."""
    if n < 1:
        raise DomainError("n must be at least 1")
    total = fibonacci(n + 2)
    limit = config.vertex_cap(cap)
    if total > limit:
        raise ResourceLimitError(
            "R_%d has %d vertices, explicit cap is %d" % (n, total, limit)
        )
    labels = vertex_labels(n)
    nv = len(labels)
    ups = np.zeros(nv, dtype=np.uint8)
    downs = np.zeros(nv, dtype=np.uint8)
    srcs = []
    dsts = []
    for j in range(n):
        bit = np.int64(1) << np.int64(j)
        flipped = labels ^ bit
        pos = np.searchsorted(labels, flipped)
        pos[pos >= nv] = 0
        member = labels[pos] == flipped
        was_zero = (labels & bit) == 0
        ups += (member & was_zero).astype(np.uint8)
        downs += (member & ~was_zero).astype(np.uint8)
        idx = np.nonzero(member)[0]
        srcs.append(idx)
        dsts.append(pos[idx])
    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    order = np.lexsort((dst, src))
    src = src[order]
    dst = dst[order]
    indptr = np.zeros(nv + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    indptr = np.cumsum(indptr)
    graph = FibRunGraph(n, labels, indptr, dst.astype(np.int64), ups, downs)
    if graph.vertex_count != total:
        raise StructureError(
            "R_%d built with %d vertices, expected %d" % (n, graph.vertex_count, total)
        )
    return graph


def vertex_degrees(n, label):
    """(up, down) flip degrees of one vertex, validated on the full string."""
    mask = _require_label(n, label)
    word = mask_to_word(mask, n)
    up = down = 0
    chars = list(word + "00")
    for i in range(n):
        ch = chars[i]
        chars[i] = "1" if ch == "0" else "0"
        if is_run_constrained("".join(chars)):
            if ch == "0":
                up += 1
            else:
                down += 1
        chars[i] = ch
    return up, down


@dataclass
class DegreeCensus:
    """Counts of vertices by (up_degree, down_degree)."""

    n: int
    counts: dict

    def vertex_total(self):
        return sum(self.counts.values())

    def edge_total(self):
        # each edge is the down-flip of exactly one endpoint
        return sum(b * c for (_, b), c in self.counts.items())

    def sorted_items(self):
        return sorted(self.counts.items())

    def to_json_dict(self):
        return {
            "n": self.n,
            "counts": [[a, b, c] for (a, b), c in self.sorted_items()],
            "vertices": self.vertex_total(),
            "edges": self.edge_total(),
        }


def _census_chunk(labels, lo, hi, n):
    nv = len(labels)
    chunk = labels[lo:hi]
    ups = np.zeros(len(chunk), dtype=np.uint8)
    downs = np.zeros(len(chunk), dtype=np.uint8)
    for j in range(n):
        bit = np.int64(1) << np.int64(j)
        flipped = chunk ^ bit
        pos = np.searchsorted(labels, flipped)
        pos[pos >= nv] = 0
        member = labels[pos] == flipped
        was_zero = (chunk & bit) == 0
        ups += (member & was_zero).astype(np.uint8)
        downs += (member & ~was_zero).astype(np.uint8)
    code = ups.astype(np.int32) * 256 + downs
    vals, cnts = np.unique(code, return_counts=True)
    return {(int(v) >> 8, int(v) & 255): int(c) for v, c in zip(vals, cnts)}


def degree_census(n, cap=None, shards=None, threads=None):
    """Stream the (up, down) census without building adjacency.

    The label array is split into contiguous shards whose partial censuses
    are merged by summation, so the result does not depend on shard count
    or thread scheduling.
    """
    if n < 1:
        raise DomainError("n must be at least 1")
    total = fibonacci(n + 2)
    limit = config.stream_cap(cap)
    if total > limit:
        raise ResourceLimitError(
            "R_%d has %d vertices, streaming cap is %d" % (n, total, limit)
        )
    labels = vertex_labels(n)
    nv = len(labels)
    if shards is None:
        shards = max(1, nv // 1_000_000)
    shards = max(1, min(int(shards), nv))
    bounds = [(nv * s) // shards for s in range(shards + 1)]
    jobs = [(bounds[s], bounds[s + 1]) for s in range(shards)]
    workers = config.thread_count(threads)
    if workers > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(lambda lohi: _census_chunk(labels, lohi[0], lohi[1], n), jobs))
    else:
        partials = [_census_chunk(labels, lo, hi, n) for lo, hi in jobs]
    counts = {}
    for part in partials:
        for key, c in part.items():
            counts[key] = counts.get(key, 0) + c
    census = DegreeCensus(n, counts)
    if census.vertex_total() != total:
        raise StructureError(
            "census of R_%d counts %d vertices, expected %d" % (n, census.vertex_total(), total)
        )
    return census


def edge_count(n, cap=None):
    """Number of edges of R_n, from the streamed census."""
    return degree_census(n, cap=cap).edge_total()


def closed_form_edge_count(n):
    """(3n+4) f_{n-6} + (5n+6) f_{n-5}, valid for n >= 5 (f_{-1} = 1)."""
    if n < 5:
        raise DomainError("closed form requires n >= 5")
    return (3 * n + 4) * fibonacci(n - 6) + (5 * n + 6) * fibonacci(n - 5)


BFS_WIDTH = 64


def _source_index(graph, source):
    """A vertex index, or a label string resolved via index_of, range-checked."""
    if isinstance(source, str):
        source = graph.index_of(source)
    source = int(source)
    if source < 0 or source >= graph.vertex_count:
        raise ValidationError("vertex index %d out of range" % source)
    return source


def bfs_levels(graph, sources):
    """Bit-parallel BFS from up to 64 sources at once, one level per step.

    Vertex v holds one uint64 word whose bit s is set once sources[s] has
    reached v.  Each level gathers the frontier words over the CSR arcs and
    ORs them per row with one reduceat; the bits a vertex did not have
    before are the next frontier.  Yields, for d = 1, 2, ..., the uint64
    array of bits newly set at distance d, so the number of levels is the
    largest eccentricity among the sources.  After the last level, raises
    StructureError if some source did not reach every vertex.
    """
    sources = [_source_index(graph, s) for s in sources]
    k = len(sources)
    if not 1 <= k <= BFS_WIDTH:
        raise ValidationError("bfs_levels takes 1 to %d sources, got %d" % (BFS_WIDTH, k))
    nv = graph.vertex_count
    bits = np.uint64(1) << np.arange(k, dtype=np.uint64)
    seen = np.zeros(nv, dtype=np.uint64)
    np.bitwise_or.at(seen, sources, bits)
    # reduceat would give a zero-degree row the next row's first arc (and
    # fail on a trailing one), so only rows with arcs are reduced
    has_arcs = graph.indptr[1:] > graph.indptr[:-1]
    starts = graph.indptr[:-1][has_arcs]
    frontier = seen.copy()
    while starts.size:
        reached = np.zeros(nv, dtype=np.uint64)
        reached[has_arcs] = np.bitwise_or.reduceat(frontier[graph.indices], starts)
        frontier = reached & ~seen
        if not frontier.any():
            break
        seen |= frontier
        yield frontier
    full = np.uint64(2**k - 1)
    if (seen != full).any():
        lacking = int(np.bitwise_or.reduce(full & ~seen))
        s = (lacking & -lacking).bit_length() - 1
        count = int(((seen >> np.uint64(s)) & np.uint64(1)).sum())
        raise StructureError(
            "BFS from vertex %d reached %d of %d vertices" % (sources[s], count, nv)
        )


def bfs_distances(graph, source):
    """BFS distance array; raises StructureError if the graph is disconnected.

    The source is a vertex index, or a label string resolved via index_of.
    """
    source = _source_index(graph, source)
    dist = np.full(graph.vertex_count, -1, dtype=np.int64)
    dist[source] = 0
    for d, new in enumerate(bfs_levels(graph, [source]), start=1):
        dist[new != 0] = d
    return dist


def eccentricity(graph, source):
    return sum(1 for _ in bfs_levels(graph, [source]))


def _eccentricities(graph):
    """Eccentricity of every vertex, one bit-parallel BFS per 64 sources."""
    nv = graph.vertex_count
    ecc = np.zeros(nv, dtype=np.int64)
    for lo in range(0, nv, BFS_WIDTH):
        hi = min(lo + BFS_WIDTH, nv)
        shifts = np.arange(hi - lo, dtype=np.uint64)
        for d, new in enumerate(bfs_levels(graph, range(lo, hi)), start=1):
            ecc[lo:hi][(np.bitwise_or.reduce(new) >> shifts) & np.uint64(1) != 0] = d
    return ecc


def diameter(graph):
    return int(_eccentricities(graph).max())


def radius(graph):
    return int(_eccentricities(graph).min())


def maximal_vertices(n, cap=None):
    """Labels with up-degree zero, ascending (the poset's maximal elements)."""
    if n < 1:
        raise DomainError("n must be at least 1")
    total = fibonacci(n + 2)
    limit = config.stream_cap(cap)
    if total > limit:
        raise ResourceLimitError(
            "R_%d has %d vertices, streaming cap is %d" % (n, total, limit)
        )
    labels = vertex_labels(n)
    nv = len(labels)
    has_up = np.zeros(nv, dtype=bool)
    for j in range(n):
        bit = np.int64(1) << np.int64(j)
        was_zero = (labels & bit) == 0
        flipped = labels ^ bit
        pos = np.searchsorted(labels, flipped)
        pos[pos >= nv] = 0
        member = labels[pos] == flipped
        has_up |= member & was_zero
    return [mask_to_word(int(m), n) for m in labels[~has_up]]


def count_induced_cubes(n, cap=None):
    """h[k] = number of interval subcubes of dimension k, k = 0..ceil(n/2).

    An interval subcube is a vertex pair u <= v (as bitmasks) such that
    every bitmask between them is also a vertex; those 2^k masks induce a
    k-dimensional hypercube.  Enumeration walks submasks of each vertex,
    roughly sum(3^weight(v)) work, so it is capped well below census sizes.
    """
    if n < 1:
        raise DomainError("n must be at least 1")
    total = fibonacci(n + 2)
    limit = config.vertex_cap(cap)
    if total > limit:
        raise ResourceLimitError(
            "R_%d has %d vertices, explicit cap is %d" % (n, total, limit)
        )
    labels = [int(v) for v in vertex_labels(n)]
    members = set(labels)
    work = sum(3 ** v.bit_count() for v in labels)
    stream_limit = config.stream_cap(None)
    if work > stream_limit:
        raise ResourceLimitError(
            "cube enumeration for n=%d needs about %d submask visits, cap is %d"
            % (n, work, stream_limit)
        )
    h = [0] * (n + 2)
    for v in labels:
        # lower corners u are submasks of v; the interval [u, v] is a cube
        # exactly when every mask between them is a vertex
        u = v
        while True:
            diff = v ^ u
            full = True
            sub = diff
            while True:
                if (u | sub) not in members:
                    full = False
                    break
                if sub == 0:
                    break
                sub = (sub - 1) & diff
            if full:
                h[diff.bit_count()] += 1
            if u == 0:
                break
            u = (u - 1) & v
    keep = (n + 1) // 2 + 1
    while len(h) > keep and h[-1] == 0:
        h.pop()
    return h


def to_dot(graph):
    """DOT text for the undirected graph, labels as bit strings."""
    lines = ["graph R_%d {" % graph.n]
    for i in range(graph.vertex_count):
        lines.append('  "%s";' % graph.label_string(i))
    for i, j in graph.edges():
        lines.append('  "%s" -- "%s";' % (graph.label_string(i), graph.label_string(j)))
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_json(graph):
    census = {}
    for a, b in zip(graph.up_degrees, graph.down_degrees):
        key = (int(a), int(b))
        census[key] = census.get(key, 0) + 1
    return {
        "n": graph.n,
        "vertices": [graph.label_string(i) for i in range(graph.vertex_count)],
        "edges": [[i, j] for i, j in graph.edges()],
        "census": [[a, b, c] for (a, b), c in sorted(census.items())],
    }
