"""Fibonacci-run graphs: construction, degrees, distances, cube counts.

The graph R_n has one vertex per run-constrained string of length n+2;
since every such string ends in 00, vertices are labeled by the first n
characters.  Two vertices are adjacent when their labels differ in a
single bit (validity of a flip is always decided on the full string,
label + "00").  |V(R_n)| is the Fibonacci number f_{n+2}.

Vertex labels are kept as sorted int64 bitmasks (most significant bit =
first character).  Whether a flipped label is a vertex, and where it sits
among the sorted labels, is read off two-level rank tables over the run
rule (`_rank_tables`), two gathers and an add per probe.  One kernel,
`_flip_scan`, makes those passes for a `FibRunGraph`'s degrees and
adjacency (and `poset`'s reachability), for the brute census
`degree_census`, and for `_maximal_by_flip_scan`, the oracle of
`maximal_vertices`.  For the adjacency it writes each label's neighbour
across each bit, -1 for none; one in-place sort per vertex row then puts
the CSR adjacency lists in ascending order.  `build` makes only the
labels; the graph scans on the first read of its degrees or adjacency.

Distances come from one bit-parallel, direction-optimizing BFS kernel,
`bfs_levels`; `bfs_distances`, `eccentricity`, `diameter`, `radius` and
`embedding.dilation` all read their answers off its levels.

`census --n N` does not scan at all: `transfer_census` reads the census
off a finite automaton over runs (the transfer-matrix method, Stanley,
Enumerative Combinatorics 1, section 4.7).  Write a run-constrained
string as a leading run 0^z0 followed by blocks 1^r 0^(r+1+s), r >= 1,
slack s >= 0.  Its flip degrees are then

    down:  d per block with r = 1, d^2 per block with r >= 2;
    up:    u^max(0, z0-2) from the leading run, u^max(0, s-1) from each
           block's zero run, and one more u for each pair of adjacent zero
           runs that both have slack >= 1 (for the leading run: z0 >= 1).

`RUN_ARCS` states the automaton these rules give; `_transfer_pass` runs
it on Kronecker-packed ints (`polyseries._Layout`).

The same rule gives the maximal vertices, those with up-degree 0, without
a scan: the leading run has z0 <= 2, every block has slack s <= 1, and no
two adjacent zero runs both have slack 1 (the leading run counting as
slack 1 when z0 >= 1).  `maximal_vertices` builds exactly those strings,
bottom up like `strings.rc_masks`, so its work grows with its output.
"""

from collections import Counter, deque
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from . import config
from .errors import DomainError, ResourceLimitError, StructureError, ValidationError
from .polyseries import _Layout
from .strings import (
    _require_int,
    _require_int64,
    fibonacci,
    mask_is_run_constrained,
    mask_to_word,
    rc_masks,
    word_to_mask,
)


def vertex_labels(n):
    """Sorted n-bit label masks of R_n (full strings with the 00 removed)."""
    _require_int(n, least=1)
    return rc_masks(n + 2) >> np.int64(2)


def _words(masks, n):
    """The n-character bit strings of an array of label masks."""
    fmt = "0%db" % n
    return [format(m, fmt) for m in masks.tolist()]


def _require_label(n, label):
    """The label mask of a vertex of R_n given as a label string or an int mask.

    Only ints and numpy integers are masks: a float, a bool or anything
    else is refused rather than truncated.
    """
    if isinstance(label, str):
        if len(label) != n:
            raise ValidationError(
                "label %r has length %d, expected %d" % (label, len(label), n)
            )
        mask = word_to_mask(label)
    elif isinstance(label, bool) or not isinstance(label, (int, np.integer)):
        raise ValidationError("label %r is not a string or an integer mask" % (label,))
    else:
        mask = int(label)
    if not 0 <= mask < 1 << n or not mask_is_run_constrained(mask << 2):
        raise ValidationError("%s is not a vertex of R_%d" % (label, n))
    return mask


def _vertex_total(n, cap, streaming=False):
    """f_(n+2), the vertex count of R_n, once n and the size cap allow it."""
    _require_int(n, least=1)
    total = fibonacci(n + 2)
    limit = config.stream_cap(cap) if streaming else config.vertex_cap(cap)
    if total > limit:
        raise ResourceLimitError(
            "R_%d has %d vertices, %s cap is %d"
            % (n, total, "streaming" if streaming else "explicit", limit)
        )
    return total


def _run_automaton(n):
    """Transitions delta[state, bit] of the run rule on strings of length n + 2.

    State 0 is dead, state 1 + k owes k more zeros (state 1 is free), and
    state K + 1 + r has an open run of r ones, for k, r <= K = n//2 + 1:
    a run of r ones needs r + 1 zeros after it, so no longer run fits.
    """
    K = n // 2 + 1
    delta = np.zeros((2 * K + 2, 2), dtype=np.intp)
    for k in range(K + 1):
        delta[1 + k] = (1 + max(k - 1, 0), K + 2 if k == 0 else 0)
    for r in range(1, K + 1):
        delta[K + 1 + r] = (1 + r, K + 2 + r if r < K else 0)
    return delta


def _index_type(n):
    """The dtype of R_n's vertex indices: int32 while it has fewer than 2^31 vertices."""
    return np.int32 if fibonacci(n + 2) < 2**31 else np.int64


def _rank_tables(n):
    """(first, offset, rank): R_n's label ranks, split at bit n//2.

    A label is a high half, its top n - n//2 bits, and a low half, its
    n//2 bits.  Indexed by the high half, `first` holds the index of the
    first label with that high half (-1 if none has it) and `offset` the
    run-automaton state after it, times 2^(n//2).  `rank[offset + low]` is
    the low half's rank among the completions valid from that state (-1 if
    the completion, with the trailing 00, breaks the run rule), so a label's
    index is first + rank.  That is 2^(n - n//2) entries per high table and
    (n + 4) 2^(n//2) in `rank`, one row per automaton state.  The rows are
    built a bit at a time: a state's completions one bit longer are those
    of its 0-successor followed by those of its 1-successor.
    """
    low = n // 2
    delta = _run_automaton(n)
    index = _index_type(n)
    highs = np.arange(1 << (n - low))
    state = np.ones(len(highs), dtype=np.intp)
    for j in range(n - low - 1, -1, -1):
        state = delta[state, (highs >> j) & 1]
    valid = (delta[delta[:, 0], 0] == 1)[:, None]
    for _ in range(low):
        valid = np.concatenate([valid[delta[:, 0]], valid[delta[:, 1]]], axis=1)
    rank = np.cumsum(valid, axis=1, dtype=index)
    count = rank[state, -1]
    first = np.where(count > 0, np.cumsum(count) - count, -1).astype(index)
    rank -= 1
    rank[~valid] = -1
    return first, (state << low).astype(index), rank.ravel()


def _flip_scan(chunk, n, table=None, bits=None):
    """uint8 (up, down) flip degrees of the labels in `chunk` within R_n.

    `chunk` is an ascending array of R_n's label masks.  Every mask is
    flipped at each of the n label bits (or only at `bits`) and looked up
    in the rank tables, built once per call by `_rank_tables`.  A flip
    inside the low half keeps the row and moves the column, one inside the
    high half moves the row.  A hit is a neighbour, counted as up when the
    bit was 0, which is when the neighbour's rank (low flips) or high half
    (high flips) is larger.  A `table` shaped (number of bits, len(chunk)) and
    dtype `_index_type(n)` gets, in row k, each label's neighbour's index in
    R_n across the k-th bit scanned, -1 where that flip leaves R_n.
    """
    first, offset, rank = _rank_tables(n)
    low = n // 2
    index = rank.dtype.type
    hi = (chunk >> low).astype(index)
    lo = (chunk & ((1 << low) - 1)).astype(index)
    here = offset.take(hi) | lo
    own = rank.take(here)
    base = first.take(hi)
    ups = np.zeros(len(chunk), dtype=np.uint8)
    degrees = np.zeros(len(chunk), dtype=np.uint8)
    for k, j in enumerate(range(n) if bits is None else bits):
        if j < low:
            top = hi
            r = rank.take(here ^ index(1 << j))
            up = r > own
        else:
            top = hi ^ index(1 << (j - low))
            r = rank.take(offset.take(top) | lo)
            up = top > hi
        member = r >= 0
        ups += member & up
        degrees += member
        if table is not None:
            np.add(base if j < low else first.take(top), r, out=table[k])
            table[k][~member] = -1
    return ups, degrees - ups


class FibRunGraph:
    """Explicit R_n: sorted labels, with degrees and CSR adjacency made on first read.

    The degrees come from a plain flip scan.  The CSR comes from a scan that
    fills a neighbour table, which also gives the degrees; so a caller that
    reads only counts never holds the table, and one that reads adjacency
    pays one scan.  Arrays passed in are used as they are.
    """

    def __init__(self, n, labels, indptr=None, indices=None, up_degrees=None, down_degrees=None):
        self.n = n
        self.labels = labels
        self._indptr = indptr
        self._indices = indices
        self._up_degrees = up_degrees
        self._down_degrees = down_degrees

    @property
    def indptr(self):
        return self._csr()[0]

    @property
    def indices(self):
        return self._csr()[1]

    @property
    def up_degrees(self):
        return self._degrees()[0]

    @property
    def down_degrees(self):
        return self._degrees()[1]

    def _degrees(self):
        if self._up_degrees is None:
            self._up_degrees, self._down_degrees = _flip_scan(self.labels, self.n)
        return self._up_degrees, self._down_degrees

    def _csr(self):
        """(indptr, indices), with the degrees, from one neighbour-table scan."""
        if self._indices is None:
            n, labels = self.n, self.labels
            table = np.empty((n, len(labels)), dtype=_index_type(n))
            ups, downs = _flip_scan(labels, n, table)
            indptr = np.zeros(len(labels) + 1, dtype=np.int64)
            np.cumsum(ups + downs, dtype=np.int64, out=indptr[1:])
            table = table.T  # one row per vertex, where the misses (-1) sort first
            table.sort(axis=1)
            indices = table[table >= 0]
            del table  # freed first, so the int64 copy is never made beside the table
            self._indptr, self._indices = indptr, indices.astype(np.int64)
            self._up_degrees, self._down_degrees = ups, downs
        return self._indptr, self._indices

    @property
    def vertex_count(self):
        return len(self.labels)

    @property
    def edge_count(self):
        # every edge is the up-flip of exactly one endpoint
        return int(self.up_degrees.sum(dtype=np.int64))

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
        rows = np.repeat(np.arange(self.vertex_count), np.diff(self.indptr))
        keep = rows < self.indices
        return list(zip(rows[keep].tolist(), self.indices[keep].tolist()))


def build(n, cap=None):
    """R_n with its labels, capped by the vertex limit; the rest is made on first read."""
    total = _vertex_total(n, cap)
    graph = FibRunGraph(n, vertex_labels(n))
    if graph.vertex_count != total:
        raise StructureError(
            "R_%d built with %d vertices, expected %d" % (n, graph.vertex_count, total)
        )
    return graph


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
    ups, downs = _flip_scan(labels[lo:hi], n)
    counts = np.bincount(ups.astype(np.int32) * 256 + downs)
    return {(int(v) >> 8, int(v) & 255): int(counts[v]) for v in np.flatnonzero(counts)}


CENSUS_CHUNK = 1_000_000


def degree_census(n, cap=None):
    """Stream the (up, down) census without building adjacency.

    The flip scan runs over chunks of CENSUS_CHUNK labels, which bounds its
    temporaries, and the partial censuses are merged by summation.
    """
    total = _vertex_total(n, cap, streaming=True)
    labels = vertex_labels(n)
    counts = {}
    for lo in range(0, len(labels), CENSUS_CHUNK):
        for key, c in _census_chunk(labels, lo, lo + CENSUS_CHUNK, n).items():
            counts[key] = counts.get(key, 0) + c
    census = DegreeCensus(n, counts)
    if census.vertex_total() != total:
        raise StructureError(
            "census of R_%d counts %d vertices, expected %d" % (n, census.vertex_total(), total)
        )
    return census


# a transfer census refuses to start when its packed states would need more
# bytes than this; the states grow about like n^3 bits
TRANSFER_MAX_BYTES = 1 << 28

# The run automaton of `transfer_census`: an arc (target, source, length,
# a, b) adds u^a d^b times the source's census at length k - length to the
# target's at length k, and R_n's census is F0 + F1 at length n + 2.  S is
# the empty string, worth 1 at length 0; Z a leading run z0 >= 2; F0 and F1
# end in a zero run of slack 0 or >= 1 (the leading run: z0 = 0 or >= 1);
# Q_f in a block with r >= 2, s = 0, and A0_f in any block with s = 0, after
# a zero run of class F_f; A1 in a block with s >= 1.  Arcs are listed by
# target; a length-0 arc reads an earlier state.
RUN_ARCS = (
    ("Z", "S", 2, 0, 0), ("Z", "Z", 1, 1, 0),
    ("Q0", "F0", 5, 0, 2), ("Q0", "Q0", 2, 0, 0),
    ("Q1", "F1", 5, 0, 2), ("Q1", "Q1", 2, 0, 0),
    ("A00", "F0", 3, 0, 1), ("A00", "Q0", 0, 0, 0),
    ("A01", "F1", 3, 0, 1), ("A01", "Q1", 0, 0, 0),
    ("A1", "A00", 1, 0, 0), ("A1", "A01", 1, 1, 0), ("A1", "A1", 1, 1, 0),
    ("F0", "S", 0, 0, 0), ("F0", "A00", 0, 0, 0), ("F0", "A01", 0, 0, 0),
    ("F1", "S", 1, 0, 0), ("F1", "Z", 0, 0, 0), ("F1", "A1", 0, 0, 0),
)


def _run_plan():
    """({state: lengths kept}, [(target, source, back, a, b)]) of RUN_ARCS.

    States run in table order, S first: at length k an arc reads its source
    `back` = length (+ 1 if the source ran first) places from its window's end.
    """
    order = list(dict.fromkeys(["S"] + [arc[0] for arc in RUN_ARCS]))
    arcs = [(t, s, n + (order.index(s) < order.index(t)), a, b) for t, s, n, a, b in RUN_ARCS]
    if any(arc[2] == 0 for arc in arcs):
        raise StructureError("RUN_ARCS has a length-0 arc from a later state")
    return {state: max([1] + [arc[2] for arc in arcs if arc[1] == state]) for state in order}, arcs


def _transfer_layout(n):
    """Packed layout of the automaton's states for R_n, size-checked.

    Slots are bounded by f_(n+2), since every state counts distinct strings
    of one length, up-degrees by n, and down-degrees by 2(n+2)/5, since a
    block of weight d^2 is at least 5 long and one of weight d at least 3.
    The check counts every packed int the pass keeps.
    """
    layout = _Layout([n, 2 * (n + 2) // 5], fibonacci(n + 2))
    need = sum(_run_plan()[0].values()) * layout.block * layout.width
    if need > TRANSFER_MAX_BYTES:
        raise ResourceLimitError(
            "transfer census of R_%d needs about %d bytes of packed states, cap is %d"
            % (n, need, TRANSFER_MAX_BYTES)
        )
    return layout


def _transfer_pass(layout, length):
    """Packed (F0, F1) at each length 0..length, running RUN_ARCS.

    A target's arcs are grouped by the shift of u^a d^b, each group summed,
    then shifted once; an int shifted by 0 is a copy, so that group is not.
    """
    depth, arcs = _run_plan()
    windows = {state: deque([0] * keep, maxlen=keep) for state, keep in depth.items()}
    reads = {}  # target: {shift: [(source window, index)]}
    for target, source, back, a, b in arcs:
        shift = 8 * layout.width * layout.offset((a, b))
        reads.setdefault(target, {}).setdefault(shift, []).append((windows[source], -back))
    steps = [(windows[t].append, g.pop(0, []), list(g.items())) for t, g in reads.items()]
    start, f0, f1 = windows["S"], windows["F0"], windows["F1"]
    for k in range(length + 1):
        start.append(int(k == 0))
        for push, plain, shifted in steps:
            parts = [w[i] for w, i in plain]
            parts += [reduce(add, [w[i] for w, i in group]) << s for s, group in shifted]
            push(reduce(add, parts))
        yield f0[-1], f1[-1]


def transfer_census(n, cap=None):
    """The (up, down) census of R_n from the run-level transfer automaton.

    Same result and caps as `degree_census`, without a scan: one pass of
    RUN_ARCS over lengths 0..n+2 on packed states.
    """
    total = _vertex_total(n, cap, streaming=True)
    layout = _transfer_layout(n)
    f0, f1 = deque(_transfer_pass(layout, n + 2), maxlen=1)[0]
    census = DegreeCensus(n, layout.unpack(f0 + f1))
    if census.vertex_total() != total:
        raise StructureError(
            "transfer census of R_%d counts %d vertices, expected %d"
            % (n, census.vertex_total(), total)
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

# a level pushes from its frontier rows while they are fewer than
# 1 / PUSH_SHARE of the vertices, and pulls over the whole CSR otherwise
PUSH_SHARE = 4


def _source_index(graph, source):
    """A vertex index, or a label string resolved via index_of, range-checked.

    Only ints and numpy integers are indices: a float, a bool or anything
    else is refused rather than truncated.
    """
    if isinstance(source, str):
        source = graph.index_of(source)
    elif isinstance(source, bool) or not isinstance(source, (int, np.integer)):
        raise ValidationError("BFS source %r is not a vertex index or a label" % (source,))
    source = int(source)
    if source < 0 or source >= graph.vertex_count:
        raise ValidationError("vertex index %d out of range" % source)
    return source


def bfs_levels(graph, sources):
    """Bit-parallel BFS from up to 64 sources at once, one level per step.

    After Then et al., "The More the Merrier: Efficient Multi-Source Graph
    Traversal" (VLDB 2014), vertex v holds one uint64 word whose bit s is
    set once sources[s] has reached v.  Each level is direction-optimizing,
    after Beamer, Asanovic and Patterson, "Direction-optimizing
    breadth-first search" (SC 2012).  While the frontier has fewer than
    1/PUSH_SHARE of the vertices, a push step reads the CSR arcs of the
    frontier rows only and ORs their words into the targets.  Otherwise a
    pull step gathers the frontier words over every arc and ORs them per row
    with one reduceat.  Either way, the bits a vertex did not have before
    are the next frontier.  Yields, for d = 1, 2, ..., the uint64 array of
    bits newly set at distance d, so the number of levels is the largest
    eccentricity among the sources.  After the last level, raises
    StructureError if some source did not reach every vertex.
    """
    sources = [_source_index(graph, s) for s in sources]
    k = len(sources)
    if not 1 <= k <= BFS_WIDTH:
        raise ValidationError("bfs_levels takes 1 to %d sources, got %d" % (BFS_WIDTH, k))
    nv = graph.vertex_count
    indptr, indices = graph.indptr, graph.indices
    bits = np.uint64(1) << np.arange(k, dtype=np.uint64)
    seen = np.zeros(nv, dtype=np.uint64)
    np.bitwise_or.at(seen, sources, bits)
    degree = indptr[1:] - indptr[:-1]
    # reduceat would give a zero-degree row the next row's first arc (and
    # fail on a trailing one), so only rows with arcs are reduced
    has_arcs = degree > 0
    starts = indptr[:-1][has_arcs]
    frontier = seen.copy()
    rows = seen.nonzero()[0]
    while starts.size:
        reached = np.zeros(nv, dtype=np.uint64)
        if rows.size * PUSH_SHARE < nv:
            first = indptr[rows]
            counts = degree[rows]
            ends = counts.cumsum()
            # the arcs of each frontier row, laid end to end
            targets = indices[(first - ends + counts).repeat(counts) + np.arange(ends[-1])]
            if k == 1:  # every frontier word is 1
                reached[targets] = 1
            else:
                np.bitwise_or.at(reached, targets, frontier[rows].repeat(counts))
        else:
            reached[has_arcs] = np.bitwise_or.reduceat(frontier[indices], starts)
        frontier = reached & ~seen
        rows = frontier.nonzero()[0]
        if not rows.size:
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
    """Largest BFS distance from one source: the number of levels of `bfs_levels`.

    The source is a vertex index, or a label string resolved via index_of;
    raises StructureError if the graph is disconnected.
    """
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


def _maximal_masks(length):
    """Ascending masks of the run-constrained strings of a length with no up-flip.

    tail[L][f] holds the block sequences of length L that may follow a zero
    run of slack class f (0, or 1 for slack >= 1), ascending.  A block
    1^r 0^(r+1+s) has s <= 1, and s = 0 after slack class 1; its masks
    grow with r and, at one r, s = 1 puts a 0 where s = 0 has the next
    block's leading 1.  So blocks emitted by r ascending, then s descending,
    give ascending masks, as do leading runs z0 = 2, 1, 0 in front.
    """
    _require_int64(length)
    empty = np.zeros(0, dtype=np.int64)
    tail = [[np.zeros(1, dtype=np.int64)] * 2]
    for L in range(1, length + 1):
        row = []
        for f in (0, 1):
            parts = []
            for r in range(1, (L - 1) // 2 + 1):
                for s in (0,) if f else (1, 0):
                    rest = L - 2 * r - 1 - s
                    if rest >= 0:
                        head = ((1 << r) - 1) << (r + 1 + s + rest)
                        parts.append(np.int64(head) + tail[rest][s])
            row.append(np.concatenate(parts) if parts else empty)
        tail.append(row)
    return np.concatenate([tail[length - z0][min(z0, 1)] for z0 in (2, 1, 0) if z0 <= length])


def maximal_vertices(n, cap=None):
    """Labels with up-degree zero, ascending (the poset's maximal elements).

    Enumerated from the run rule in the module docstring, without a scan;
    R_n must still fit the streaming cap, as it did for the flip scan.
    """
    _vertex_total(n, cap, streaming=True)
    return _words(_maximal_masks(n + 2) >> np.int64(2), n)


def _maximal_by_flip_scan(n, cap=None):
    """maximal_vertices by a flip scan of all of R_n: the brute oracle."""
    _vertex_total(n, cap, streaming=True)
    labels = vertex_labels(n)
    ups, _ = _flip_scan(labels, n)
    return _words(labels[ups == 0], n)


def count_induced_cubes(n, cap=None):
    """h[k] = number of interval subcubes of dimension k, k = 0..ceil(n/2).

    An interval subcube is a vertex pair u <= v (as bitmasks) such that
    every bitmask between them is also a vertex; those 2^k masks induce a
    k-dimensional hypercube.  Enumeration walks submasks of each vertex,
    roughly sum(3^weight(v)) work, so it is capped well below census sizes.
    """
    _vertex_total(n, cap)
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
            diff = sub = v ^ u
            while (u | sub) in members:
                if sub == 0:
                    h[diff.bit_count()] += 1
                    break
                sub = (sub - 1) & diff
            if u == 0:
                break
            u = (u - 1) & v
    keep = (n + 1) // 2 + 1
    while len(h) > keep and h[-1] == 0:
        h.pop()
    return h


def to_dot(graph):
    """DOT text for the undirected graph, labels as bit strings."""
    words = _words(graph.labels, graph.n)
    lines = ["graph R_%d {" % graph.n]
    lines.extend('  "%s";' % w for w in words)
    lines.extend('  "%s" -- "%s";' % (words[i], words[j]) for i, j in graph.edges())
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_json(graph):
    edges = [[i, j] for i, j in graph.edges()]  # first, so one scan gives the degrees too
    degrees = Counter(zip(graph.up_degrees.tolist(), graph.down_degrees.tolist()))
    return {
        "n": graph.n,
        "vertices": _words(graph.labels, graph.n),
        "edges": edges,
        "census": DegreeCensus(graph.n, degrees).to_json_dict()["counts"],
    }
