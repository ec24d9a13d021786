import random
import tracemalloc
from collections import deque
from itertools import combinations

import numpy as np
import pytest

from goldens import EDGE_COUNTS, R4_CENSUS
from runcube import cli, config, embedding, enumerators, graph, strings
from runcube.errors import DomainError, ResourceLimitError, StructureError, ValidationError
from runcube.polyseries import RationalGF


def hamming(a, b):
    return sum(x != y for x, y in zip(a, b))


@pytest.mark.parametrize("n", range(1, 11))
def test_adjacency_matches_pairwise_hamming(n):
    g = graph.build(n)
    labels = [g.label_string(i) for i in range(g.vertex_count)]
    assert len(labels) == strings.fibonacci(n + 2)
    want = {
        (i, j)
        for i, j in combinations(range(len(labels)), 2)
        if hamming(labels[i], labels[j]) == 1
    }
    assert set(g.edges()) == want


def test_edge_counts_frozen():
    for n, want in enumerate(EDGE_COUNTS, start=1):
        assert graph.edge_count(n) == want


def test_degree_census_r4():
    census = graph.degree_census(4)
    assert census.counts == R4_CENSUS
    assert census.vertex_total() == 8
    assert census.edge_total() == 10


def test_census_agrees_with_build():
    for n in range(1, 12):
        census = graph.degree_census(n)
        g = graph.build(n)
        assert census.vertex_total() == g.vertex_count
        assert census.edge_total() == g.edge_count
        brute = {}
        for i in range(g.vertex_count):
            key = (int(g.up_degrees[i]), int(g.down_degrees[i]))
            brute[key] = brute.get(key, 0) + 1
        assert census.counts == brute


def test_transfer_census_matches_the_flip_scan():
    for n in range(1, 25):
        assert graph.transfer_census(n).counts == graph.degree_census(n).counts


@pytest.mark.parametrize("chunk", [1, 7, 100])
def test_census_chunks_merge_to_the_transfer_census(monkeypatch, chunk):
    # CENSUS_CHUNK is 1M, above every size here, so only a small chunk merges partial censuses
    monkeypatch.setattr(graph, "CENSUS_CHUNK", chunk)
    for n in range(1, 15):
        assert graph.degree_census(n).counts == graph.transfer_census(n).counts


@pytest.mark.parametrize("n", range(1, 13))
def test_transfer_census_matches_string_flips(n):
    # independent of both the flip-scan kernel and the packed layout
    brute = {}
    for word in strings.enumerate_rc(n + 2):
        key = strings.flip_degrees(word)
        brute[key] = brute.get(key, 0) + 1
    assert graph.transfer_census(n).counts == brute


def test_transfer_census_matches_the_closed_form_to_150():
    closed = enumerators.updown_gf().expand(150)
    # one pass yields every length k, and length k holds the census of R_(k-2)
    layout = graph._transfer_layout(150)
    for k, (f0, f1) in enumerate(graph._transfer_pass(layout, 152)):
        if k >= 3:
            assert layout.unpack(f0 + f1) == closed[k - 2].terms, k - 2
    for n in (25, 60, 149, 150):
        census = graph.transfer_census(n, cap=strings.fibonacci(n + 2))
        assert census.counts == closed[n].terms, n


def solve_arcs(ring, arcs, start, order):
    """Each state's sum over paths from `start`, exactly, as a RationalGF.

    Each state X solves X = [X is start] + sum over its arcs (X, source,
    weight) of weight X_source.  Gauss-Jordan elimination in `order` (one
    geometric per self-loop) leaves every state a rational function, with
    no truncation.  The order sets only the cost.
    """
    rows = {state: {} for state in order}
    rows[start][None] = RationalGF(ring, {0: 1})
    for target, source, weight in arcs:
        row = rows[target]
        row[source] = row.get(source, 0) + weight
    for state in order:
        row = rows[state]
        if state in row:
            scale = row.pop(state).geometric()
            row = rows[state] = {key: value * scale for key, value in row.items()}
        for other in rows.values():
            if state in other:
                factor = other.pop(state)
                for key, value in row.items():
                    other[key] = other.get(key, 0) + factor * value
    return {state: row[None] for state, row in rows.items()}


def run_arcs_gf(ring, weight):
    """sum_k (F0[k] + F1[k]) t^k of graph.RUN_ARCS, in the table's order.

    An arc (target, source, length, a, b) weighs weight(a, b) t^length.
    """
    arcs = [
        (t, s, RationalGF(ring, {length: weight(a, b)})) for t, s, length, a, b in graph.RUN_ARCS
    ]
    order = list(dict.fromkeys(["S"] + [arc[0] for arc in graph.RUN_ARCS]))
    states = solve_arcs(ring, arcs, "S", order)
    return states["F0"] + states["F1"]


# the elimination order of the flip-step automaton: solving its states in
# table order takes seconds, this order milliseconds
FLIP_ORDER = ((0, 0), (1, 0), (2, 1), (2, 0), (1, 1), (0, 1))


def flip_steps_gf(ring, weight):
    """sum over all run-constrained strings of weight(up, down) t^length, from graph.FLIP_STEPS.

    Read as an automaton on the states (z0, f) from (0, 0), the empty
    string: a row (r, z0, f, a, b, z0', f') is an arc into (z0', f') of
    weight(a, b) times the letter's t^length, t for 0, t^3 for 100 and
    t^5 / (1 - t^2) for all the letters with r >= 2 together.
    """
    t = lambda k: RationalGF(ring, {k: 1})
    letters = {0: t(1), 1: t(3), 2: t(5) * t(2).geometric()}
    arcs = [
        ((z1, f1), (z0, f), letters[r] * RationalGF(ring, {0: weight(a, b)}))
        for r, z0, f, a, b, z1, f1 in graph.FLIP_STEPS
    ]
    return sum(solve_arcs(ring, arcs, (0, 0), FLIP_ORDER).values())


def updown_difference(table_gf=run_arcs_gf):
    """The table's GF minus 1 + t + t^2 + t^2 updown_gf().

    The strings of length 0, 1 and 2 come first, then R_n at t^(n+2).
    """
    ring = enumerators.UD
    table = table_gf(ring, lambda a, b: ring.monomial(1, u=a, d=b))
    lead = RationalGF(ring, {0: 1, 1: 1, 2: 1})
    return table - lead - RationalGF(ring, {2: 1}) * enumerators.updown_gf()


def maximal_difference(table_gf=run_arcs_gf):
    """As updown_difference at u := 0, d := 1, which keeps the strings with no up-flip."""
    ring = enumerators.SCALAR
    table = table_gf(ring, lambda a, b: int(a == 0))
    lead = RationalGF(ring, {0: 1, 1: 1, 2: 1})
    return table - lead - RationalGF(ring, {2: 1}) * enumerators.maximal_gf()


def test_run_arcs_solve_to_the_printed_closed_form():
    # polynomial identities in t, u and d, so they hold for every n
    assert updown_difference().num == {}
    assert maximal_difference().num == {}


def test_flip_steps_solve_to_the_printed_closed_form():
    # as for RUN_ARCS: every string's (up, down) from the table, for every n
    assert updown_difference(flip_steps_gf).num == {}
    assert maximal_difference(flip_steps_gf).num == {}


@pytest.mark.parametrize(
    "arc, mutant, maximal_differs",
    [
        (("Q0", "F0", 5, 0, 2), ("Q0", "F0", 5, 0, 1), False),
        (("A1", "A01", 1, 1, 0), ("A1", "A01", 1, 0, 0), True),
    ],
    ids=["d_for_d2", "u_dropped"],
)
def test_a_changed_arc_fails_the_identity_and_the_flip_scan(
    monkeypatch, arc, mutant, maximal_differs
):
    arcs = [mutant if a == arc else a for a in graph.RUN_ARCS]
    assert arcs.count(mutant) == 1
    monkeypatch.setattr(graph, "RUN_ARCS", tuple(arcs))
    assert updown_difference().num != {}
    # a change in a d power alone is invisible at u := 0, d := 1
    assert (maximal_difference().num != {}) == maximal_differs
    assert any(
        graph.transfer_census(n).counts != graph.degree_census(n).counts for n in range(1, 13)
    )


def test_run_arcs_refuse_a_length_0_arc_from_a_later_state(monkeypatch):
    monkeypatch.setattr(graph, "RUN_ARCS", graph.RUN_ARCS + (("Z", "F1", 0, 0, 0),))
    with pytest.raises(StructureError, match="later state"):
        graph.transfer_census(5)


def test_transfer_census_keeps_the_stream_cap(monkeypatch):
    for cap in (1000, None):
        with pytest.raises(ResourceLimitError) as scan:
            graph.degree_census(40, cap=cap)
        with pytest.raises(ResourceLimitError) as transfer:
            graph.transfer_census(40, cap=cap)
        assert str(transfer.value) == str(scan.value)
    # R_9 has f_11 = 89 vertices, R_8 has 55
    monkeypatch.setenv("RUNCUBE_STREAM_CAP", "88")
    with pytest.raises(ResourceLimitError, match="R_9 has 89 vertices, streaming cap is 88"):
        graph.transfer_census(9)
    assert graph.transfer_census(8).vertex_total() == 55


def test_transfer_census_refuses_oversized_states_before_the_pass(monkeypatch):
    monkeypatch.setattr(graph, "TRANSFER_MAX_BYTES", 1)
    with pytest.raises(ResourceLimitError, match="packed states") as exc:
        graph.transfer_census(30)
    need = int(str(exc.value).split("about ")[1].split(" bytes")[0])
    monkeypatch.setattr(graph, "TRANSFER_MAX_BYTES", need - 1)
    with pytest.raises(ResourceLimitError, match="packed states"):
        graph.transfer_census(30)
    monkeypatch.setattr(graph, "TRANSFER_MAX_BYTES", need)
    assert graph.transfer_census(30).vertex_total() == strings.fibonacci(32)


@pytest.mark.parametrize("n", range(1, 11))
def test_build_degrees_match_string_flips(n):
    # the string-level brute force is independent of the flip-scan kernel
    g = graph.build(n)
    for i in range(g.vertex_count):
        up, down = strings.flip_degrees(g.label_string(i) + "00")
        assert (int(g.up_degrees[i]), int(g.down_degrees[i])) == (up, down)


def test_masks_past_int64_are_refused(monkeypatch):
    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError("rc_masks reached numpy before checking the length")

    # the guard must fire before any array is allocated
    monkeypatch.setattr(strings, "np", NoNumpy())
    with pytest.raises(DomainError, match="int64"):
        graph.rc_masks(64)
    with pytest.raises(DomainError, match="int64"):
        graph.vertex_labels(62)
    with pytest.raises(DomainError, match="int64"):
        strings.enumerate_rc(64, cap=10**30)


def test_distances_and_eccentricity():
    g = graph.build(4)
    assert graph.eccentricity(g, "0000") == 2
    assert graph.diameter(graph.build(1)) == 1
    dist = graph.bfs_distances(g, "0000")
    assert int(dist[g.index_of("0000")]) == 0
    assert all(int(d) >= 0 for d in dist)


def oracle_distances(g, source):
    """Vertex-at-a-time BFS over the adjacency lists, the reference."""
    dist = [-1] * g.vertex_count
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in g.neighbors(v):
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(int(w))
    return dist


def level_distances(g, sources):
    """Per-source distance rows rebuilt from the bit-parallel levels."""
    dist = np.full((len(sources), g.vertex_count), -1, dtype=np.int64)
    dist[np.arange(len(sources)), sources] = 0
    for d, new in enumerate(graph.bfs_levels(g, sources), start=1):
        for s in range(len(sources)):
            dist[s, (new >> np.uint64(s)) & np.uint64(1) == 1] = d
    return dist


@pytest.mark.parametrize("n", range(1, 10))
def test_bfs_distances_match_oracle_from_every_source(n):
    g = graph.build(n)
    for s in range(g.vertex_count):
        dist = graph.bfs_distances(g, s)
        assert dist.dtype == np.int64
        assert dist.tolist() == oracle_distances(g, s)
        assert graph.eccentricity(g, s) == max(oracle_distances(g, s))


@pytest.mark.parametrize("n", [1, 5, 9, 10])
def test_bfs_levels_in_batches_of_64_match_oracle(n):
    g = graph.build(n)
    sources = list(range(g.vertex_count))[::-1]
    batches = [sources[lo:lo + 64] for lo in range(0, len(sources), 64)]
    if n == 10:
        assert g.vertex_count == 144 and len(batches) == 3
    for batch in batches:
        got = level_distances(g, batch)
        for row, s in zip(got, batch):
            assert row.tolist() == oracle_distances(g, s)


def test_bfs_levels_repeated_source_and_width_limit():
    g = graph.build(10)
    got = level_distances(g, [7, 7, 0])
    assert got[0].tolist() == got[1].tolist() == oracle_distances(g, 7)
    with pytest.raises(ValidationError):
        list(graph.bfs_levels(g, range(65)))
    with pytest.raises(ValidationError):
        list(graph.bfs_levels(g, []))


@pytest.mark.parametrize("k", [1, 2, 64])
def test_push_and_pull_levels_match_oracle(k):
    # 64 sources in all, in seeded batches of k; a level pushes from its
    # frontier rows while they are under 1/PUSH_SHARE of the vertices
    g = graph.build(14)
    nv = g.vertex_count
    rng = random.Random(k)
    mixed = 0
    for _ in range(64 // k):
        batch = rng.sample(range(nv), k)
        got = level_distances(g, batch)
        for row, s in zip(got, batch):
            assert row.tolist() == oracle_distances(g, s)
            assert graph.bfs_distances(g, s).tolist() == oracle_distances(g, s)
        # each step starts from the sources or from the level before it
        sizes = [k] + [int(np.count_nonzero(new)) for new in graph.bfs_levels(g, batch)]
        mixed += len({size * graph.PUSH_SHARE < nv for size in sizes}) == 2
    assert mixed > 0


@pytest.mark.parametrize("n", range(1, 11))
def test_diameter_and_radius_match_oracle(n):
    g = graph.build(n)
    ecc = [max(oracle_distances(g, s)) for s in range(g.vertex_count)]
    assert graph.diameter(g) == max(ecc)
    assert graph.radius(g) == min(ecc)


def hand_built(edges, nv):
    """A FibRunGraph over vertices 0..nv-1 with the given undirected edges."""
    rows = [[] for _ in range(nv)]
    for i, j in edges:
        rows[i].append(j)
        rows[j].append(i)
    indptr = np.cumsum([0] + [len(r) for r in rows]).astype(np.int64)
    indices = np.array([j for r in rows for j in sorted(r)], dtype=np.int64)
    zeros = np.zeros(nv, dtype=np.uint8)
    return graph.FibRunGraph(3, np.arange(nv, dtype=np.int64), indptr, indices, zeros, zeros)


@pytest.mark.parametrize(
    "edges, nv, source, reached",
    [
        ([(0, 1), (2, 3)], 4, 0, 2),  # two components
        ([(0, 1)], 3, 0, 2),  # trailing isolated vertex: its row starts at len(indices)
        ([(0, 2), (2, 3)], 4, 3, 3),  # isolated vertex between two rows with arcs
        ([(0, 2), (2, 3)], 4, 1, 1),  # BFS from the isolated vertex itself
    ],
)
def test_disconnected_graph_raises(edges, nv, source, reached):
    g = hand_built(edges, nv)
    message = "BFS from vertex %d reached %d of %d vertices" % (source, reached, nv)
    with pytest.raises(StructureError, match=message):
        graph.bfs_distances(g, source)
    with pytest.raises(StructureError, match=message):
        graph.eccentricity(g, source)
    with pytest.raises(StructureError):
        graph.diameter(g)
    with pytest.raises(StructureError):
        graph.radius(g)


def test_bfs_on_isolated_vertices_is_exact_until_the_check():
    g = hand_built([(0, 2), (2, 3)], 5)
    levels = []
    with pytest.raises(StructureError, match="BFS from vertex 0 reached 3 of 5 vertices"):
        for new in graph.bfs_levels(g, [0, 1, 3]):
            levels.append(new.tolist())
    # bits 0 and 2 are the sources 0 and 3; vertices 1 and 4 stay dark, and
    # the first source (by bit) that missed a vertex is the one reported
    assert levels == [[0, 0, 0b101, 0, 0], [0b100, 0, 0, 0b001, 0]]


def test_push_steps_skip_zero_degree_rows():
    # 16 vertices, so three frontier rows push; row 1 has no arcs and sits
    # between rows 0 and 3, whose arcs must still be read at their offsets
    g = hand_built([(0, 2), (2, 3)], 16)
    assert 3 * graph.PUSH_SHARE < g.vertex_count
    levels = []
    with pytest.raises(StructureError, match="BFS from vertex 0 reached 3 of 16 vertices"):
        for new in graph.bfs_levels(g, [0, 1, 3]):
            levels.append(new.tolist())
    assert levels == [[0, 0, 0b101] + [0] * 13, [0b100, 0, 0, 0b001] + [0] * 12]
    with pytest.raises(StructureError, match="BFS from vertex 1 reached 1 of 16 vertices"):
        graph.eccentricity(g, 1)


def test_bfs_rejects_bad_sources():
    g = graph.build(4)
    with pytest.raises(ValidationError):
        graph.bfs_distances(g, "0011")
    with pytest.raises(ValidationError):
        graph.bfs_distances(g, 99)


@pytest.mark.parametrize("source", [1.7, 0.5, True, False, np.float64(1.0), np.bool_(True), None])
def test_bfs_rejects_non_integer_sources(source):
    g = graph.build(4)
    with pytest.raises(ValidationError, match="is not a vertex index or a label"):
        graph.bfs_distances(g, source)
    with pytest.raises(ValidationError, match="is not a vertex index or a label"):
        graph.eccentricity(g, source)
    with pytest.raises(ValidationError, match="is not a vertex index or a label"):
        list(graph.bfs_levels(g, [0, source]))


def test_bfs_takes_numpy_integer_sources():
    g = graph.build(4)
    for source in (np.int64(3), np.int32(3), np.uint8(3)):
        assert graph.bfs_distances(g, source).tolist() == oracle_distances(g, 3)
        assert graph.eccentricity(g, source) == max(oracle_distances(g, 3))
    assert level_distances(g, np.array([3, 0])).tolist() == [
        oracle_distances(g, 3),
        oracle_distances(g, 0),
    ]



@pytest.mark.parametrize("label", [2.9, 2.0, np.float64(2.0), True, False, np.bool_(True), None])
def test_index_of_rejects_non_integer_labels(label):
    g = graph.build(4)
    with pytest.raises(ValidationError, match="is not a string or an integer mask"):
        g.index_of(label)


def test_index_of_takes_numpy_integer_labels():
    g = graph.build(4)
    for label in (2, np.int64(2), np.int32(2), np.uint8(2)):
        assert g.index_of(label) == g.index_of("0010") == 2

def test_maximal_vertices_have_no_up_flips():
    for n in range(1, 9):
        labels = graph.maximal_vertices(n)
        for label in labels:
            up, _ = strings.flip_degrees(label + "00")
            assert up == 0
        all_labels = [
            strings.mask_to_word(int(m), n) for m in graph.vertex_labels(n)
        ]
        others = set(all_labels) - set(labels)
        for label in others:
            up, _ = strings.flip_degrees(label + "00")
            assert up > 0


def test_maximal_vertices_match_the_flip_scan():
    for n in range(1, 25):
        assert graph.maximal_vertices(n) == graph._maximal_by_flip_scan(n), n


def test_maximal_vertices_ascend_and_match_the_gf_to_36():
    # R_36 is the largest R_n under the default stream cap
    assert strings.fibonacci(38) <= config.stream_cap() < strings.fibonacci(39)
    counts = [c.constant_term() for c in enumerators.maximal_gf().expand(36)]
    for n in range(1, 37):
        labels = graph.maximal_vertices(n)
        assert len(labels) == counts[n], n
        assert all(a < b for a, b in zip(labels, labels[1:])), n


def test_maximal_gf_counts_the_up_degree_zero_census_to_150():
    counts = [c.constant_term() for c in enumerators.maximal_gf().expand(150)]
    layout = graph._transfer_layout(150)
    for k, (f0, f1) in enumerate(graph._transfer_pass(layout, 152)):
        if k >= 3:
            census = layout.unpack(f0 + f1)
            assert sum(c for (u, _), c in census.items() if u == 0) == counts[k - 2], k - 2


def searchsorted_scan(labels, n):
    """(up, down, edges) of R_n by one searchsorted probe per label bit.

    The flip scan as it ran before the rank tables, kept as the oracle:
    every label is flipped at each bit and looked up among the sorted
    labels; edges holds each bit's (vertex index, neighbour index) arrays.
    """
    nv = len(labels)
    ups = np.zeros(nv, dtype=np.uint8)
    downs = np.zeros(nv, dtype=np.uint8)
    edges = []
    for j in range(n):
        bit = np.int64(1) << np.int64(j)
        flipped = labels ^ bit
        pos = np.searchsorted(labels, flipped)
        pos[pos >= nv] = 0
        member = labels[pos] == flipped
        was_zero = (labels & bit) == 0
        ups += member & was_zero
        downs += member & ~was_zero
        idx = np.nonzero(member)[0]
        edges.append((idx, pos[idx]))
    return ups, downs, edges


def lexsort_csr(n):
    """R_n's (indptr, indices, ups, downs) from the searchsorted scan, rows sorted."""
    labels = graph.vertex_labels(n)
    ups, downs, edges = searchsorted_scan(labels, n)
    src, dst = (np.concatenate(side) for side in zip(*edges))
    order = np.lexsort((dst, src))
    indptr = np.zeros(len(labels) + 1, dtype=np.int64)
    np.add.at(indptr, src[order] + 1, 1)
    return np.cumsum(indptr), dst[order].astype(np.int64), ups, downs


@pytest.mark.parametrize("n", range(1, 21))
def test_build_csr_matches_the_lexsort_oracle(n):
    g = graph.build(n)
    indptr, indices, ups, downs = lexsort_csr(n)
    assert g.indptr.dtype == g.indices.dtype == indptr.dtype == indices.dtype == np.int64
    assert np.array_equal(g.indptr, indptr)
    assert np.array_equal(g.indices, indices)
    assert g.up_degrees.dtype == g.down_degrees.dtype == np.uint8
    assert np.array_equal(g.up_degrees, ups)
    assert np.array_equal(g.down_degrees, downs)
    rows = np.repeat(np.arange(g.vertex_count), np.diff(g.indptr))
    same_row = rows[1:] == rows[:-1]
    assert (np.diff(g.indices)[same_row] > 0).all()



def oracle_table(labels, n):
    """R_n's neighbour table by the searchsorted scan: row j, each label's
    neighbour index across bit j, -1 where the flip leaves R_n."""
    _, _, edges = searchsorted_scan(labels, n)
    table = np.full((n, len(labels)), -1)
    for j, (idx, pos) in enumerate(edges):
        table[j, idx] = pos
    return table


@pytest.mark.parametrize("n", range(1, 15))
def test_flip_scan_table_matches_the_searchsorted_oracle(n):
    labels = graph.vertex_labels(n)
    want = oracle_table(labels, n)
    table = np.empty((n, len(labels)), dtype=graph._index_type(n))
    ups, downs = graph._flip_scan(labels, n, table)
    assert graph._index_type(n) is np.int32
    assert np.array_equal(table, want)
    plain_ups, plain_downs = graph._flip_scan(labels, n)
    assert np.array_equal(ups, plain_ups) and np.array_equal(downs, plain_downs)
    # boxes a <= z <= b as poset._box scans them: the labels in the box
    # only, flipped at the bits of b & ~a
    rng = random.Random(n)
    for _ in range(8):
        b = rng.choice(labels.tolist())
        a = rng.choice([z for z in labels.tolist() if z & ~b == 0])
        inside = np.flatnonzero(((labels & a) == a) & ((labels & ~b) == 0))
        bits = [j for j in range(n) if (b & ~a) >> j & 1]
        table = np.empty((len(bits), len(inside)), dtype=graph._index_type(n))
        graph._flip_scan(labels[inside], n, table, bits)
        assert np.array_equal(table, want[bits][:, inside]), (a, b)


def peak_bytes(call):
    """(result of call(), peak bytes traced while it ran)."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_build_peak_memory_stays_under_1_9_times_its_output():
    # measured through the first read of the CSR: the neighbour table is
    # sorted as a view and freed before the int64 copy of its entries >= 0,
    # so it is never held twice, nor along with both copies of the indices
    def build_and_read_the_csr():
        g = graph.build(20)
        g.indices
        return g

    g, peak = peak_bytes(build_and_read_the_csr)
    arrays = (g.labels, g.indptr, g.indices, g.up_degrees, g.down_degrees)
    assert peak <= 1.9 * sum(a.nbytes for a in arrays)


def test_edge_count_alone_peaks_under_three_quarters_of_the_csr():
    # counting edges reads the degrees off the label construction: no flip
    # scan, no neighbour table, no CSR
    edges, peak = peak_bytes(lambda: graph.build(20).edge_count)
    g = graph.build(20)
    assert edges == g.edge_count
    assert peak <= 0.75 * (g.indptr.nbytes + g.indices.nbytes)


@pytest.fixture
def scans(monkeypatch):
    """Each `_flip_scan` call from here on, as whether it was given a table."""
    calls = []
    scan = graph._flip_scan

    def recorded(chunk, n, table=None, bits=None):
        calls.append(table is not None)
        return scan(chunk, n, table, bits)

    monkeypatch.setattr(graph, "_flip_scan", recorded)
    return calls


@pytest.mark.parametrize("fmt, table", [("text", False), ("json", True), ("dot", True)])
def test_graph_command_scans_once(scans, capsys, fmt, table):
    # the text summary reads only counts, which the label construction gives
    # without a scan; JSON and dot read adjacency, one neighbour-table scan
    assert cli.main(["graph", "--n", "9", "--format", fmt]) == 0
    capsys.readouterr()
    assert scans == ([True] if table else [])


def test_a_search_scans_once_with_a_table(scans):
    g = graph.build(17)
    for source in (0, g.vertex_count - 1):
        graph.eccentricity(g, source)
    assert g.edge_count == graph.closed_form_edge_count(17)
    assert scans == [True]


def test_encoding_check_reads_labels_only(scans):
    assert embedding.encoding_check(5).ok
    assert scans == []


def construction_differs_from_the_flip_scan():
    """The first n <= 20 where the label construction's labels or (up, down)
    differ from `vertex_labels` and the plain flip scan, or None."""
    for n in range(1, 21):
        built = graph._labels_and_degrees(n)
        labels = graph.vertex_labels(n)
        scanned = (labels, *graph._flip_scan(labels, n))
        if not all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(built, scanned)):
            return n
    return None


def test_construction_degrees_match_the_flip_scan():
    assert construction_differs_from_the_flip_scan() is None


@pytest.mark.parametrize(
    "mutate, up_changed",
    [
        # the pair term [z0 = 0] f of a 0 in front dropped
        (lambda row: (0, 0, 1, 0, 0, 1, 1) if row == (0, 0, 1, 1, 0, 1, 1) else row, True),
        # min(r, 1) down-flips per block in place of min(r, 2)
        (lambda row: row[:4] + (min(row[4], 1),) + row[5:], False),
    ],
    ids=["pair_term_dropped", "d_for_d2"],
)
def test_a_changed_flip_step_fails_the_flip_scan(monkeypatch, mutate, up_changed):
    steps = tuple(map(mutate, graph.FLIP_STEPS))
    assert steps != graph.FLIP_STEPS
    monkeypatch.setattr(graph, "FLIP_STEPS", steps)
    assert construction_differs_from_the_flip_scan() is not None
    assert updown_difference(flip_steps_gf).num != {}
    # a change in the down field alone is invisible at u := 0, d := 1, and
    # leaves the maximal vertices as they are
    assert (maximal_difference(flip_steps_gf).num != {}) == up_changed
    assert any(
        graph.maximal_vertices(n) != graph._maximal_by_flip_scan(n) for n in range(1, 13)
    ) == up_changed


def test_degrees_of_labels_other_than_r_n_are_refused():
    labels = graph.vertex_labels(9)
    changed = labels.copy()
    changed[5] += 1
    for wrong in (labels[:-1], labels[1:], changed, graph.vertex_labels(8)):
        g = graph.FibRunGraph(9, wrong)
        with pytest.raises(StructureError, match="not those of R_9"):
            g.edge_count
        with pytest.raises(StructureError, match="not those of R_9"):
            g.down_degrees


@pytest.mark.parametrize("n", range(1, 21))
def test_edge_count_before_the_csr_equals_it_after(n):
    g = graph.build(n)
    counted = g.edge_count
    assert g._indices is None
    assert counted == len(g.indices) // 2 == g.edge_count


def rank_lookup(n, masks):
    """Index of each n-bit mask among R_n's labels by the rank tables, -1 if none."""
    first, offset, rank = graph._rank_tables(n)
    low = n // 2
    r = rank[offset[masks >> low] + (masks & ((1 << low) - 1))]
    return np.where(r >= 0, first[masks >> low] + r, -1)


@pytest.mark.parametrize("n", range(1, 15))
def test_rank_tables_index_every_mask(n):
    masks = np.arange(1 << n, dtype=np.int64)
    got = rank_lookup(n, masks)
    labels = graph.vertex_labels(n)
    where = {m: i for i, m in enumerate(labels.tolist())}
    for m, i in zip(masks.tolist(), got.tolist()):
        word = strings.mask_to_word(m, n)
        assert i == (where[m] if strings.is_run_constrained(word + "00") else -1), word
    first, offset, rank = graph._rank_tables(n)
    assert first.dtype == offset.dtype == rank.dtype == np.int32
    # -1 exactly at the high parts no label has
    used = np.bincount(labels >> np.int64(n // 2), minlength=len(first)) > 0
    assert np.array_equal(first == -1, ~used)


def test_rank_tables_rank_every_label_to_26():
    for n in range(1, 27):
        labels = graph.vertex_labels(n)
        assert np.array_equal(rank_lookup(n, labels), np.arange(len(labels))), n


def test_closed_form_edge_count():
    for n in range(5, 14):
        assert graph.closed_form_edge_count(n) == EDGE_COUNTS[n - 1]
    with pytest.raises(DomainError):
        graph.closed_form_edge_count(4)


def test_count_induced_cubes_small():
    # R_1 is a single edge: two vertices, one edge, no squares
    assert graph.count_induced_cubes(1) == [2, 1]
    for n in range(1, 9):
        h = graph.count_induced_cubes(n)
        assert h[0] == strings.fibonacci(n + 2)
        assert h[1] == graph.edge_count(n)


def test_vertex_cap_enforced():
    with pytest.raises(ResourceLimitError):
        graph.build(30, cap=1000)
    with pytest.raises(ResourceLimitError):
        graph.degree_census(30, cap=1000)


def test_dot_output_mentions_every_vertex():
    g = graph.build(3)
    text = graph.to_dot(g)
    for i in range(g.vertex_count):
        assert '"%s"' % g.label_string(i) in text
    assert text.count("--") == g.edge_count
