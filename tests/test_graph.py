from collections import deque
from itertools import combinations

import numpy as np
import pytest

from goldens import EDGE_COUNTS, R4_CENSUS
from runcube import graph, strings
from runcube.errors import DomainError, ResourceLimitError, StructureError, ValidationError


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


def test_census_sharding_and_threads_are_invisible():
    base = graph.degree_census(12)
    assert graph.degree_census(12, shards=7).counts == base.counts
    assert graph.degree_census(12, threads=2).counts == base.counts


def test_vertex_degrees_matches_flips():
    for label in ("0000", "1000", "0100", "0010"):
        up, down = graph.vertex_degrees(4, label)
        assert (up, down) == strings.flip_degrees(label + "00")


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


def test_bfs_rejects_bad_sources():
    g = graph.build(4)
    with pytest.raises(ValidationError):
        graph.bfs_distances(g, "0011")
    with pytest.raises(ValidationError):
        graph.bfs_distances(g, 99)


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
