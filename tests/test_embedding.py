import pytest

from runcube import embedding as emb
from runcube import graph, strings
from runcube.errors import RuncubeError, ValidationError
from runcube.polyseries import RationalGF


def test_printed_n3_table_bit_exact():
    for word, image in emb.ENCODING_TABLE_N3.items():
        res = emb.encode(word)
        assert res.image == image
        assert res.label == image[:8]
        assert res.host_dim == 8


def test_encode_shapes_and_validity():
    for n in range(1, 7):
        seen = set()
        for v in range(1 << n):
            word = format(v, "0%db" % n)
            res = emb.encode(word)
            assert len(res.image) == 3 * n + 1
            assert res.image.endswith("00")
            assert strings.is_run_constrained(res.image)
            assert res.label == res.image[: 3 * n - 1]
            seen.add(res.label)
        assert len(seen) == 1 << n


def test_encode_rejects_junk():
    with pytest.raises(ValidationError):
        emb.encode("")
    with pytest.raises(ValidationError):
        emb.encode("01a")


@pytest.mark.parametrize("word", [5, None, ["0", "1"]], ids=repr)
def test_encode_rejects_non_strings(word):
    with pytest.raises(ValidationError):
        emb.encode(word)


def test_encoding_check_reports_only_refused_labels(monkeypatch):
    def refuse(n, label):
        raise ValidationError("%s is not a vertex of R_%d" % (label, n))

    monkeypatch.setattr(graph, "_require_label", refuse)
    report = emb.encoding_check(n_max=1)
    assert not report.ok
    assert "image of 0 is not a vertex" in "\n".join(report.failures)

    def broken(n, label):
        raise RuntimeError("bug in _require_label")

    # any other exception is a bug, not a verdict on the encoder
    monkeypatch.setattr(graph, "_require_label", broken)
    with pytest.raises(RuntimeError):
        emb.encoding_check(n_max=1)


def test_dilation_frozen_values():
    for n, want in emb.DILATION_PREFIX.items():
        assert emb.dilation(n).dilation == want


# recorded from the vertex-at-a-time BFS that preceded the bit-parallel one:
# the worst edge is the first maximum with v ascending, then bit ascending
DILATION_RESULTS = [
    emb.DilationResult(1, 2, 2, ("0", "1")),
    emb.DilationResult(2, 5, 4, ("00", "10")),
    emb.DilationResult(3, 8, 4, ("000", "010")),
    emb.DilationResult(4, 11, 6, ("0000", "0100")),
    emb.DilationResult(5, 14, 8, ("00000", "01000")),
]


@pytest.mark.parametrize("want", DILATION_RESULTS, ids=lambda r: "n%d" % r.n)
def test_dilation_results_pinned(want):
    assert emb.dilation(want.n) == want


def test_dilation_worst_edge_is_deterministic():
    res = emb.dilation(3)
    again = emb.dilation(3)
    assert res.worst_edge == again.worst_edge
    assert res.host_dim == 8


def test_cube_gf_matches_brute_interval_counts():
    series = emb.cube_gf().expand(10)
    for n in range(1, 11):
        brute = graph.count_induced_cubes(n)
        poly = series[n]
        got = [poly.coefficient("x", k).constant_term() for k in range(len(brute))]
        assert got == brute
        assert poly.degree("x") < len(brute)


@pytest.mark.parametrize(
    "owner, name, mutant, line",
    [
        (
            graph,
            "count_induced_cubes",
            lambda n, real=graph.count_induced_cubes: [
                h + (n == 6 and k == 1) for k, h in enumerate(real(n))
            ],
            "FAIL GF matches brute cube counts through n=8: first difference at t^6",
        ),
        (
            emb,
            "cube_gf",
            lambda real=emb.cube_gf: real() + RationalGF(emb.CUBE_RING, {9: 1}),
            "FAIL x^0 coefficients count vertices: first difference at t^9",
        ),
        (
            graph,
            "edge_count",
            lambda n, real=graph.edge_count: real(n) + (n == 7),
            "FAIL x^1 coefficients count edges: first difference at t^7",
        ),
    ],
    ids=["brute_counts", "vertices", "edges"],
)
def test_cube_checks_name_the_first_wrong_power(monkeypatch, owner, name, mutant, line):
    monkeypatch.setattr(owner, name, mutant)
    assert emb.cube_gf_check(order=16, brute_max=8).failures == [line]


def test_host_check_counts_each_graph_once(monkeypatch):
    calls = []
    real = graph.count_induced_cubes
    monkeypatch.setattr(graph, "count_induced_cubes", lambda n: calls.append(n) or real(n))
    assert emb.host_check(brute_max=4).ok
    assert calls == list(range(1, emb.SMALLEST_HOST_PREFIX[4] + 1))


def test_host_check_refuses_a_brute_max_past_its_table(monkeypatch):
    def refuse(n):
        raise AssertionError("a brute count ran")

    monkeypatch.setattr(graph, "count_induced_cubes", refuse)
    for brute_max in (-1, max(emb.SMALLEST_HOST_PREFIX) + 1):
        with pytest.raises(RuncubeError, match="brute_max must be between 0 and 8"):
            emb.host_check(brute_max=brute_max)


def test_smallest_hosts():
    records = emb.smallest_host_probe(8)
    assert [r.smallest_host for r in records] == [1, 3, 6, 8, 11, 13, 16, 18]
    assert all(r.smallest_host == r.conjectured for r in records)


def test_reports():
    for rep in emb.suite(max_n=3, order=16):
        assert rep.ok, "\n".join(rep.failures)
