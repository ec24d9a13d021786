import contextlib
import hashlib
import io
import json
import os
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from goldens import CLI_SHA256
from runcube import cli, graph, inversions, poset, strings
from runcube.polyseries import RationalGF, Ring, render_columns


def run(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(args, capsys):
    code, out, _ = run(args + ["--format", "json"], capsys)
    payload = json.loads(out)
    assert payload["schema"] == 1
    return code, payload


def test_graph_text(capsys):
    code, out, _ = run(["graph", "--n", "4"], capsys)
    assert code == 0
    assert "vertices: 8" in out
    assert "edges: 10" in out


def test_graph_json(capsys):
    code, payload = run_json(["graph", "--n", "3"], capsys)
    assert code == 0
    g = payload["graph"]
    assert g["n"] == 3
    assert len(g["vertices"]) == 5
    assert len(g["edges"]) == 5


def test_graph_dot(capsys):
    code, out, _ = run(["graph", "--n", "2", "--format", "dot"], capsys)
    assert code == 0
    assert out.startswith("graph R_2 {")


def test_graph_rejects_n_zero():
    with pytest.raises(SystemExit) as exc:
        cli.main(["graph", "--n", "0"])
    assert exc.value.code == 2


def test_graph_cap_exceeded_is_usage_error(capsys):
    code, _, err = run(["graph", "--n", "12", "--vertex-cap", "10"], capsys)
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "value, reason",
    [("abc", "must be an integer, got 'abc'"), ("-5", "must be nonnegative, got -5")],
)
def test_bad_env_cap_is_usage_error(monkeypatch, capsys, value, reason):
    monkeypatch.setenv("RUNCUBE_VERTEX_CAP", value)
    code, out, err = run(["graph", "--n", "3"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: RUNCUBE_VERTEX_CAP %s\n" % reason


def test_census_json(capsys):
    code, payload = run_json(["census", "--n", "4"], capsys)
    assert code == 0
    census = payload["census"]
    assert census["counts"] == [[0, 2, 3], [1, 1, 2], [2, 1, 2], [4, 0, 1]]
    assert census["edges"] == 10


@pytest.mark.parametrize("flag", ["--threads", "--shards"])
def test_census_has_no_thread_flags(flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(["census", "--n", "4", flag, "2"])
    assert exc.value.code == 2


def test_gf_text_default_order(capsys):
    code, out, _ = run(["gf", "--kind", "maximal"], capsys)
    assert code == 0
    assert "t^12: 56" in out


def test_gf_json_updown(capsys):
    code, payload = run_json(["gf", "--kind", "updown", "--order", "2"], capsys)
    assert code == 0
    assert payload["variables"] == ["u", "d"]
    assert payload["coefficients"][1] == [1, [[[0, 1], "1"], [[1, 0], "1"]]]


def test_gf_every_kind_runs(capsys):
    for kind in sorted(cli.GF_KINDS):
        code, _, _ = run(["gf", "--kind", kind, "--order", "6"], capsys)
        assert code == 0


def gf_document(kind, order, fmt):
    """The whole gf output built at once: one json.dumps of the full payload."""
    gf = cli.GF_KINDS[kind]()
    coeffs = gf.expand(order)
    if fmt == "text":
        return "".join("t^%d: %s\n" % (k, c.render()) for k, c in enumerate(coeffs))
    payload = {
        "schema": 1,
        "kind": kind,
        "order": order,
        "variables": list(gf.ring.names),
        "coefficients": [[k, c.json_terms()] for k, c in enumerate(coeffs)],
    }
    return json.dumps(payload, separators=(", ", ": ")) + "\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("order", [0, 1, 7, 60])
@pytest.mark.parametrize("kind", sorted(cli.GF_KINDS))
def test_streamed_gf_equals_the_whole_document(capsys, kind, order, fmt):
    code, out, err = run(["gf", "--kind", kind, "--order", str(order), "--format", fmt], capsys)
    assert (code, err) == (0, "")
    assert out == gf_document(kind, order, fmt)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "kind, order, need",
    [("edge", 10000000, 270000027), ("updown", 251, 272051136)],
)
def test_refused_gf_writes_nothing_to_stdout(capsys, kind, order, need, fmt):
    code, out, err = run(["gf", "--kind", kind, "--order", str(order), "--format", fmt], capsys)
    assert code == 2
    assert out == ""
    assert err == (
        "error: series quotient through t^%d needs a packed layout of %d bytes, cap is 268435456\n"
        % (order, need)
    )


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="interpreter has no int-to-str digit limit"
)
def test_gf_prints_coefficients_past_the_int_digit_limit(capsys):
    # t^3500 of the edge GF has 735 digits; 640 is the lowest limit allowed
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(["gf", "--kind", "edge", "--order", "3500", "--format", "json"], capsys)
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(saved)
    assert (code, err) == (0, "")
    last = json.loads(out)["coefficients"][-1]
    assert last == [3500, [[[], str(graph.closed_form_edge_count(3500))]]]


def test_streamed_gf_holds_one_coefficient_at_a_time():
    # the whole order-150 updown document, its term tree and its series
    # take about 80 MB of traced memory at once; streamed, the largest
    # live object is the packed window of the quotient recurrence
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
            code = cli.main(["gf", "--kind", "updown", "--order", "150", "--format", "json"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 16 << 20


# rings of the arities the writer meets: the gf kinds use 0 to 2 variables
WRITER_RINGS = [Ring(("a", "b", "c", "e")[:arity]) for arity in (0, 1, 2, 4)]


@st.composite
def rational_gfs(draw):
    """(gf, order): a RationalGF over one of WRITER_RINGS, with +-1, small and big coefficients."""
    ring = draw(st.sampled_from(WRITER_RINGS))
    coeff = st.one_of(st.sampled_from([1, -1]), st.integers(-9, 9), st.integers(-(2 ** 70), 2 ** 70))
    term = st.tuples(st.tuples(*[st.integers(0, 3 if ring.arity < 4 else 1)] * ring.arity), coeff)
    poly = st.lists(term, min_size=1, max_size=6).map(lambda items: ring.poly(dict(items)))
    num = draw(st.dictionaries(st.integers(0, 3), poly, min_size=1, max_size=3))
    den = draw(st.dictionaries(st.integers(1, 3), poly, max_size=2))
    return RationalGF(ring, num, {0: 1, **den}), draw(st.integers(0, 6))


@given(rational_gfs())
@settings(max_examples=150, deadline=None)
def test_gf_writer_formats_what_json_terms_and_render_give(case):
    gf, order = case
    want = gf.expand(order)
    rows = list(gf.graded_terms(order))
    assert [cli._json_terms(*row) for row in rows] == [
        json.dumps(c.json_terms(), separators=(", ", ": ")) for c in want
    ]
    assert [render_columns(gf.ring.names, *row) for row in rows] == [c.render() for c in want]
    # the whole command, written piece by piece, is the whole document
    with mock.patch.dict(cli.GF_KINDS, {"updown": lambda: gf}):
        for fmt in ("json", "text"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["gf", "--kind", "updown", "--order", str(order), "--format", fmt])
            assert code == 0
            assert out.getvalue() == gf_document("updown", order, fmt)


# sha256 of the JSON output, recorded with the dict-convolution series code
# that preceded the packed kernel
GF_ORDER_60_SHA256 = {
    "updown": "18b7eeab659fe96f6c85f284fec7d9cfd40d37f19d11205ed377b3d575a28ec0",
    "degree": "7e044af46e1151ec8f4268ad2be96f3633daf29634f2784f6c62bedc9e18c770",
    "up": "ccb8cf0990310ea1fd884d45bd24957dc5ea6286e10a261abb54197724ed4604",
    "down": "3e821d0ce70a71c19e03aa2012cec8467ea74731c044f861e05506427fc2d66c",
    "cube": "1111b8fd877dcf3eae0ae913521f280d01a5932b642b289ddbea856a41024631",
    "rank": "9b469f7bb536a3cd50574708456c22fb52b4c49be929c8049d67081059b4b74f",
    "maximal": "78adb6a2630bfe5dad42e67ecea4a099266a3347e364a88774b08fa570010d7f",
    "edge": "fc705e1bcd17f23a9499a52a6fa89fd09c2f36837f49879b23e69d63f2548d78",
}
# sha256 of `census --n K` as (text, JSON), recorded with the flip-scan census
CENSUS_SHA256 = {
    1: (
        "d9b47b40b2d0ac4acdbcd132c995385725ef00fe646923466ca32cb98ab2a372",
        "e9d86bf8873dcf0a680067d26c0c3a2783e5256a9fbdfaa36d6511d61945a2a6",
    ),
    2: (
        "916d4c0ac688fc2477e99d52fe48b49ad987f6d22c18dfd8d208b4597f25558d",
        "4d27271c575c35084d336e74159f9025463e50d65eecbfccb4916209fe073036",
    ),
    5: (
        "b8c24a5970c062c8d2e9e28052e14c5759728882d646cd97cf45a1575d1742df",
        "72947ca4b1cdba01c76e1d0fa5a76b4db35a99bc7b35c19aa84cff657e24e5eb",
    ),
    12: (
        "dd660ea7cef60d012952a17593a9df3b8b62bacd39f24fbad27e3e2ae5c76c7a",
        "e3f7a1b13c7c2d14e3d27ba64c3e77b5d4934af3893954b20305eb7bae6f28f2",
    ),
    30: (
        "762f7e809adc5e22aa1ca9d411807f3eaf826e3fb626baf0880f63749a12aa7e",
        "a7452ed24207ec5abb38129688e4f1b955bf77955ff783268b3bdd2e84cebc21",
    ),
}
VERIFY_ALL_SHA256 = "a726cacbab47651d8a4214239573ad058247ce549f101adedd897f986f3d71e2"
# sha256 of `verify inv --order K` as (text, JSON), recorded with the dict
# inversion recurrence and the substitution-based functional identity
VERIFY_INV_SHA256 = {
    1: (
        "0c147d07c45a5cebece5541d275ceb3020dde0df918d0db85b663fcf749c5269",
        "155cc8304c04e833ae2ba24ef4a553ffb962b134431b3593101265c1a0f1f554",
    ),
    2: (
        "90d9674cecc45dafe1e3a63730451c0bb5c2228ae1f7fbaa70396c3dfdb8ada0",
        "72fd7b02a5344bb8533c538692d235a75053da481e9adadd93c04d0777f1aab1",
    ),
    24: (
        "9cad2e8231d260ed45fed4e6c70256c6c660a34e98cf4045dc3ad2335844b713",
        "427d440bbeb6ce68f349d43dea5a90e9179c8c31abb9cb271e114259c75c24d0",
    ),
    40: (
        "767b6bfbecf091910daaa0f21dd2ab4d28a850a9f06fea42e991441d3d942caf",
        "52f0fc1a06222aeabb264d1adc9195ca323459d589db5f35d6d862df094e1ae7",
    ),
    60: (
        "9cbbbac5aae18a3a1c8910d7c74a66531aa6db8d36b3d40a63522fc0e5f1a7f2",
        "cd12c25499e07bb67b51512f429158182f334275642b07cf1011e8e8e9dad303",
    ),
}
# sha256 of poset output as (text, JSON), recorded with the per-pair closure
# code that preceded the reachability bitsets: `poset intervals --n K`,
# `poset mobius` on (n, bottom, top), and `verify poset --max-n 12`
POSET_INTERVALS_SHA256 = {
    1: (
        "1d45f41536eaae53ed7a7dfd4d5ce4d4862d82b944e73ad03746ee575ee80886",
        "cad8980ee12f4579b941e37eee49a392165c80ca83ab77db5f26798e7bad1bb5",
    ),
    5: (
        "0760d80812d91df96dab50a5fa7a6846354edd881d3a09fd29765fa2ee4e509f",
        "9f63362928a60a85bd40e04abde1169403b86986885256cc950e7e10580b21f9",
    ),
    8: (
        "0eba75eea7062adb6a0e0bd16f0163ab9fc68542b610ead378027082557e99a6",
        "f7416623f59320f5862978f71b2dde3041b6d5a9168f424d32ae9d0a444747ab",
    ),
    12: (
        "e30b402065cfb9732ea2ff0186c8e2edcbfb33428f4c46e6e7949590e76958f0",
        "2828abf9b157a08d2d2f3136b3519612be099b9abb9498b806896610b5e58bb2",
    ),
}
POSET_MOBIUS_SHA256 = {
    (5, "00100", "11100"): (
        "298c4ef7cb94fc613c14f268302a3fa352225203baf72c7369a04c17f83e598c",
        "6f20103e29de7c6cf1a26b5606c0bec20db1de1fcb8fe9f4e3b8d5f76509e18c",
    ),
    (5, "00000", "11100"): (
        "c47bd2c28f5e7d33acbf57dd9a19fc89b321e851506cedcc1c195f1a5c1e2bff",
        "fd30497533be7a5462d6c232432f8b772ae85f3b06d7468d5c8fc3d281da592f",
    ),
    (6, "000000", "110001"): (
        "80add76972ece125e4849443e159b32483f29aeb8a2c83d765ba3359ed6151d1",
        "a6cb1e6a14826e457752fa60838aabc916853bacd3d37463e540a114816695b7",
    ),
}
VERIFY_POSET_12_SHA256 = (
    "e3134b9a303565d382c3d99e768a0dd57754df5c61484268e06514f7bcfeb6a3",
    "7bdcb8e88dba40de586ac85caeda2ba99ae4209dff701dcea8d002f037dc2f3c",
)
# sha256 of `poset maximal --n K` as (text, JSON) and of `graph --n K` as
# (text, JSON, dot), recorded with the flip-scan maximal vertices and the
# lexsort CSR build that preceded the run-rule enumerator and the cursor fill
POSET_MAXIMAL_SHA256 = {
    1: (
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
        "8b77c61ee51abf7b92f1cf84b014d1263c50082b36932ed136a196e66f896922",
    ),
    5: (
        "2f0c6507d62fc6975464f7aa5363a2fbaae02981029c86f4f1a5c619975ecdfb",
        "0338ca92c013220a2646ae1abb61bb05e58db53c4a52db5ecca023bdb3999319",
    ),
    12: (
        "7214b28aa9ecdc1078be82219dfb3c6bf107a73e39ba0bafde97d4e440a62243",
        "bc29b2a5c0c4e74c1222797aab8582c9749bac4eeda4a2ac99a46a1efabbfe73",
    ),
    20: (
        "28ed2763be359ad73345c9dc19e80295b62943ead01e30414a24aa1fdf3c94a6",
        "f50c4b3415362ba0c9f1fd1dce6ff01b6e69fdfc58ac43ec33ad65b970768c4f",
    ),
    27: (
        "6a745b549cfe28ec117c385428d5291d0756403ac46f40542872b44e1260ca2a",
        "28ff9899b25d78f2569c17bdd733f59304175d554a5d61cfbd3c25768b46193c",
    ),
}
GRAPH_FORMATS = ("text", "json", "dot")
GRAPH_SHA256 = {
    1: (
        "f05188f14af5101302f454122db960f447131322724d9f8b55d02be6001ce40e",
        "cc8428433f13b70aeb4db2007a213a958364f54c65c5f4ce820a8dfd9452a58a",
        "6af0c46493123c560397a5d1879303f653788fcad1fa3fde732752fab7b248ca",
    ),
    6: (
        "b066ffd9282d6523ff7e82834e9835cecd61ee8e4f137ecd66a8c911da3f098f",
        "0d2d3bf080bb1185409d95765e368ec64bf67d59a3f36a5c184762ea27334333",
        "d87aefaa4b7463bd8a74a85fafd14652d3e61595107e91f8009c938d486b9b09",
    ),
    12: (
        "4da80c0da43d84db6f6e55696c99dd56601514dcad31aee74356e5e3ad0135d6",
        "a0bfc0301b7bb08bff97f04640d89cbc0941c8519bef8a698d33cc048b284475",
        "5bdeb610aba6a9a2884154548d524806170611fb3941cf5db34deeb5abb0a62a",
    ),
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("kind", sorted(GF_ORDER_60_SHA256))
def test_gf_json_is_pinned(capsys, kind):
    code, out, _ = run(["gf", "--kind", kind, "--order", "60", "--format", "json"], capsys)
    assert code == 0
    assert sha256(out) == GF_ORDER_60_SHA256[kind]


@pytest.mark.parametrize("k", sorted(CENSUS_SHA256))
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_census_output_is_pinned(capsys, k, fmt):
    code, out, _ = run(["census", "--n", str(k), "--format", fmt], capsys)
    assert code == 0
    assert sha256(out) == CENSUS_SHA256[k][fmt == "json"]


def test_verify_all_json_is_pinned(capsys):
    argv = ["verify", "--all", "--max-n", "8", "--order", "40", "--format", "json"]
    code, out, _ = run(argv, capsys)
    assert code == 1
    assert sha256(out) == VERIFY_ALL_SHA256


@pytest.mark.parametrize("k", sorted(VERIFY_INV_SHA256))
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_inv_output_is_pinned(capsys, k, fmt):
    code, out, err = run(["verify", "inv", "--order", str(k), "--format", fmt], capsys)
    assert (code, err) == (0, "")
    assert sha256(out) == VERIFY_INV_SHA256[k][fmt == "json"]


@pytest.mark.parametrize("k", sorted(POSET_INTERVALS_SHA256))
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_poset_intervals_output_is_pinned(capsys, k, fmt):
    code, out, err = run(["poset", "intervals", "--n", str(k), "--format", fmt], capsys)
    assert (code, err) == (0, "")
    assert sha256(out) == POSET_INTERVALS_SHA256[k][fmt == "json"]


@pytest.mark.parametrize("pair", sorted(POSET_MOBIUS_SHA256))
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_poset_mobius_output_is_pinned(capsys, pair, fmt):
    n, bottom, top = pair
    argv = ["poset", "mobius", "--n", str(n), "--bottom", bottom, "--top", top, "--format", fmt]
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    assert sha256(out) == POSET_MOBIUS_SHA256[pair][fmt == "json"]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_poset_output_is_pinned(capsys, fmt):
    code, out, err = run(["verify", "poset", "--max-n", "12", "--format", fmt], capsys)
    assert (code, err) == (1, "")
    assert sha256(out) == VERIFY_POSET_12_SHA256[fmt == "json"]


@pytest.mark.parametrize("k", sorted(POSET_MAXIMAL_SHA256))
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_poset_maximal_output_is_pinned(capsys, k, fmt):
    code, out, err = run(["poset", "maximal", "--n", str(k), "--format", fmt], capsys)
    assert (code, err) == (0, "")
    assert sha256(out) == POSET_MAXIMAL_SHA256[k][fmt == "json"]


@pytest.mark.parametrize("argv", sorted(CLI_SHA256))
def test_cli_output_is_pinned(capsys, argv):
    code, out, err = run(argv.split(), capsys)
    assert (code, err) == (CLI_SHA256[argv][0], "")
    assert sha256(out) == CLI_SHA256[argv][1]


@pytest.mark.parametrize("k", sorted(GRAPH_SHA256))
@pytest.mark.parametrize("fmt", GRAPH_FORMATS)
def test_graph_output_is_pinned(capsys, k, fmt):
    code, out, err = run(["graph", "--n", str(k), "--format", fmt], capsys)
    assert (code, err) == (0, "")
    assert sha256(out) == GRAPH_SHA256[k][GRAPH_FORMATS.index(fmt)]


@pytest.mark.parametrize("argv", [["verify", "inv"], ["verify", "--all", "--max-n", "6"]])
def test_verify_runs_at_order_one(capsys, argv):
    code, out, err = run(argv + ["--order", "1"], capsys)
    assert err == ""
    assert code == (0 if argv[1] == "inv" else 1)
    assert "PASS (H|q=1 - 1 - t - t^2)/t^2 is the rank GF" in out


def test_verify_single_suite_passes(capsys):
    code, out, _ = run(["verify", "embed"], capsys)
    assert code == 0
    assert "FAIL" not in out


def test_verify_all_fails_on_published_poset_claims(capsys):
    code, out, _ = run(["verify", "--all", "--max-n", "6"], capsys)
    assert code == 1
    assert "FAIL" in out
    assert "Boolean" in out


def test_verify_without_suites_is_usage_error(capsys):
    code, _, err = run(["verify"], capsys)
    assert code == 2
    assert "suites" in err or "--all" in err


def test_verify_unknown_suite(capsys):
    code, _, err = run(["verify", "bogus"], capsys)
    assert code == 2
    assert "bogus" in err


def test_verify_json_payload(capsys):
    code, payload = run_json(["verify", "poset", "--max-n", "5"], capsys)
    assert code == 1
    assert payload["ok"] is False
    names = [rep["name"] for rep in payload["reports"]]
    assert "Mobius closed form" in names


def test_poset_rank(capsys):
    code, out, _ = run(["poset", "rank", "--n", "4"], capsys)
    assert code == 0
    assert out.strip() == "1 + 4*x + 3*x^2"


def test_poset_maximal(capsys):
    code, out, _ = run(["poset", "maximal", "--n", "4"], capsys)
    assert code == 0
    assert out.split() == ["0110", "1001", "1100"]


def test_poset_mobius_reports_disagreement(capsys):
    code, payload = run_json(
        ["poset", "mobius", "--n", "5", "--bottom", "00100", "--top", "11100"],
        capsys,
    )
    assert code == 0
    assert payload["closed_form"] == 1
    assert payload["recursive"] == 0
    assert payload["agree"] is False


def test_poset_mobius_requires_endpoints(capsys):
    code, _, err = run(["poset", "mobius", "--n", "5"], capsys)
    assert code == 2


def test_poset_intervals(capsys):
    code, payload = run_json(["poset", "intervals", "--n", "5"], capsys)
    assert code == 0
    assert payload["survey"]["pairs_checked"] == 42
    assert len(payload["survey"]["violations"]) == 3


def test_poset_bad_vertex_is_usage_error(capsys):
    code, _, err = run(
        ["poset", "mobius", "--n", "4", "--bottom", "0011", "--top", "0000"], capsys
    )
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["embed", "encode", "--word", "012"],
        ["poset", "mobius", "--n", "4", "--bottom", "10", "--top", "1000"],
    ],
)
def test_bad_vertex_or_word_exits_2_without_a_traceback(capsys, argv):
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, module, name, err",
    [
        (
            ["poset", "rank", "--n", "100000"],
            poset,
            "comb",
            "error: rank polynomial of R_100000 refused, n is capped at 5000\n",
        ),
        (
            ["inv", "verify", "--max", "40"],
            inversions,
            "q_polynomial",
            "error: length 40 needs 102334155 strings, over the cap 2000000\n",
        ),
    ],
    ids=["poset_rank", "inv_verify"],
)
def test_oversized_inputs_exit_2_before_any_work(monkeypatch, capsys, argv, module, name, err):
    def refuse(*args, **kwargs):
        raise AssertionError("%s ran" % name)

    monkeypatch.setattr(module, name, refuse)
    assert run(argv, capsys) == (2, "", err)


@pytest.mark.parametrize(
    "argv",
    [
        ["poset", "mobius", "--n", "5", "--bottom", "00100", "--top", "11100"],
        ["poset", "intervals", "--n", "5"],
    ],
)
@pytest.mark.parametrize("by_env", [False, True])
def test_poset_actions_honour_the_vertex_cap(monkeypatch, capsys, argv, by_env):
    if by_env:
        monkeypatch.setenv("RUNCUBE_VERTEX_CAP", "3")
        cap = []
    else:
        cap = ["--vertex-cap", "3"]
    refused = run(["graph", "--n", "5"] + cap, capsys)
    assert refused == (2, "", "error: R_5 has 13 vertices, explicit cap is 3\n")
    assert run(argv + cap, capsys) == refused


@pytest.mark.parametrize(
    "argv, variable, kind",
    [
        (["poset", "maximal"], "RUNCUBE_STREAM_CAP", "streaming"),
        (["graph"], "RUNCUBE_VERTEX_CAP", "explicit"),
    ],
)
@pytest.mark.parametrize("by_env", [False, True])
def test_maximal_and_graph_refuse_past_their_caps(
    monkeypatch, capsys, argv, variable, kind, by_env
):
    # R_9 has f_11 = 89 vertices, R_8 has 55
    if by_env:
        monkeypatch.setenv(variable, "88")
        cap = []
    else:
        cap = ["--vertex-cap", "88"]
    refused = "error: R_9 has 89 vertices, %s cap is 88\n" % kind
    assert run(argv + ["--n", "9"] + cap, capsys) == (2, "", refused)
    code, out, err = run(argv + ["--n", "8"] + cap, capsys)
    assert (code, err) == (0, "") and out


HUGE = str(10**30)
NO_INT64 = "masks of length 64 do not fit in int64"


@pytest.mark.parametrize(
    "argv, env, message",
    [
        (["poset", "maximal", "--n", "40"], {}, "R_40 has 267914296 vertices, streaming cap is 50000000"),
        (["graph", "--n", "40"], {}, "R_40 has 267914296 vertices, explicit cap is 2000000"),
        (
            ["poset", "maximal", "--n", "5"],
            {"RUNCUBE_STREAM_CAP": "abc"},
            "RUNCUBE_STREAM_CAP must be an integer, got 'abc'",
        ),
        (["poset", "maximal", "--n", "62", "--vertex-cap", HUGE], {}, NO_INT64),
        (["graph", "--n", "62", "--vertex-cap", HUGE], {}, NO_INT64),
    ],
)
def test_maximal_and_graph_refusals_come_before_any_work(monkeypatch, capsys, argv, env, message):
    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError("an array was built before the input was refused")

    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(graph, "np", NoNumpy())
    monkeypatch.setattr(strings, "np", NoNumpy())
    assert run(argv, capsys) == (2, "", "error: %s\n" % message)


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["verify", "poset", "--max-n", "30"], "R_30 has 2178309 vertices, explicit cap is 2000000"),
        (["verify", "poset", "--max-n", "25"], "reachability on 196418 vertices of R_25"),
        (["poset", "intervals", "--n", "25"], "reachability on 196418 vertices of R_25"),
    ],
)
def test_oversized_poset_work_is_refused_before_it_starts(monkeypatch, capsys, argv, reason):
    def never(*args, **kwargs):
        raise AssertionError("a poset check ran before the caps were checked")

    for name in ("rank_check", "interval_check", "mobius_check", "maximal_gf_check", "_reach"):
        monkeypatch.setattr(poset, name, never)
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: " + reason)


def test_inv_show(capsys):
    code, out, _ = run(["inv", "--n", "5"], capsys)
    assert code == 0
    assert out.strip() == "1 + x + x*q + x^2 + x*q^2"


def test_inv_requires_n():
    with pytest.raises(SystemExit) as exc:
        cli.main(["inv"])
    assert exc.value.code == 2


def test_inv_verify(capsys):
    code, out, _ = run(["inv", "verify", "--max", "10"], capsys)
    assert code == 0
    assert "FAIL" not in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_inv_verify_prints_what_verify_inv_prints(capsys, fmt):
    got = run(["inv", "verify", "--max", "10", "--format", fmt], capsys)
    want = run(["verify", "inv", "--max-n", "10", "--format", fmt], capsys)
    assert got == want


def test_embed_encode(capsys):
    code, payload = run_json(["embed", "encode", "--word", "010"], capsys)
    assert code == 0
    assert payload["encoding"]["image"] == "0100100100"


def test_embed_encode_without_word(capsys):
    code, _, _ = run(["embed", "encode"], capsys)
    assert code == 2


def test_embed_dilation(capsys):
    code, payload = run_json(["embed", "dilation", "--n", "2"], capsys)
    assert code == 0
    assert payload["dilation"]["dilation"] == 4
    assert payload["dilation"]["host_dim"] == 5


def test_embed_host(capsys):
    code, payload = run_json(["embed", "host", "--max-n", "4"], capsys)
    assert code == 0
    assert [h["smallest_host"] for h in payload["hosts"]] == [1, 3, 6, 8]


def test_json_output_is_deterministic(capsys):
    _, first, _ = run(["census", "--n", "8", "--format", "json"], capsys)
    _, second, _ = run(["census", "--n", "8", "--format", "json"], capsys)
    assert first == second
