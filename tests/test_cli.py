import json

import pytest

from runcube import cli


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


def test_census_threads_flag(capsys):
    code, payload = run_json(["census", "--n", "10", "--threads", "2"], capsys)
    assert code == 0
    assert payload["census"]["vertices"] == 144


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
