import pytest

from runcube import embedding, enumerators, inversions, poset
from runcube.errors import RuncubeError
from runcube.polyseries import Ring
from runcube.report import Report

R = Ring(("x",))


def test_expect_series_compares_over_the_common_length():
    x = R.var("x")
    rep = Report("series")
    assert rep.expect_series("equal", [R.one(), x], [R.one(), x])
    assert not rep.expect_series("differs", [R.one(), x, x], [R.one(), x, 2 * x])
    # the longer list's tail is never read, so a shorter list agrees with its prefix
    assert rep.expect_series("unequal lengths", [R.one(), x, x + 1], [R.one(), x])
    assert rep.lines() == [
        "PASS equal",
        "FAIL differs: first difference at t^2",
        "PASS unequal lengths",
    ]
    detail = {"label": "differs", "ok": False, "detail": "first difference at t^2"}
    assert rep.to_json()["checks"][1] == detail


def test_expect_series_counts_powers_from_start():
    x = R.var("x")
    rep = Report("series")
    assert not rep.expect_series("from t^5", [R.one(), x, x], [R.one(), x, 2 * x], start=5)
    assert rep.expect_series("from t^12", [x], [x], start=12)
    assert rep.lines() == ["FAIL from t^5: first difference at t^7", "PASS from t^12"]


# Every verify check at the smallest sizes: order or n_max 0 .. 3, a
# brute_max one past the check's size or, for host_check, past its printed
# table.  Each either reports no FAIL line or refuses with a RuncubeError.
# The interval and Mobius surveys fail by design only from R_5 on.
EDGE_CHECKS = {
    "census": lambda s: enumerators.census_check(n_max=s),
    "case_assembly": lambda s: enumerators.case_assembly_check(order=s, max_len=s),
    "word_sum": lambda s: enumerators.word_sum_identity_check(n_max=s),
    "specializations": lambda s: enumerators.specialize_checks(order=s),
    "edge_gf": lambda s: enumerators.edge_gf_check(order=s, brute_max=s + 1),
    "degree_k_law": lambda s: enumerators.degree_k_law_check(order=s),
    "pk_probe": lambda s: enumerators.pk_probe_check(k_max=s, order=s),
    "degree_recurrence": lambda s: enumerators.recurrence_check(n_max=s),
    "rank": lambda s: poset.rank_check(n_max=s),
    "interval": lambda s: poset.interval_check(n_max=s),
    "mobius": lambda s: poset.mobius_check(n_max=s),
    "maximal_gf": lambda s: poset.maximal_gf_check(order=s, brute_max=s + 1),
    "inversion_recurrence": lambda s: inversions.recurrence_check(n_max=s),
    "functional_identity": lambda s: inversions.functional_identity_check(order=s),
    "q1_specialization": lambda s: inversions.q1_specialization_check(order=s),
    "encoding": lambda s: embedding.encoding_check(n_max=s),
    "dilation": lambda s: embedding.dilation_check(n_max=s),
    "cube_gf": lambda s: embedding.cube_gf_check(order=s, brute_max=s + 1),
    "host": lambda s: embedding.host_check(n_max=s, brute_max=s),
    "host_past_table": lambda s: embedding.host_check(
        n_max=s, brute_max=max(embedding.SMALLEST_HOST_PREFIX) + 1
    ),
}


@pytest.mark.parametrize("size", range(4))
@pytest.mark.parametrize("name", sorted(EDGE_CHECKS))
def test_every_check_passes_or_refuses_at_edge_sizes(name, size):
    try:
        rep = EDGE_CHECKS[name](size)
    except RuncubeError:
        return
    assert isinstance(rep, Report)
    assert rep.failures == []
