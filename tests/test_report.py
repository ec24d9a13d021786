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
