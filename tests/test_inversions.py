import pytest

from runcube import inversions as inv
from runcube import poset, strings
from runcube.errors import ResourceLimitError
from runcube.polyseries import MultiPoly, RationalGF


def test_printed_tables():
    for n, terms in inv.PRINTED_Q.items():
        assert inv.q_polynomial(n) == inv.XQ.poly(terms)


def test_statistic_is_zeros_before_ones():
    # the other convention (ones before zeros) already disagrees at n = 4:
    # it would give 1 + q^2 x + q^3 x instead of the printed 1 + x + q x
    classic = {}
    for w in strings.enumerate_rc(4):
        invs = sum(
            1
            for i in range(4)
            for j in range(i + 1, 4)
            if w[i] == "1" and w[j] == "0"
        )
        key = (w.count("1"), invs)
        classic[key] = classic.get(key, 0) + 1
    assert inv.XQ.poly(classic) != inv.XQ.poly(inv.PRINTED_Q[4])
    assert inv.q_polynomial(4) == inv.XQ.poly(inv.PRINTED_Q[4])


def test_enumeration_matches_string_statistic():
    for n in range(0, 12):
        brute = inv.XQ.zero()
        for w in strings.enumerate_rc(n) if n else [""]:
            brute = brute + inv.XQ.monomial(
                1, x=w.count("1"), q=strings.inversions(w)
            )
        assert inv.q_polynomial(n) == brute


def test_recurrence_matches_enumeration():
    rep = inv.recurrence_check(n_max=20)
    assert rep.ok, "\n".join(rep.failures)


def test_functional_identity():
    rep = inv.functional_identity_check(order=20)
    assert rep.ok, "\n".join(rep.failures)


def test_q1_specialization():
    rep = inv.q1_specialization_check(order=20)
    assert rep.ok, "\n".join(rep.failures)


@pytest.mark.parametrize("order", [1, 2])
def test_q1_specialization_checks_n_zero(monkeypatch, order):
    # at every order the rank-polynomial comparison starts at n = 0
    real = poset.rank_polynomial
    monkeypatch.setattr(poset, "rank_polynomial", lambda n: real(n) + 1 if n == 0 else real(n))
    rep = inv.q1_specialization_check(order=order)
    assert "FAIL Q_(n+2) at q = 1 is the rank polynomial of R_n: first difference at t^0" in rep.failures


def test_q1_rank_comparison_names_the_first_wrong_n(monkeypatch):
    real = poset.rank_polynomial
    monkeypatch.setattr(poset, "rank_polynomial", lambda n: real(n) + 1 if n >= 5 else real(n))
    assert inv.q1_specialization_check(order=12).failures == [
        "FAIL Q_(n+2) at q = 1 is the rank polynomial of R_n: first difference at t^5"
    ]


def test_recurrence_check_refuses_before_the_first_enumeration(monkeypatch):
    calls = []
    monkeypatch.setattr(inv, "q_polynomial", lambda n, cap=None: calls.append(n))
    # Q_10 needs f_10 = 55 strings; Q_0 .. Q_8 fit a cap of 30
    with pytest.raises(ResourceLimitError, match="length 10 needs 55 strings"):
        inv.recurrence_check(n_max=10, cap=30)
    assert calls == []


def test_q1_counts_by_weight():
    # at q = 1 the coefficient of x^k counts strings with k ones
    for n in range(1, 16):
        poly = inv.q_polynomial_recursive(n).evaluate_at("q", 1)
        for k in range(n + 1):
            want = strings.count_by_weight(n, k)
            assert poly.coefficient("x", k).constant_term() == want


def test_x_degree_is_maximum_weight():
    for n in range(3, 26):
        degree = inv.q_polynomial_recursive(n).degree("x")
        support = max(k for k in range(n + 1) if strings.count_by_weight(n, k) > 0)
        assert degree == support


def test_q_at_shifted_index_is_rank_polynomial():
    x = poset.X_RING.var("x")
    for n in range(0, 12):
        collapsed = inv.q_polynomial_recursive(n + 2).map_onto(
            poset.X_RING, {"x": x, "q": 1}
        )
        assert collapsed == poset.rank_polynomial(n)


def test_enumeration_cap():
    with pytest.raises(ResourceLimitError):
        inv.q_polynomial(40, cap=1000)


def test_scan_equals_packed_recurrence_through_80():
    layout, scanned = inv._scanned_series(80)
    packed, qs = inv._packed_series(80)
    assert (layout.width, scanned) == (packed.width, qs)


def test_scan_equals_enumeration_through_18():
    layout, scanned = inv._scanned_series(18)
    for n, slabs in enumerate(scanned):
        assert MultiPoly(inv.XQ, inv._terms(slabs, layout)) == inv.q_polynomial(n)


def test_reading_q_one_off_the_slabs():
    layout, qs = inv._packed_series(30)
    for n, slabs in enumerate(qs):
        collapsed = inv.q_polynomial_recursive(n).evaluate_at("q", 1)
        assert {(a, 0): c for a, c in inv._at_q_one(slabs, layout).items()} == collapsed.terms


def test_functional_identity_catches_a_wrong_charge(monkeypatch):
    # each 1 charged p - w + 1, one inversion too many; 100 at t^3 shows it first
    def overcharge(slabs, p, bits):
        return {w + 1: slab << bits * (p - w + 1) for w, slab in slabs.items()}

    monkeypatch.setattr(inv, "_append_one", overcharge)
    rep = inv.functional_identity_check(order=12)
    assert rep.failures == ["FAIL functional identity through t^12: first difference at t^3"]


def test_functional_identity_catches_a_wrong_substitution(monkeypatch):
    # x -> x q^k instead of x -> x q^(k+1)
    def letter_step(qs, n, bits):
        out = {}
        for k in range((n + 1) // 2):
            for a, slab in qs[n - 1 - 2 * k].items():
                out[a + k] = out.get(a + k, 0) + (slab << bits * k * a)
        return out

    monkeypatch.setattr(inv, "_letter_step", letter_step)
    rep = inv.functional_identity_check(order=12)
    assert rep.failures == ["FAIL functional identity through t^12: first difference at t^4"]


@pytest.mark.parametrize(
    "module, name, k, line",
    [
        (
            inv,
            "q1_gf",
            5,
            "FAIL H at q = 1 equals (1 - xt^2)/(1 - t - xt^2) through t^12: first difference at t^5",
        ),
        (
            poset,
            "rank_gf",
            3,
            "FAIL (H|q=1 - 1 - t - t^2)/t^2 is the rank GF: first difference at t^3",
        ),
    ],
    ids=["q1_gf", "rank_gf"],
)
def test_q1_specialization_names_the_first_wrong_power(monkeypatch, module, name, k, line):
    right = getattr(module, name)()
    wrong = right + RationalGF(right.ring, {k: right.ring.var("x")})
    monkeypatch.setattr(module, name, lambda: wrong)
    assert inv.q1_specialization_check(order=12).failures == [line]


@pytest.mark.parametrize("build", [inv.q_series, inv.functional_identity_check])
def test_packed_slabs_are_sized_before_the_pass(monkeypatch, build):
    monkeypatch.setattr(inv, "PACKED_MAX_BYTES", 1)
    with pytest.raises(ResourceLimitError, match="packed slabs") as exc:
        build(12)
    need = int(str(exc.value).split("about ")[1].split(" bytes")[0])
    monkeypatch.setattr(inv, "PACKED_MAX_BYTES", need - 1)
    with pytest.raises(ResourceLimitError, match="packed slabs"):
        build(12)
    monkeypatch.setattr(inv, "PACKED_MAX_BYTES", need)
    build(12)


def test_verify_inv_order_over_the_slab_cap_is_usage_error(monkeypatch, capsys):
    from runcube import cli

    monkeypatch.setattr(inv, "PACKED_MAX_BYTES", 1000)
    assert cli.main(["verify", "inv", "--order", "30"]) == 2
    assert "packed slabs" in capsys.readouterr().err
