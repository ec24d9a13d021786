import copy
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from runcube import embedding, enumerators, polyseries, poset
from runcube.errors import DomainError, RegistryError, ResourceLimitError, SeriesError
from runcube.polyseries import MultiPoly, RationalGF, Ring, TruncatedSeries, over_t2

R2 = Ring(("u", "d"))


def polys(ring=R2, max_terms=5, max_exp=4, max_coeff=9):
    term = st.tuples(
        st.tuples(*[st.integers(0, max_exp)] * len(ring.names)),
        st.integers(-max_coeff, max_coeff),
    )
    return st.lists(term, max_size=max_terms).map(
        lambda items: ring.poly({e: c for e, c in items if c})
    )


def series(order=8):
    return polys(max_terms=3, max_exp=3).flatmap(
        lambda p0: st.lists(polys(max_terms=3, max_exp=3), min_size=0, max_size=order).map(
            lambda rest: TruncatedSeries(R2, [p0] + rest, order)
        )
    )


def test_ring_equality_is_by_names():
    assert Ring(("u", "d")) == R2
    assert Ring(("x",)) != R2
    a = Ring(("u", "d")).var("u")
    b = R2.var("d")
    assert (a * b).render() == "u*d"


def test_render_is_graded_lex():
    u = R2.var("u")
    d = R2.var("d")
    p = 3 + 2 * u * d + u ** 4
    assert p.render() == "3 + 2*u*d + u^4"
    assert (u - d).render() == "-d + u"
    assert R2.zero().render() == "0"


@pytest.mark.parametrize(
    "ring, terms, text",
    [
        # unit coefficients drop their 1, a negative one its "+"
        (R2, {(1, 0): 1, (0, 1): -1, (1, 1): -1, (2, 0): 1}, "-d + u - u*d + u^2"),
        (R2, {(0, 0): -3, (1, 0): 2, (0, 1): -1}, "-3 - d + 2*u"),
        (R2, {(2, 3): 5, (0, 2): -1, (4, 0): -7, (0, 0): 1}, "1 - d^2 - 7*u^4 + 5*u^2*d^3"),
        (Ring(()), {(): -7}, "-7"),
        (Ring(()), {(): 1}, "1"),
        (Ring(()), {(): -1}, "-1"),
        (Ring(()), {}, "0"),
        (R2, {}, "0"),
        (
            Ring(("x",)),
            {(1,): 2 ** 70, (2,): -(2 ** 65 + 1), (0,): -(2 ** 64)},
            "-18446744073709551616 + 1180591620717411303424*x - 36893488147419103233*x^2",
        ),
    ],
)
def test_render_goldens(ring, terms, text):
    assert ring.poly(terms).render() == text


def test_substitute_and_evaluate():
    u = R2.var("u")
    d = R2.var("d")
    p = u ** 2 + 3 * d
    assert p.substitute("u", d + 1) == d ** 2 + 2 * d + 1 + 3 * d
    assert p.evaluate_at("u", 2) == 4 + 3 * d
    assert p.evaluate({"u": 2, "d": 5}) == 19
    with pytest.raises(DomainError):
        p.evaluate({"u": 1})


def test_map_onto_crosses_rings():
    x_ring = Ring(("x",))
    x = x_ring.var("x")
    u = R2.var("u")
    d = R2.var("d")
    p = u * d + 2 * d
    assert p.map_onto(x_ring, {"u": x, "d": x}) == x ** 2 + 2 * x
    with pytest.raises(RegistryError):
        p.map_onto(x_ring, {"u": u, "d": x})


def test_coefficient_extraction():
    u = R2.var("u")
    d = R2.var("d")
    p = 3 * u ** 2 * d + u ** 2 + 5
    assert p.coefficient("u", 2) == 3 * d + 1
    assert p.coefficient("u", 0) == R2.const(5)
    assert p.degree() == 3
    assert p.degree("d") == 1
    assert R2.zero().degree() == -1


@given(polys(), polys(), polys())
def test_multiplication_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(polys(), polys())
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@given(polys())
def test_additive_inverse(p):
    assert p - p == R2.zero()
    assert p + R2.zero() == p
    assert p * R2.one() == p


@given(polys(), st.integers(0, 5))
def test_pow_matches_repeated_product(p, k):
    direct = R2.one()
    for _ in range(k):
        direct = direct * p
    assert p ** k == direct


@given(polys(max_exp=3), polys(max_exp=3))
def test_substitute_composes_with_evaluation(a, b):
    # substituting u := b then evaluating agrees with evaluating b first
    got = a.substitute("u", b)
    for u0, d0 in ((0, 0), (1, 2), (-2, 3)):
        env = {"u": b.evaluate({"u": u0, "d": d0}), "d": d0}
        assert got.evaluate({"u": u0, "d": d0}) == a.evaluate(env)


R3 = Ring(("x", "y", "z"))


@given(polys(ring=R3, max_exp=5), polys(ring=R3, max_exp=5), st.sampled_from(R3.names))
@settings(max_examples=100)
def test_partial_derivative_product_rule(a, b, name):
    product = (a * b).partial_derivative(name)
    assert product == a.partial_derivative(name) * b + a * b.partial_derivative(name)


def test_series_basics():
    # the constructor pads with zeros up to the order and truncates above it
    one, two = R2.one(), R2.const(2)
    s = TruncatedSeries(R2, [one, two], 8)
    assert s.coeffs == [one, two] + [R2.zero()] * 7
    assert TruncatedSeries(R2, s.coeffs, 1).coeffs == [one, two]
    with pytest.raises(DomainError):
        TruncatedSeries(R2, [one], -1)
    with pytest.raises(RegistryError):
        TruncatedSeries(R2, [Ring(("x",)).one()])


def test_over_t2_refuses_a_low_remainder():
    u = R2.var("u")
    coeffs = [R2.zero(), R2.one(), u + 1, 3 * u]
    assert over_t2(coeffs, [0, 1, 1]) == [u, 3 * u]
    assert over_t2(coeffs, [0, 1]) == [u + 1, 3 * u]
    for low, index in (([1, 1, 1], 0), ([0, 0, 1], 1)):
        with pytest.raises(SeriesError, match="cannot divide by t\\^2") as exc:
            over_t2(coeffs, low)
        assert exc.value.index == index


# ---------------------------------------------------------------------------
# naive oracle: schoolbook convolution and the division recurrence on plain
# {exponent tuple: coefficient} dicts, sharing no code with the series kernel


def naive_product(a, b, order):
    """Term dicts of a * b through t^order, from lists of term dicts."""
    out = [{} for _ in range(order + 1)]
    for i, ta in enumerate(a[: order + 1]):
        for j, tb in enumerate(b[: order + 1 - i]):
            for ea, ca in ta.items():
                for eb, cb in tb.items():
                    key = tuple(x + y for x, y in zip(ea, eb))
                    out[i + j][key] = out[i + j].get(key, 0) + ca * cb
    return [{e: c for e, c in d.items() if c} for d in out]


def naive_quotient(num, den, order):
    """Term dicts of num / den through t^order; den[0] must be the unit."""
    out = []
    for k in range(order + 1):
        acc = dict(num[k]) if k < len(num) else {}
        for j in range(1, min(k, len(den) - 1) + 1):
            for ed, cd in den[j].items():
                for eo, co in out[k - j].items():
                    key = tuple(x + y for x, y in zip(ed, eo))
                    acc[key] = acc.get(key, 0) - cd * co
        out.append({e: c for e, c in acc.items() if c})
    return out


def dicts(coeffs):
    return [c.terms for c in coeffs]


def from_table(ring, table, order):
    """The series sum of c t^k over {k: c} through t^order; c an int or MultiPoly."""
    coeffs = [ring.zero()] * (order + 1)
    for k, c in table.items():
        coeffs[k] = ring.zero() + c
    return TruncatedSeries(ring, coeffs, order)


@given(series())
@settings(max_examples=40)
def test_divide_by_multiplies_back(s):
    den = from_table(R2, {0: 1, 1: R2.var("u"), 3: -2}, s.order)
    q = s.divide_by(den)
    assert naive_product(dicts(q.coeffs), dicts(den.coeffs), s.order) == dicts(s.coeffs)


@given(series())
@settings(max_examples=40)
def test_geometric_inverse(s):
    body = TruncatedSeries(R2, [R2.zero()] + s.coeffs, s.order)  # t * s
    inv = body.compose_geometric()
    one = {(0, 0): 1}
    den = [one] + [{e: -c for e, c in t.items()} for t in dicts(body.coeffs)[1:]]
    assert naive_product(dicts(inv.coeffs), den, s.order) == [one] + [{}] * s.order


RINGS = [Ring(("a", "b", "c", "e")[:arity]) for arity in range(5)]
# exponents per variable, shrinking with arity so the packed boxes stay small
MAX_EXP = [0, 5, 3, 2, 1]
COEFFS = st.one_of(
    st.sampled_from([-1, 1]),  # unit coefficients cancel often
    st.integers(-9, 9),
    st.integers(-(2 ** 200), 2 ** 200),
)


def wide_polys(arity):
    term = st.tuples(st.tuples(*[st.integers(0, MAX_EXP[arity])] * arity), COEFFS)
    return st.lists(term, max_size=4).map(lambda items: RINGS[arity].poly(dict(items)))


def wide_series(arity, order, unit=False):
    """Series over RINGS[arity] through t^order, often zero or sparse."""
    coeffs = st.lists(
        st.one_of(st.just(RINGS[arity].zero()), wide_polys(arity)), max_size=order + 1
    )
    if unit:
        coeffs = coeffs.map(lambda cs: [RINGS[arity].one()] + cs[1:])
    return coeffs.map(lambda cs: TruncatedSeries(RINGS[arity], cs, order))


def series_pairs(unit=False):
    """Two series over one ring of arity 0..4, with independent orders."""
    return st.tuples(st.integers(0, 4), st.integers(0, 6), st.integers(0, 6)).flatmap(
        lambda aoo: st.tuples(wide_series(aoo[0], aoo[1]), wide_series(aoo[0], aoo[2], unit))
    )


@given(series_pairs(unit=True))
@settings(max_examples=150, deadline=None)
def test_division_matches_naive_recurrence(pair):
    num, den = pair
    n = min(num.order, den.order)
    got = num.divide_by(den)
    assert got.order == n
    assert dicts(got.coeffs) == naive_quotient(dicts(num.coeffs), dicts(den.coeffs), n)


@given(st.tuples(st.integers(0, 4), st.integers(0, 6)).flatmap(lambda ao: wide_series(*ao)))
@settings(max_examples=100, deadline=None)
def test_geometric_inverse_matches_naive_recurrence(s):
    ring = s.ring
    body = TruncatedSeries(ring, [ring.zero()] + s.coeffs[1:], s.order)
    one = {(0,) * ring.arity: 1}
    den = [one] + [{e: -c for e, c in t.items()} for t in dicts(body.coeffs)[1:]]
    assert dicts(body.compose_geometric().coeffs) == naive_quotient([one], den, s.order)


@given(series_pairs(unit=True), st.integers(0, 8))
@settings(max_examples=100, deadline=None)
def test_rational_expansion_matches_naive_recurrence(pair, order):
    num, den = pair
    ring = num.ring
    gf = RationalGF(
        ring,
        {k: c for k, c in enumerate(num.coeffs)},
        {k: c for k, c in enumerate(den.coeffs)},
    )
    got = gf.expand(order)
    assert dicts(got) == naive_quotient(dicts(num.coeffs), dicts(den.coeffs) + [{}] * order, order)


@pytest.mark.parametrize("c", [2 ** 63 - 1, 2 ** 64, -(2 ** 63), -(2 ** 64) + 1])
@pytest.mark.parametrize("arity", [0, 1])
def test_binomial_powers_cross_slot_width_edges(c, arity):
    ring = RINGS[arity]
    order = 12
    step = ring.const(c) if arity == 0 else ring.monomial(c, a=1)
    base = TruncatedSeries(ring, [ring.one(), step], order)
    naive = dicts(TruncatedSeries(ring, [ring.one()], order).coeffs)
    for k in range(1, order + 1):
        lower, naive = naive, naive_product(naive, dicts(base.coeffs), order)
        assert naive[k] == {(k,) * arity: c ** k}
        power = TruncatedSeries(ring, [MultiPoly(ring, t) for t in naive], order)
        # dividing (1 + ct)^k by 1 + ct gives (1 + ct)^(k-1)
        assert dicts(power.divide_by(base).coeffs) == lower
    assert dicts(power.divide_by(base).coeffs) == naive_quotient(naive, dicts(base.coeffs), order)
    # 1 / (1 + ct) alternates
    inverse = TruncatedSeries(ring, [ring.one()], order).divide_by(base)
    assert [sum(t.values()) for t in dicts(inverse.coeffs)] == [(-c) ** k for k in range(order + 1)]


@pytest.mark.parametrize("s", range(0, 36))
@pytest.mark.parametrize("sign", [1, -1])
def test_summed_products_cross_slot_width_edges(s, sign):
    # 1 / (1 - c a (t + t^2 + t^3)) with c = +-2^s: each quotient step sums
    # c * out_(k-j) over j = 1..3 in one packed sum, for every byte offset;
    # a^2 t^4 takes three equal products (t^(1+3), t^(3+1), t^(2+2))
    ring = RINGS[1]
    c = sign * 2 ** s
    step = ring.monomial(-c, a=1)
    den = TruncatedSeries(ring, [ring.one(), step, step, step], 5)
    got = dicts(TruncatedSeries(ring, [ring.one()], 5).divide_by(den).coeffs)
    assert got == naive_quotient([{(0,): 1}], dicts(den.coeffs), 5)
    assert got[4] == {(2,): 3 * c ** 2, (3,): 3 * c ** 3, (4,): c ** 4}


def test_all_zero_series():
    for ring in RINGS:
        zero = TruncatedSeries(ring, [], 5)
        one = TruncatedSeries(ring, [ring.one()], 3)
        assert dicts((zero * 7).coeffs) == [{}] * 6
        assert dicts((one * 0).coeffs) == [{}] * 4
        assert dicts(zero.divide_by(one).coeffs) == [{}] * 4
        assert dicts(zero.compose_geometric().coeffs) == [one.coeffs[0].terms] + [{}] * 5


def test_series_refuse_mixed_rings():
    x_ring = Ring(("x",))
    s = TruncatedSeries(R2, [R2.one()], 3)
    t = TruncatedSeries(x_ring, [x_ring.one()], 3)
    with pytest.raises(RegistryError):
        s.divide_by(t)
    with pytest.raises(RegistryError):
        s * x_ring.var("x")
    # a series multiplies only by a scalar
    with pytest.raises(TypeError):
        s * t


def test_negative_exponents_are_refused():
    with pytest.raises(DomainError):
        R2.var("u", -1)
    with pytest.raises(DomainError):
        R2.monomial(3, d=-2)
    with pytest.raises(DomainError):
        Ring(("x",)).poly({(-2,): 3})


def test_divide_by_requires_unit_constant():
    s = TruncatedSeries(R2, [R2.one()], 4)
    den = TruncatedSeries(R2, [R2.const(2)], 4)
    with pytest.raises(SeriesError):
        s.divide_by(den)


def test_rational_gf_rejects_bad_denominator():
    with pytest.raises(SeriesError):
        RationalGF(R2, {0: 1}, {0: 2})
    with pytest.raises(SeriesError):
        RationalGF(R2, {0: 1}, {1: 1})


def test_negative_t_powers_are_refused():
    ring = Ring(("u",))
    with pytest.raises(DomainError):
        RationalGF(ring, {-1: 1, 1: 1}, {0: 1})
    with pytest.raises(DomainError):
        RationalGF(ring, {0: 1}, {0: 1, -2: 7})
    with pytest.raises(DomainError):
        RationalGF(ring, {-1: 0, 1: 1})


def test_edge_gf_denominator_is_the_squared_fibonacci_factor():
    # (1 - t - t^2)^2, from two table-built factors that share it
    gf = enumerators.edge_gf()
    want = {0: 1, 1: -2, 2: -1, 3: 2, 4: 1}
    assert gf.denominator == {k: gf.ring.const(c) for k, c in want.items()}
    assert gf.numerator == {1: gf.ring.const(1), 5: gf.ring.const(-1)}
    assert list(gf.factors.values()) == [-2]


@pytest.mark.parametrize(
    "gf",
    [
        enumerators.updown_gf(),
        enumerators.down_gf(),
        enumerators.up_gf(),
        enumerators.degree_gf(),
        enumerators.maximal_gf(),
        enumerators.edge_gf(),
        embedding.cube_gf(),
        poset.rank_gf(),
    ],
    ids=["updown", "down", "up", "degree", "maximal", "edge", "cube", "rank"],
)
def test_expansions_multiply_back_to_numerator(gf):
    order = 40
    s = gf.expand(order)
    num = from_table(gf.ring, gf.numerator, order)
    den = from_table(gf.ring, gf.denominator, order)
    assert naive_product(dicts(s), dicts(den.coeffs), order) == dicts(num.coeffs)


@given(series_pairs(unit=True), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_coefficient_stream_is_the_expansion(pair, order):
    num, den = pair
    gf = RationalGF(num.ring, dict(enumerate(num.coeffs)), dict(enumerate(den.coeffs)))
    expansion = gf.expand(order)
    assert isinstance(expansion, list)
    assert list(gf.coefficients(order)) == expansion


@pytest.mark.parametrize("make", [enumerators.updown_gf, enumerators.edge_gf, poset.rank_gf])
def test_coefficient_stream_refuses_before_it_starts(make):
    gf = make()
    assert list(gf.coefficients(30)) == gf.expand(30)
    # a refused order raises from the call itself, not from the first next()
    with pytest.raises(ResourceLimitError, match="series quotient"):
        gf.coefficients(10 ** 7)
    with pytest.raises(DomainError):
        gf.coefficients(-1)


# --- the quotient's slot width --------------------------------------------------


def a_priori_width(num, den, order):
    """Slot bytes of the 1-norm bound B_k = |num_k|_1 + sum_j |den_j|_1 B_(k-j)."""
    norm = lambda terms: sum(map(abs, terms.values()))
    bounds = []
    for k in range(order + 1):
        b = norm(num[k]) if k < len(num) else 0
        b += sum(norm(den[j]) * bounds[k - j] for j in range(1, min(k, len(den) - 1) + 1))
        bounds.append(b)
    return (max(bounds).bit_length() + 2 + 7) // 8


def streamed_widths(gf, order):
    """(term dicts, the slot width each was computed at) of gf through t^order."""
    layout, stream = gf._quotient(order)
    out, widths = [], []
    for live, coeffs in stream:
        out.append(layout.terms(live, coeffs))
        widths.append(layout.width)
    return out, widths


@st.composite
def steep_quotients(draw):
    """(ring, num, den, order): small numerators over denominators like 1 - 1000 u t - 999 t^2.

    The coefficients grow by about ten bits a step, so the slots widen
    again and again from one byte.
    """
    arity = draw(st.integers(0, 2))
    ring = RINGS[arity]
    big = st.integers(999, 2000).flatmap(lambda c: st.sampled_from([c, -c]))
    monomial = st.tuples(*[st.integers(0, 2)] * arity)
    row = st.dictionaries(monomial, big, min_size=1, max_size=3)
    den = [{(0,) * arity: 1}, draw(row), draw(st.one_of(st.just({}), row))]
    num = draw(st.lists(
        st.dictionaries(monomial, st.integers(-9, 9).filter(bool), max_size=3), min_size=1, max_size=3
    ))
    return ring, num, den, draw(st.integers(6, 24))


@given(steep_quotients())
@settings(max_examples=80, deadline=None)
def test_widening_slots_match_naive_recurrence(case):
    ring, num, den, order = case
    gf = RationalGF(
        ring,
        {k: ring.poly(t) for k, t in enumerate(num)},
        {k: ring.poly(t) for k, t in enumerate(den)},
    )
    got, widths = streamed_widths(gf, order)
    assert got == naive_quotient(num, den, order)
    assert widths == sorted(widths)
    assert widths[-1] <= a_priori_width(num, den, order)
    biggest = max((abs(c) for t in got for c in t.values()), default=0)
    if biggest >> 64:
        # nine bytes at least, from one, at most about two bytes a step
        assert len(set(widths)) >= 3


def test_updown_slots_fit_its_coefficients():
    gf = enumerators.updown_gf()
    num, den = gf.numerator, gf.denominator
    got, widths = streamed_widths(gf, 100)
    assert got == dicts(gf.expand(100))
    # the largest coefficient has 64 bits, so 9 bytes would do; the 1-norm
    # bound B_k (131 bits) asks for 17
    assert max(abs(c) for t in got for c in t.values()).bit_length() == 64
    width = a_priori_width(
        [num.get(k, gf.ring.zero()).terms for k in range(max(num) + 1)],
        [den.get(k, gf.ring.zero()).terms for k in range(max(den) + 1)],
        100,
    )
    assert widths[-1] <= 11 and width == 17


# --- the Kronecker layout: pack and unpack --------------------------------------


@st.composite
def packed_polys(draw):
    """(layout, a term dict it holds).

    The exponents stay inside a random low corner of the box, often far
    inside it, and the coefficients reach +-bound, the extremes a slot must hold.
    """
    arity = draw(st.integers(0, 3))
    degrees = draw(st.lists(st.integers(0, 6), min_size=arity, max_size=arity))
    bound = draw(st.one_of(st.sampled_from([1, 63, 64, 2 ** 62, 2 ** 200]), st.integers(1, 2 ** 90)))
    layout = polyseries._Layout(degrees, bound)
    corner = [draw(st.integers(0, d)) for d in degrees]
    coeff = st.one_of(st.sampled_from([-bound, -1, 1, bound]), st.integers(-bound, bound))
    term = st.tuples(st.tuples(*[st.integers(0, r) for r in corner]), coeff)
    terms = st.lists(term, max_size=6).map(lambda items: {e: c for e, c in items if c})
    return layout, draw(terms)


@given(packed_polys())
@settings(max_examples=300, deadline=None)
def test_layout_round_trip(case):
    layout, terms = case
    assert layout.unpack(layout.pack(terms)) == terms


@given(packed_polys(), st.integers(1, 12))
@settings(max_examples=200, deadline=None)
def test_widened_value_is_the_wider_packing(case, extra):
    layout, terms = case
    wide = copy.copy(layout)
    wide.width += extra
    value = layout.widened(layout.pack(terms), wide.width)
    assert value == wide.pack(terms)
    assert wide.unpack(value) == terms


@pytest.mark.parametrize(
    "degrees, bound, blocks",
    [
        ([3], 5, [{}]),  # the zero value
        ([3], 5, [{(3,): -1}]),  # -1 alone in the top slot of the box
        ([3], 5, [{(0,): 5, (2,): -5}]),  # negative top slot above a positive one
        # |value| = 2^(8w*2) - 1, the fewest bits a top slot 2 can leave
        ([3], 5, [{(0,): 1, (2,): -1}]),
        ([3], 5, [{(0,): -1, (2,): 1}]),
        ([40, 40], 2 ** 64, [{(0, 0): -(2 ** 64)}]),  # one slot of a 1681-slot box
        ([2], 1, [{(1,): -1}, {}, {(0,): 1, (2,): -1}]),  # one-byte slots, negative top slot
    ],
)
def test_layout_round_trip_edges(degrees, bound, blocks):
    # each term dict in `blocks` is packed on its own into the same layout
    layout = polyseries._Layout(degrees, bound)
    for terms in blocks:
        assert layout.unpack(layout.pack(terms)) == terms


# --- substitution kernel: map_onto, substitute and evaluate_at ----------------

XY = Ring(("x", "y"))
BIG = 1 << 70


def naive_map(poly, target, images):
    """Expand every term by repeated multiplication: the oracle for map_onto."""
    out = target.zero()
    for exps, c in poly.terms.items():
        term = target.const(c)
        for name, e in zip(poly.ring.names, exps):
            for _ in range(e):
                term = term * images[name]
        out = out + term
    return out


def images(target):
    """An image in `target`: an integer, c * monomial, or a general polynomial."""
    coeff = st.sampled_from([1, -1, 2, -3, BIG, -BIG])
    exps = st.tuples(*[st.integers(0, 3)] * target.arity)
    return st.one_of(
        st.sampled_from([0, 1, -1, 2, -5, BIG, -BIG]).map(target.const),
        st.builds(lambda c, e: target.poly({e: c}), coeff, exps),
        polys(ring=target, max_terms=3, max_exp=2, max_coeff=3),
    )


def no_zero_terms(poly):
    return all(poly.terms.values())


@given(polys(max_exp=3), images(XY), images(XY))
@settings(max_examples=150)
def test_map_onto_matches_naive_expansion(p, u_img, d_img):
    got = p.map_onto(XY, {"u": u_img, "d": d_img})
    assert got == naive_map(p, XY, {"u": u_img, "d": d_img})
    assert no_zero_terms(got)


@given(polys(max_exp=3), images(R2), st.sampled_from(R2.names))
@settings(max_examples=150)
def test_substitute_matches_naive_expansion(p, img, name):
    got = p.substitute(name, img)
    oracle = {n: R2.var(n) for n in R2.names}
    oracle[name] = img
    assert got == naive_map(p, R2, oracle)
    assert no_zero_terms(got)


@given(polys(max_exp=3), st.sampled_from([0, 1, -1, 2, BIG, -BIG]), st.sampled_from(R2.names))
def test_evaluate_at_matches_naive_expansion(p, value, name):
    oracle = {n: R2.var(n) for n in R2.names}
    oracle[name] = R2.const(value)
    got = p.evaluate_at(name, value)
    assert got == naive_map(p, R2, oracle)
    assert no_zero_terms(got)


def test_monomial_images_cancel_terms():
    u, d = R2.var("u"), R2.var("d")
    x, y = XY.var("x"), XY.var("y")
    p = u * d ** 2 - u ** 2 * d + 3 * u
    assert p.map_onto(XY, {"u": x, "d": x}).terms == {(1, 0): 3}
    assert (u + d).map_onto(XY, {"u": -BIG * y, "d": BIG * y}).terms == {}
    assert (u * d - 2 * u).substitute("d", 2).terms == {}
    assert (u - d).evaluate_at("u", 0) == -d


def test_monomial_images_never_expand(monkeypatch):
    from runcube import polyseries

    def refuse(*args):
        raise AssertionError("a monomial image took the expansion path")

    u, d = R2.var("u"), R2.var("d")
    p = (u + 2 * d + 1) ** 3
    want_x = p.map_onto(XY, {"u": XY.var("x"), "d": -BIG * XY.var("x", 2)})
    monkeypatch.setattr(polyseries, "_mul_terms", refuse)
    assert p.map_onto(XY, {"u": XY.var("x"), "d": -BIG * XY.var("x", 2)}) == want_x
    p.substitute("u", d)
    p.evaluate_at("d", -1)


def test_general_images_take_the_expansion_path(monkeypatch):
    from runcube import polyseries

    def refuse(*args):
        raise AssertionError("a general image took the monomial path")

    monkeypatch.setattr(polyseries, "_map_monomials", refuse)
    u, d = R2.var("u"), R2.var("d")
    assert (u ** 2 + 3 * d).substitute("u", d + 1) == d ** 2 + 5 * d + 1
    with pytest.raises(AssertionError):
        u.substitute("u", d)


def test_substitution_errors_are_registry_errors():
    u, d = R2.var("u"), R2.var("d")
    p = u * d + 1
    x = XY.var("x")
    with pytest.raises(RegistryError):
        p.substitute("z", d)
    with pytest.raises(RegistryError):
        p.substitute("u", x)
    with pytest.raises(RegistryError):
        p.evaluate_at("z", 1)
    with pytest.raises(RegistryError):
        p.map_onto(XY, {"u": x})
    with pytest.raises(RegistryError):
        p.map_onto(XY, {"u": x, "d": d})


# --- factored rational functions ---------------------------------------------

X1 = Ring(("x",))


def atoms(ring):
    """Rational pieces over `ring` that share factors: 1/(1 - v t), 1/(1 - t^2),
    1/(1 - t - v t^3), a nested geometric whose numerator holds 1 - t^2, and
    1/(1 - t - v t^2) from the table constructor."""
    v = ring.var(ring.names[0])
    tp = lambda table: RationalGF(ring, table)
    g1 = tp({1: v}).geometric()
    g2 = tp({2: 1}).geometric()
    g3 = tp({1: 1, 3: v}).geometric()
    nested = (tp({3: v}) + tp({5: v * v}) * g2).geometric()
    quotient = RationalGF(ring, {0: 1}, {0: 1, 1: -1, 2: -v})
    return [g1, g2, g3, nested, quotient]


def factored(ring):
    """A polynomial times a product of atoms, each to a power 0..2."""
    pieces = atoms(ring)
    poly = st.lists(
        st.tuples(st.integers(0, 3), polys(ring=ring, max_terms=2, max_exp=2, max_coeff=5)),
        max_size=3,
    ).map(lambda items: RationalGF(ring, dict(items)))
    powers = st.lists(st.integers(0, 2), min_size=len(pieces), max_size=len(pieces))

    def build(p, ks):
        for piece, k in zip(pieces, ks):
            for _ in range(k):
                p = p * piece
        return p

    return st.builds(build, poly, powers)


def factored_pairs():
    return st.sampled_from([R2, X1]).flatmap(lambda ring: st.tuples(factored(ring), factored(ring)))


ORDER = 9


@given(factored_pairs())
@settings(max_examples=60, deadline=None)
def test_factored_product_and_sum_match_series_arithmetic(pair):
    a, b = pair
    sa, sb = a.expand(ORDER), b.expand(ORDER)
    assert dicts((a * b).expand(ORDER)) == naive_product(dicts(sa), dicts(sb), ORDER)
    assert (a + b).expand(ORDER) == [x + y for x, y in zip(sa, sb)]
    assert (a - b).expand(ORDER) == [x - y for x, y in zip(sa, sb)]


@given(factored_pairs())
@settings(max_examples=40, deadline=None)
def test_factored_geometric_matches_compose_geometric(pair):
    a, b = pair
    t = RationalGF(a.ring, {1: 1})
    body = t * a + t * t * b
    zero = a.ring.zero()
    sa, sb = a.expand(ORDER), [zero] + b.expand(ORDER)
    # the coefficient of t^k in t a + t^2 b is a_(k-1) + b_(k-2)
    want = TruncatedSeries(a.ring, [zero] + [x + y for x, y in zip(sa, sb)], ORDER)
    assert body.geometric().expand(ORDER) == want.compose_geometric().coeffs


@pytest.mark.parametrize("ring", [R2, X1], ids=["u,d", "x"])
def test_sum_keeps_the_larger_denominator_power_of_a_shared_factor(ring):
    v = ring.var(ring.names[0])
    tp = lambda table: RationalGF(ring, table)
    inv = tp({1: v}).geometric()                   # 1/(1 - v t)
    other = tp({2: 1}).geometric()                 # 1/(1 - t^2), unshared
    a = tp({0: 3, 1: v}) * inv * inv
    b = tp({0: 1, 2: -2}) * inv * other
    total = a + b
    key = frozenset({(0,) * (ring.arity + 1): 1, (1,) + (1,) + (0,) * (ring.arity - 1): -1}.items())
    assert total.factors[key] == -2
    assert sorted(total.factors.values()) == [-2, -1]
    sa, sb = a.expand(12), b.expand(12)
    assert total.expand(12) == [x + y for x, y in zip(sa, sb)]
    # 1/(1 - t/(1 - v t)) = (1 - v t)/(1 - (v + 1) t) holds 1 - v t as a
    # numerator factor, and a product with 1/(1 - v t) cancels it
    back = (tp({1: 1}) * inv).geometric()
    assert sorted(back.factors.values()) == [-1, 1]
    assert list((back * inv).factors.values()) == [-1]
    assert (back * inv).expand(8) == tp({1: v + 1}).geometric().expand(8)


def test_geometric_moves_the_denominator_into_the_numerator():
    d = R2.var("d")
    tp = lambda table: RationalGF(R2, table)
    g2 = tp({2: 1}).geometric()
    G = tp({3: d}) + tp({5: d * d}) * g2
    Y = G * G * G.geometric()
    # G = N/(1 - t^2) and 1/(1 - G) = (1 - t^2)/(1 - t^2 - N), so Y keeps one power of 1 - t^2
    assert sorted(Y.factors.values()) == [-1, -1]
    gs = G.expand(14)
    square = naive_product(dicts(gs), dicts(gs), 14)
    geometric = TruncatedSeries(R2, gs, 14).compose_geometric()
    assert dicts(Y.expand(14)) == naive_product(square, dicts(geometric.coeffs), 14)


def test_factored_refusals():
    with pytest.raises(SeriesError):
        RationalGF(R2, {0: 1, 1: 1}).geometric()
    with pytest.raises(RegistryError):
        RationalGF(R2, {1: 1}) * RationalGF(X1, {1: 1})
    with pytest.raises(RegistryError):
        RationalGF(R2, {1: X1.var("x")})
    with pytest.raises(DomainError):
        RationalGF(R2, {-1: 1})
    assert RationalGF(R2, {}).geometric().expand(3) == [R2.one()] + [R2.zero()] * 3
    want = [R2.const(2), R2.const(-3), R2.zero()]
    assert (2 + RationalGF(R2, {1: 1}) * -3).expand(2) == want


# --- the packed-layout cap -----------------------------------------------------


def _need(message):
    return int(str(message).split("layout of ")[1].split(" bytes")[0])


def test_series_quotient_cap_fires_inside_the_bound_recurrence(monkeypatch):
    ring = RINGS[0]
    order = 10 ** 6
    one = from_table(ring, {0: 1}, order)
    den = from_table(ring, {0: 1, 1: -1, 2: -1}, order)
    steps = []
    check = polyseries._refuse_oversized

    def counted(*args):
        steps.append(args)
        return check(*args)

    monkeypatch.setattr(polyseries, "_refuse_oversized", counted)
    monkeypatch.setattr(polyseries, "PACKED_MAX_BYTES", 1 << 24)
    with pytest.raises(ResourceLimitError, match=r"series quotient through t\^1000000 "):
        one.divide_by(den)
    # 16 MiB over 10^6 blocks allows 16-byte slots: the Fibonacci bound
    # outgrows them after about 180 steps, long before the last
    assert len(steps) < 300


def test_series_quotient_cap_is_exact(monkeypatch):
    gf = enumerators.updown_gf()
    want = gf.expand(12)
    # the recurrence refuses at the first step whose running layout is over
    # the cap, so raising the cap to each reported need walks up to the whole
    need = 1
    while True:
        monkeypatch.setattr(polyseries, "PACKED_MAX_BYTES", need)
        try:
            got = gf.expand(12)
            break
        except ResourceLimitError as exc:
            assert "series quotient through t^12" in str(exc)
            assert _need(exc) > need
            need = _need(exc)
    assert got == want
    monkeypatch.setattr(polyseries, "PACKED_MAX_BYTES", need - 1)
    with pytest.raises(ResourceLimitError):
        gf.expand(12)


@pytest.mark.parametrize("argv", [["gf", "--kind", "edge", "--order", "400"], ["verify", "gf", "--order", "30"]])
def test_series_over_the_cap_is_usage_error(monkeypatch, capsys, argv):
    from runcube import cli

    monkeypatch.setattr(polyseries, "PACKED_MAX_BYTES", 1000)
    assert cli.main(argv) == 2
    assert "needs a packed layout" in capsys.readouterr().err


def test_rational_expansion_refuses_before_it_allocates(capsys):
    from runcube import cli

    # the numerator and denominator stay sparse tables, so nothing of size
    # order + 1 exists when the first step of the bound recurrence refuses
    tracemalloc.start()
    try:
        code = cli.main(["gf", "--kind", "edge", "--order", "10000000"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == (
        "error: series quotient through t^10000000 needs a packed layout of"
        " 270000027 bytes, cap is 268435456\n"
    )
    assert peak < 8 << 20
