import numpy as np
import pytest

from goldens import POSET_PAIRS, POSET_VIOLATIONS
from runcube import enumerators, graph, poset, strings
from runcube.errors import ResourceLimitError, ValidationError
from runcube.polyseries import RationalGF


# The brute oracle: the per-pair closures that answered the poset before the
# reachability bitsets, over the set of full-string masks of R_n.


def _members(n):
    return {int(m) for m in strings.rc_masks(n + 2)}


def _up_closure_within(members, start, box):
    """Masks reachable from `start` by valid flips 0 -> 1 inside `box`."""
    free = box & ~start
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for mask in frontier:
            todo = free & ~mask
            while todo:
                bit = todo & -todo
                todo ^= bit
                cand = mask | bit
                if cand not in seen and cand in members:
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return seen


def _down_closure_above(members, start, floor):
    """Masks reachable from `start` by valid flips 1 -> 0 keeping `floor`."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for mask in frontier:
            todo = mask & ~floor
            while todo:
                bit = todo & -todo
                todo ^= bit
                cand = mask ^ bit
                if cand not in seen and cand in members:
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return seen


def _interval_masks(members, a, b):
    if a & ~b:
        return []
    up = _up_closure_within(members, a, b)
    if b not in up:
        return []
    return sorted(up & _down_closure_above(members, b, a))


def _mobius_on_interval(members, interval):
    """mu(bottom, w) for every w in an interval, bottom = interval[0]."""
    order = sorted(interval, key=lambda m: (m.bit_count(), m))
    mu = {order[0]: 1}
    for w in order[1:]:
        below = [z for z in order if z != w and w in _up_closure_within(members, z, w)]
        mu[w] = -sum(mu[z] for z in below)
    return mu


@pytest.mark.parametrize("n", range(1, 11))
def test_single_pair_api_matches_the_closure_oracle(n):
    members = _members(n)
    vertices = sorted(members)
    for a in vertices:
        for b in vertices:
            want = _interval_masks(members, a, b)
            u, v = a >> 2, b >> 2
            assert poset.leq(n, u, v) is bool(want)
            assert poset.interval(n, u, v) == [poset._to_label(n, m) for m in want]
            mu = _mobius_on_interval(members, want)[b] if want else 0
            assert poset.mobius_recursive(n, u, v) == mu


def test_rank_polynomial_formula_vs_census():
    for n in range(1, 13):
        poly = poset.rank_polynomial(n)
        census = {}
        for word in strings.enumerate_rc(n + 2):
            census[word.count("1")] = census.get(word.count("1"), 0) + 1
        want = poset.X_RING.poly({(k,): c for k, c in census.items()})
        assert poly == want


def test_rank_polynomial_at_one_counts_vertices():
    for n in range(1, 26):
        assert poset.rank_polynomial(n).evaluate({"x": 1}) == strings.fibonacci(n + 2)


def test_printed_rank_polynomials():
    assert poset.rank_polynomial(1).render() == "1 + x"
    assert poset.rank_polynomial(2).render() == "1 + 2*x"
    assert poset.rank_polynomial(3).render() == "1 + 3*x + x^2"
    assert poset.rank_polynomial(4).render() == "1 + 4*x + 3*x^2"


def test_leq_is_reachability_not_containment():
    # containment holds but no chain of valid flips connects these
    assert poset.leq(7, "1001000", "1111000") is False
    assert poset.leq(8, "01001000", "01111000") is False
    assert poset.leq(8, "10010000", "11110000") is False
    # whereas ordinary comparabilities remain
    assert poset.leq(7, "0000000", "1111000") is True
    assert poset.leq(5, "00100", "11100") is True


def test_leq_rejects_non_vertices():
    with pytest.raises(ValidationError):
        poset.leq(4, "0011", "0011")
    with pytest.raises(ValidationError):
        poset.leq(4, "000", "0000")
    for bad in (-1, 1 << 4, 0b0011):
        with pytest.raises(ValidationError):
            poset.leq(4, bad, 0b1000)


PAIR_QUERIES = [poset.leq, poset.interval, poset.mobius, poset.mobius_recursive]


@pytest.mark.parametrize("query", PAIR_QUERIES, ids=lambda f: f.__name__)
@pytest.mark.parametrize("bad", [0.5, np.float64(2.0), True, None], ids=repr)
def test_pair_queries_refuse_non_integer_vertices(query, bad):
    # a float or a bool is refused, not truncated to a mask
    with pytest.raises(ValidationError):
        query(4, bad, "1000")
    with pytest.raises(ValidationError):
        query(4, "0000", bad)


@pytest.mark.parametrize("query", PAIR_QUERIES, ids=lambda f: f.__name__)
def test_pair_queries_take_numpy_integer_masks(query):
    assert query(5, np.int64(0b00100), np.int64(0b11100)) == query(5, "00100", "11100")
    assert query(5, np.int32(0), 0b11000) == query(5, "00000", "11000")


def test_minimal_interval_counterexample():
    # the smallest non-Boolean interval: a 3-chain where a 4-cycle should be
    assert poset.interval(5, "00100", "11100") == ["00100", "01100", "11100"]
    assert poset.mobius(5, "00100", "11100") == 1
    assert poset.mobius_recursive(5, "00100", "11100") == 0
    # the full-box variant one level up: 7 elements instead of 8
    box = poset.interval(5, "00000", "11100")
    assert len(box) == 7
    assert "10100" not in box  # 1010000 breaks the run condition
    assert poset.mobius_recursive(5, "00000", "11100") == 0
    assert poset.mobius(5, "00000", "11100") == -1


def test_interval_that_is_a_genuine_cube():
    members = poset.interval(6, "000000", "110001")
    assert len(members) == 8
    g = graph.build(6)
    dist = graph.bfs_distances(g, "000000")
    assert int(dist[g.index_of("110001")]) == 3
    assert poset.mobius_recursive(6, "000000", "110001") == -1
    assert poset.mobius(6, "000000", "110001") == -1


def test_boolean_interval_survey_frozen_counts():
    for n in sorted(POSET_PAIRS):
        survey = poset.verify_boolean_intervals(n)
        assert survey["pairs_checked"] == POSET_PAIRS[n]
        assert len(survey["violations"]) == POSET_VIOLATIONS[n]


def test_survey_violation_records_are_descriptive():
    survey = poset.verify_boolean_intervals(5)
    first = survey["violations"][0]
    assert first["bottom"] == "00100"
    assert first["top"] == "11100"
    assert first["expected_size"] == 4
    assert first["actual_size"] == 3
    assert first["first_missing"] == "10100"


def comparable_pairs(n):
    """All ordered pairs a <= b of full-string masks, smallest rank gap first."""
    masks, up, _ = poset._whole(n)
    return [(masks[i], masks[j]) for i, j in poset._index_pairs(masks, up)]


def test_mobius_agreement_below_five():
    for n in range(1, 5):
        for a, b in comparable_pairs(n):
            got = poset.mobius_recursive(n, a >> 2, b >> 2)
            assert got == poset.mobius(n, a >> 2, b >> 2)


def test_mobius_mismatch_counts_from_five():
    for n, want in ((5, 3), (6, 6), (7, 16), (8, 38)):
        mismatches = 0
        for a, b in comparable_pairs(n):
            if poset.mobius_recursive(n, a >> 2, b >> 2) != poset.mobius(
                n, a >> 2, b >> 2
            ):
                mismatches += 1
        assert mismatches == want


def test_maximal_tables_verbatim():
    for n, table in poset.MAXIMAL_TABLES.items():
        got = [label + "00" for label in graph.maximal_vertices(n)]
        assert got == sorted(table)


def test_rank_and_maximal_reports():
    assert poset.rank_check(n_max=10).ok
    assert poset.maximal_gf_check(order=24, brute_max=14).ok


@pytest.mark.parametrize("order", [1, 8, 12])
def test_maximal_report_passes_below_the_printed_prefix(order):
    # MAXIMAL_PREFIX has 13 terms; a shorter order must not fail on it
    rep = poset.maximal_gf_check(order=order, brute_max=4)
    assert rep.ok, "\n".join(rep.failures)


@pytest.mark.parametrize(
    "check, owner, name, mutant, line",
    [
        (
            lambda: poset.rank_check(n_max=8),
            poset,
            "rank_gf",
            lambda real=poset.rank_gf: real() + RationalGF(poset.X_RING, {5: poset.X_RING.var("x")}),
            "FAIL GF matches binomial formula through t^8: first difference at t^5",
        ),
        (
            lambda: poset.maximal_gf_check(brute_max=10),
            graph,
            "_maximal_by_flip_scan",
            lambda n, real=graph._maximal_by_flip_scan: real(n)[: -1 if n == 7 else None],
            "FAIL GF counts maximal vertices through n=10: first difference at t^7",
        ),
        (
            lambda: poset.maximal_gf_check(brute_max=10),
            enumerators,
            "MAXIMAL_PREFIX",
            enumerators.MAXIMAL_PREFIX[:10] + [41] + enumerators.MAXIMAL_PREFIX[11:],
            "FAIL printed count prefix: first difference at t^11",
        ),
    ],
    ids=["rank_gf", "maximal_brute", "maximal_prefix"],
)
def test_series_checks_name_the_first_wrong_power(monkeypatch, check, owner, name, mutant, line):
    monkeypatch.setattr(owner, name, mutant)
    assert check().failures == [line]


def test_rank_polynomial_refuses_an_oversized_n_before_any_binomial(monkeypatch):
    monkeypatch.setattr(poset, "RANK_MAX_N", 6)
    assert poset.rank_polynomial(6).render() == "1 + 6*x + 10*x^2 + 4*x^3"

    def refuse(*args):
        raise AssertionError("a binomial was computed")

    monkeypatch.setattr(poset, "comb", refuse)
    with pytest.raises(ResourceLimitError, match="R_7 refused, n is capped at 6"):
        poset.rank_polynomial(7)


def test_interval_and_mobius_reports_fail_honestly():
    rep = poset.interval_check(n_max=6)
    assert not rep.ok
    assert any("R_5" in line for line in rep.failures)
    rep = poset.mobius_check(n_max=6)
    assert not rep.ok
    assert any("00100" in line for line in rep.failures)


def test_mobius_is_boolean_or_zero():
    # on every comparable pair of R_n, n <= 14, the recursion gives
    # (-1)^(rank difference) when the interval is Boolean and 0 when it is not,
    # so the two false claims fail on exactly the same pairs
    for n in range(1, 15):
        masks, up, down = poset._whole(n)
        pairs = poset._index_pairs(masks, up)
        bad = set(poset._violations(masks, up, down, pairs))
        mus = [poset._mobius_from(up, down, above) for above in poset._bit_lists(up)]
        for i, j in pairs:
            want = 0 if (i, j) in bad else (-1) ** (masks[j] ^ masks[i]).bit_count()
            assert mus[i][j] == want, (n, i, j)
        assert len(bad) == POSET_VIOLATIONS[n]


# slack None sets the cap to 1 byte, otherwise to the bytes needed plus slack
@pytest.mark.parametrize("slack", [None, -1, 0], ids=["one", "need-1", "need"])
@pytest.mark.parametrize(
    "call, nv",
    [
        (lambda: poset.verify_boolean_intervals(6), 21),
        (lambda: poset.mobius_check(6), 21),
        (lambda: poset.interval(6, "000000", "110001"), 8),
    ],
    ids=["survey", "mobius_check", "box"],
)
def test_reach_cap_refuses_before_the_flip_scan(monkeypatch, slack, call, nv):
    need = 2 * nv * nv // 8
    monkeypatch.setattr(poset, "REACH_MAX_BYTES", 1 if slack is None else need + slack)
    scans = []
    flip_scan = graph._flip_scan
    monkeypatch.setattr(graph, "_flip_scan", lambda *args: scans.append(1) or flip_scan(*args))
    if slack == 0:
        call()
        assert scans
    else:
        with pytest.raises(ResourceLimitError, match="needs about %d bytes" % need):
            call()
        assert scans == []


def test_bit_lists_match_the_lowest_bit_loop():
    def lowest_first(x):
        out = []
        while x:
            low = x & -x
            out.append(low.bit_length() - 1)
            x ^= low
        return out

    rng = np.random.default_rng(5)
    cases = [0, 1, 2, 255, 256, (1 << 64) - 1, 1 << 6764, (1 << 6765) - 1]
    cases += [int(rng.integers(0, 1 << 62)) << int(rng.integers(0, 7000)) for _ in range(200)]
    assert poset._bit_lists(cases) == [lowest_first(x) for x in cases]
    assert poset._bit_lists(cases[::-1]) == [lowest_first(x) for x in cases[::-1]]
    assert [poset._bits(x) for x in cases] == [lowest_first(x) for x in cases]
    assert poset._bit_lists([]) == [] and poset._bit_lists([0, 0]) == [[], []]
