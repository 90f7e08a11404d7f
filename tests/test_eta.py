import gc
import hashlib
import json
import random
import time
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import gcd, isqrt, lcm
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from divconv import cli, fixtures, published
from divconv.arith import classify_level, divisors, euler_phi, index_mu
from divconv.eta import (
    SEARCH_BOUND_CEILING,
    STRICT_COMPOSITION_CEILING,
    EtaQuotient,
    LigozatReport,
    SearchCeilingError,
    ligozat_check,
    order_at_infinity,
    search_cusp_forms,
    substitution_scale,
)
from divconv.qseries import eta_quotient_series
from divconv.search import _scaled_inverse, _window_extremes, _windows
from divconv.spaces import profile, search_max_order


def is_square_product_by_value(exps: dict[int, int]) -> bool:
    """Oracle for condition (ii): build the rational and test squares."""
    num = den = 1
    for d, r in exps.items():
        if r >= 0:
            num *= d**r
        else:
            den *= d ** (-r)
    g = gcd(num, den)
    num //= g
    den //= g
    return isqrt(num) ** 2 == num and isqrt(den) ** 2 == den


def dual_congruence(e: EtaQuotient) -> bool:
    """Oracle for the classical companion congruence
    sum (N/delta)*r_delta == 0 (mod 24), which strict quotients meet."""
    N = e.level
    return sum((N // d) * r for d, r in e.exponents) % 24 == 0


def test_ligozat_table4_row1():
    q = EtaQuotient.make(33, {3: 8})
    rep = ligozat_check(q)
    assert rep.cond_i and rep.cond_ii and rep.cond_iii
    assert rep.is_cusp and q.weight == 4
    assert order_at_infinity(q) == 1


def test_ligozat_zero_map():
    rep = ligozat_check(EtaQuotient.make(33, {}))
    assert not rep.cond_iii and not rep.is_modular


# 24 % -24 == 0, so the divisibility check alone would admit a negative key
@pytest.mark.parametrize("exponents", [{0: 1}, {-24: -1}, {-1: 2, 1: 2}])
def test_eta_quotient_key_below_one_is_rejected(exponents):
    with pytest.raises(ValueError, match="exponent key -?[0-9]+ must be >= 1"):
        EtaQuotient.make(24, exponents)


def test_ligozat_weight2_level11():
    q = EtaQuotient.make(11, {1: 2, 11: 2})
    assert q.weight == 2 and ligozat_check(q).is_cusp
    assert order_at_infinity(q) == 1


def test_order_at_infinity_examples():
    assert order_at_infinity(EtaQuotient.make(1, {1: 24})) == 1
    # published level-40 ladder: row i has order i
    for i, row in enumerate(fixtures.BASIS_TABLES[40], start=1):
        assert order_at_infinity(EtaQuotient.make(40, row)) == i
    assert order_at_infinity(EtaQuotient.make(56, fixtures.BASIS_TABLES[56][13])) == 14


def test_table4_orders():
    orders = [
        order_at_infinity(EtaQuotient.make(33, row)) for row in fixtures.BASIS_TABLES[33]
    ]
    assert orders == [1, 2, 3, 4, 5, 6, 7, 8, 3, 10]


def test_orders_match_leading_series_term():
    for q in search_cusp_forms(12, 8, 6, max_order=3):
        s = eta_quotient_series(q.exponent_map, 30)
        o = order_at_infinity(q)
        assert all(s.coefficient(n) == 0 for n in range(o))
        assert s.coefficient(o) != 0


def test_square_condition_two_implementations_agree():
    rng = random.Random(7)
    divs = divisors(120)
    for _ in range(500):
        exps = {d: rng.randint(-6, 6) for d in rng.sample(divs, rng.randint(1, 6))}
        e = EtaQuotient.make(120, exps)
        assert ligozat_check(e).cond_ii == is_square_product_by_value(e.exponent_map)


def test_noncuspidal_published_rows_have_zero_order_sum():
    for N, rows in published.NONCUSPIDAL_ROWS.items():
        for i in rows:
            e = EtaQuotient.make(N, fixtures.BASIS_TABLES[N][i - 1])
            rep = ligozat_check(e)
            assert not rep.is_cusp
            assert rep.is_modular  # orders all >= 0; at least one exactly 0
            assert any(v == 0 for v in rep.orders.values())


def test_cuspidal_published_rows_pass():
    for N, rows in fixtures.BASIS_TABLES.items():
        skip = set(published.NONCUSPIDAL_ROWS.get(N, ())) | set(
            fixtures.DECLARED_WEIGHT2.get(N, ())
        )
        for i, row in enumerate(rows, start=1):
            if i in skip:
                continue
            q = EtaQuotient.make(N, row)
            assert ligozat_check(q).is_cusp and q.weight == 4, (N, i)


def test_search_level_1_empty():
    assert search_cusp_forms(1, 8, 10, max_order=10) == []


def test_search_level_6():
    found = search_cusp_forms(6, 8, 10, max_order=1)
    assert {1: 2, 2: 2, 3: 2, 6: 2} in [q.exponent_map for q in found]
    strict = search_cusp_forms(6, 8, 10, max_order=1, strict=True)
    assert [q.exponent_map for q in strict] == [{1: 2, 2: 2, 3: 2, 6: 2}]


def test_search_level_33_bound_8():
    found = {q.exponents for q in search_cusp_forms(33, 8, 8, max_order=10)}
    for i, row in enumerate(fixtures.BASIS_TABLES[33], start=1):
        key = EtaQuotient.make(33, row).exponents
        if i in published.NONCUSPIDAL_ROWS[33]:
            assert key not in found  # zero cusp-order sum: correctly rejected
        else:
            assert key in found, f"row {i} missing"


def _strictly_increasing(vecs):
    return all(u < v for u, v in zip(vecs, vecs[1:]))


def test_search_deterministic_order():
    # 1, 3, 2 and 3 divisors (the prefix is the exponent at delta = N alone), then 6 and 8
    cases = [
        (1, 8, 3, 10), (9, 8, 8, 8), (11, 8, 8, 8), (25, 8, 4, 20), (12, 8, 8, 3), (40, 8, 4, 14)
    ]
    for (N, k2, bound, max_order), strict in product(cases, [False, True]):
        a = search_cusp_forms(N, k2, bound, max_order=max_order, strict=strict)
        b = search_cusp_forms(N, k2, bound, max_order=max_order, strict=strict)
        assert a == b
        # lexicographic over ascending divisors, with no repeats
        assert _strictly_increasing([q.vector() for q in a]), (N, strict)


def _exhaustive_oracle(N, k2, bound, max_order):
    # every exponent vector with |r_delta| <= bound and sum r_delta = k2,
    # filtered by the published criterion (condition (i) first, for speed)
    divs = divisors(N)
    found = set()
    for head in product(range(-bound, bound + 1), repeat=len(divs) - 1):
        last = k2 - sum(head)
        if abs(last) > bound:
            continue
        exps = dict(zip(divs, head + (last,)))
        if sum(d * r for d, r in exps.items()) % 24:
            continue
        q = EtaQuotient.make(N, exps)
        if ligozat_check(q).is_cusp and order_at_infinity(q) <= max_order:
            found.add(q.exponents)
    return found


@pytest.mark.parametrize(
    "N, k2, bound, max_order, hits",
    [
        (6, 8, 6, 1, 9),
        (10, 8, 6, 3, 6),
        (14, 8, 5, 4, 5),
        (15, 8, 5, 4, 11),
        (12, 8, 4, 3, 93),
        (12, 8, 4, 1, 38),
        (18, 8, 3, 6, 43),
        (20, 8, 3, 6, 21),
        (24, 8, 2, 8, 53),
        (12, 4, 3, 2, 8),
        # 9 and 12 divisors: more cusp-sum slots than any level above
        (36, 8, 2, 4, 193),
        (60, 8, 1, 30, 15),  # max_order = dim S4(60)
    ],
)
def test_search_equals_brute_force(N, k2, bound, max_order, hits):
    found = [q.exponents for q in search_cusp_forms(N, k2, bound, max_order=max_order)]
    assert len(found) == len(set(found)) == hits
    assert set(found) == _exhaustive_oracle(N, k2, bound, max_order)


SEARCH_GOLDEN = Path(__file__).parents[1] / "perfbench" / "golden" / "search.json"


@pytest.mark.parametrize("N", [40, 56])
def test_search_matches_search_golden(N):
    # the hit list the search benchmark checks, digested the same way: the
    # sha256 of the sorted exponent vectors, one comma-joined line each; the
    # golden file is read, never rewritten
    want = json.loads(SEARCH_GOLDEN.read_text())[f"{N},4"]
    found = search_cusp_forms(N, 8, 4, max_order=profile(N).dim_S4)
    text = "\n".join(",".join(map(str, v)) for v in sorted(q.vector() for q in found))
    assert {"hits": len(found), "sha256": hashlib.sha256(text.encode()).hexdigest()} == want


# levels whose oracle stays well under 1 s: at most 7^5 vectors at bound 3
# with up to 6 divisors, and 3^7 at bound 1 with 7 or 8
_SMALL_LEVELS = [N for N in range(1, 101) if len(divisors(N)) <= 6]
_DEEP_LEVELS = [N for N in range(1, 101) if len(divisors(N)) in (7, 8)]


@given(
    level_bound=st.tuples(st.sampled_from(_SMALL_LEVELS), st.integers(1, 3))
    | st.tuples(st.sampled_from(_DEEP_LEVELS), st.just(1)),
    k2=st.sampled_from([4, 8]),
    max_order=st.none() | st.integers(1, 12),
)
# one, two and three divisors: the exponent at delta = N is the last prefix
# level, entered with the empty prefix, and the tail holds the rest
@example(level_bound=(1, 3), k2=8, max_order=None)
@example(level_bound=(11, 2), k2=4, max_order=None)
@example(level_bound=(9, 3), k2=4, max_order=None)
@example(level_bound=(25, 3), k2=8, max_order=None)
# four divisors: the same with a three-exponent tail; five divisors: one
# depth above the last prefix level
@example(level_bound=(10, 3), k2=8, max_order=None)
@example(level_bound=(16, 3), k2=8, max_order=None)
# eight divisors: the last prefix level is the fifth
@example(level_bound=(40, 2), k2=8, max_order=None)
@example(level_bound=(40, 2), k2=4, max_order=None)
@example(level_bound=(24, 2), k2=4, max_order=None)
def test_search_matches_oracle_on_random_levels(level_bound, k2, max_order):
    N, bound = level_bound
    if max_order is None:
        # twice the valence bound k2 * mu / 24 on the order at infinity: no cap
        max_order = k2 * index_mu(N) // 12
    quotients = search_cusp_forms(N, k2, bound, max_order=max_order)
    assert _strictly_increasing([q.vector() for q in quotients])
    found = [q.exponents for q in quotients]
    assert len(found) == len(set(found))
    assert set(found) == _exhaustive_oracle(N, k2, bound, max_order)


def test_strict_search_subset():
    loose = {q.exponents for q in search_cusp_forms(14, 8, 10, max_order=4)}
    strict = {q.exponents for q in search_cusp_forms(14, 8, 10, max_order=4, strict=True)}
    assert strict <= loose
    for exps in strict:
        assert dual_congruence(EtaQuotient.make(14, dict(exps)))


def _strict_oracle(N, k2, bound, max_order):
    # the published criterion's exhaustive search, filtered by the companion
    # congruence
    return {
        q.exponents
        for q in search_cusp_forms(N, k2, bound, max_order=max_order)
        if dual_congruence(q)
    }


_CLASS_LEVELS = [N for N in range(1, 60) if classify_level(N).in_class]


@pytest.mark.parametrize("k2", [4, 8])
@pytest.mark.parametrize("N", _CLASS_LEVELS)
def test_strict_search_equals_filtered_search(N, k2):
    m = max(profile(N).dim_S4, 1)
    strict = {q.exponents for q in search_cusp_forms(N, k2, 3, max_order=m, strict=True)}
    assert strict == _strict_oracle(N, k2, 3, m)


@pytest.mark.parametrize(
    "N, k2, bound, max_order",
    [(18, 8, 4, 6), (27, 8, 4, 5), (27, 4, 4, 5), (36, 8, 3, 4), (24, 8, 4, 2), (30, 8, 4, 1)],
)
def test_strict_search_equals_filtered_search_other(N, k2, bound, max_order):
    # levels outside the class (phi(g_d) > 1 at some cusp) and binding
    # max_order
    strict = {
        q.exponents
        for q in search_cusp_forms(N, k2, bound, max_order=max_order, strict=True)
    }
    assert strict == _strict_oracle(N, k2, bound, max_order)


def test_strict_search_ceiling_raises_at_once():
    # level 66, weight 4: C(47, 7) = 62,891,499 cusp-order compositions
    start = time.perf_counter()
    with pytest.raises(SearchCeilingError) as e:
        search_cusp_forms(66, 8, 10, max_order=32, strict=True)
    assert time.perf_counter() - start < 2  # the search itself takes about 7 s
    msg = str(e.value)
    assert "level 66" in msg and "weight 4" in msg
    assert "62891499" in msg and str(STRICT_COMPOSITION_CEILING) in msg


@pytest.mark.parametrize("strict, bound", [(True, 10), (False, 4)])
def test_searches_leave_no_cyclic_garbage(strict, bound):
    # each search frees its recursive closure before it returns, so its
    # tables go at once and not when the cyclic collector next runs
    gc.collect()
    gc.disable()
    try:
        assert search_cusp_forms(42, 8, bound, max_order=search_max_order(42), strict=strict)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_search_bound_ceiling_raises_at_once():
    start = time.perf_counter()
    with pytest.raises(SearchCeilingError) as e:
        search_cusp_forms(120, 8, SEARCH_BOUND_CEILING + 1, max_order=1)
    assert time.perf_counter() - start < 1  # before any table is built
    msg = str(e.value)
    assert "level 120" in msg and f"bound {SEARCH_BOUND_CEILING + 1}" in msg
    assert f"ceiling of {SEARCH_BOUND_CEILING}" in msg


def test_search_cusp_above_bound_ceiling_exits_3(capsys):
    bound = str(SEARCH_BOUND_CEILING + 1)
    assert cli.main(["search-cusp", "40", "--bound", bound]) == 3
    assert "ceiling" in capsys.readouterr().err


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("k2", [6, 2, 0, -8])
def test_search_needs_a_positive_multiple_of_4(k2, strict):
    # condition (iii), checked once for both searches; with odd weight the
    # character is not trivial and orders need not be integral
    with pytest.raises(ValueError, match=f"positive multiple of 4, got {k2}$"):
        search_cusp_forms(12, k2, 4, max_order=3, strict=strict)


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("k2", [4, 8])
def test_search_hits_pass_ligozat(k2, strict):
    found = [
        q for N in (11, 12, 33) for q in search_cusp_forms(N, k2, 4, max_order=3, strict=strict)
    ]
    assert found and all(ligozat_check(q).is_cusp for q in found)


def test_search_cusp_strict_above_ceiling_exits_3(capsys):
    assert cli.main(["search-cusp", "66", "--strict"]) == 3
    assert "ceiling" in capsys.readouterr().err


def test_dual_congruence_examples():
    assert not dual_congruence(EtaQuotient.make(33, {3: 8}))  # 11*8 = 88
    assert dual_congruence(EtaQuotient.make(33, {1: 4, 11: 4}))


def test_order_additivity():
    pool = search_cusp_forms(12, 8, 6, max_order=3)
    for a in pool:
        for b in pool:
            merged = dict(a.exponent_map)
            for d, r in b.exponent_map.items():
                merged[d] = merged.get(d, 0) + r
            e = EtaQuotient.make(12, merged)
            assert order_at_infinity(e) == order_at_infinity(a) + order_at_infinity(b)


def test_ligozat_orders_are_exact_rationals():
    rep = ligozat_check(EtaQuotient.make(33, {1: 3, 3: 1, 11: 3, 33: 1}))
    assert rep.orders[1] == Fraction(40, 11)  # 3 + 1/3 + 3/11 + 1/33
    assert rep.orders[33] == 72


@st.composite
def level_quotients(draw):
    N = draw(st.sampled_from(CLASS_LEVELS))
    return EtaQuotient.make(N, {d: draw(st.integers(-12, 12)) for d in divisors(N)})


def _ligozat_by_fractions(e):
    """ligozat_check with each order sum a Fraction, as it read before the
    integer cusp sums, kept as its oracle."""
    N, exps = e.level, e.exponent_map
    s24, ssum = sum(d * r for d, r in exps.items()), sum(exps.values())
    conditions = (s24 % 24 == 0, is_square_product_by_value(exps), ssum > 0 and ssum % 4 == 0)
    orders = {
        d: sum(Fraction(gcd(d, delta) ** 2 * r, delta) for delta, r in exps.items())
        for d in divisors(N)
    }
    return LigozatReport(
        *conditions,
        orders,
        is_modular=all(conditions) and all(v >= 0 for v in orders.values()),
        is_cusp=all(conditions) and all(v > 0 for v in orders.values()),
    )


@example(EtaQuotient.make(24, {}))
@example(EtaQuotient.make(56, {1: 12, 56: -12}))
@example(EtaQuotient.make(33, {1: 3, 3: 1, 11: 3, 33: 1}))  # a cusp form
@example(EtaQuotient.make(4, {1: -8, 2: 20, 4: -8}))  # modular, order 0 at d = 1 and 4
@given(level_quotients())
def test_ligozat_orders_match_fraction_sum(e):
    rep = ligozat_check(e)
    assert rep._asdict() == _ligozat_by_fractions(e)._asdict()
    assert all(isinstance(v, Fraction) for v in rep.orders.values())


def test_eta_quotient_level_guard():
    with pytest.raises(ValueError):
        EtaQuotient.make(10, {3: 4})


CLASS_LEVELS = [N for N in range(1, 121) if classify_level(N).in_class]


@given(st.data())
def test_make_and_vector_agree(data):
    N = data.draw(st.sampled_from(CLASS_LEVELS))
    divs = divisors(N)
    m = data.draw(st.dictionaries(st.sampled_from(divs), st.integers(-12, 12)))
    q = EtaQuotient.make(N, m)
    assert q.exponents == tuple(sorted((d, r) for d, r in m.items() if r))
    assert len(q.vector()) == len(divs)
    assert q.vector() == tuple(m.get(d, 0) for d in divs)
    v = EtaQuotient(N, q.vector())
    assert v == q and hash(v) == hash(q)


# the first bad key in ascending order is named; zero exponents are ignored
@pytest.mark.parametrize(
    "exponents, message",
    [
        ({0: 1}, "exponent key 0 must be >= 1"),
        ({-2: 1}, "exponent key -2 must be >= 1"),
        ({5: 1, 3: 2, -2: 0}, "exponent key 3 does not divide level 10"),
        ({7: 1, -2: 1}, "exponent key -2 must be >= 1"),
    ],
)
def test_make_names_the_first_bad_key(exponents, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        EtaQuotient.make(10, exponents)


@pytest.mark.parametrize("rs", [(), (1, 2, 3), (1, 2, 3, 4, 5)])
def test_vector_of_wrong_length_is_rejected(rs):
    with pytest.raises(ValueError, match="level 10 has 4 divisors"):
        EtaQuotient(10, rs)


def test_make_and_replace_check_the_length():
    # namedtuple's _make and _replace build through tuple.__new__ unless
    # _make goes through EtaQuotient.__new__
    message = "^level 10 has 4 divisors, got 1 exponents$"
    for build in (
        lambda: EtaQuotient(10, (1,)),
        lambda: EtaQuotient(10, (1, 2, 3, 4))._replace(rs=(1,)),
        lambda: EtaQuotient._make((10, (1,))),
    ):
        with pytest.raises(ValueError, match=message):
            build()
    assert EtaQuotient(10, (1, 2, 3, 4))._replace(rs=(0, 0, 0, 8)) == EtaQuotient.make(10, {10: 8})


def test_window_extremes_match_brute_force():
    # every multiset of m <= 4 weights from 1..5 and every B <= 3: the (min,
    # max) of sum w_j r_j at each t = -mB..mB over all |r_j| <= B summing to t
    for m in range(1, 5):
        for ws in combinations_with_replacement(range(1, 6), m):
            for B in range(1, 4):
                ext: dict[int, tuple[int, int]] = {}
                for rs in product(range(-B, B + 1), repeat=m):
                    t, v = sum(rs), sum(w * r for w, r in zip(ws, rs))
                    lo, hi = ext.get(t, (v, v))
                    ext[t] = (min(lo, v), max(hi, v))
                assert _window_extremes(list(ws), B) == ext, (ws, B)


def _fraction_inverse(A):
    """A^-1 as Fraction columns, by Gauss-Jordan elimination."""
    n = len(A)
    M = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(A)
    ]
    for c in range(n):
        p = next(i for i in range(c, n) if M[i][c])
        M[c], M[p] = M[p], M[c]
        M[c] = [x / M[c][c] for x in M[c]]
        for i in range(n):
            if i != c and M[i][c]:
                M[i] = [x - M[i][c] * y for x, y in zip(M[i], M[c])]
    return [[M[i][n + j] for i in range(n)] for j in range(n)]


def test_search_windows_and_inverse_match_fractions():
    # the integer caps and D * A^-1 of both searches against the same
    # quantities in Fractions: the valence identity with the weights
    # phi(g_d)/(g_d*d), and D the lcm of the reduced denominators of A^-1
    for N in (N for N in range(1, 200) if classify_level(N).in_class):
        divs = divisors(N)
        g = [gcd(d, N // d) for d in divs]
        coefs = [Fraction(euler_phi(gd), gd * d) for gd, d in zip(g, divs)]
        floors = [1] * (len(divs) - 1) + [24 * N]
        for k2, max_order in product((4, 8), (1, N)):
            slack = k2 * index_mu(N) - sum(c * f for c, f in zip(coefs, floors))
            caps = [f + slack // c for c, f in zip(coefs, floors)]
            caps[-1] = min(caps[-1], 24 * N * max_order)
            assert _windows(N, k2, max_order) == (floors, caps), (N, k2, max_order)
        A = [[gcd(d, e) ** 2 * (N // e) for e in divs] for d in divs]
        inv = _fraction_inverse(A)
        D = lcm(*(x.denominator for col in inv for x in col))
        assert _scaled_inverse(A) == ([[int(x * D) for x in col] for col in inv], D), N


def test_substitute_and_at_level():
    q = EtaQuotient.make(6, {1: 2, 2: 2, 3: 2, 6: 2})
    up = q.substitute(2, level=24)
    assert up.exponent_map == {2: 2, 4: 2, 6: 2, 12: 2}
    # t = 1 views the quotient at a multiple of its level
    same = q.substitute(1, level=24)
    assert same.level == 24 and same.exponent_map == q.exponent_map


def _series_scale(source, target, rows=64):
    """The series comparison substitution_scale replaced, kept as its oracle:
    the least k < rows with b_t(n) = b_s(n/k) on rows 0..rows, or None."""
    ts, ss = (eta_quotient_series(q.exponent_map, rows) for q in (target, source))
    for k in range(1, rows):
        if all(
            ts.coefficient(n) == (ss.coefficient(n // k) if n % k == 0 else 0)
            for n in range(rows + 1)
        ):
            return k
    return None


@lru_cache(maxsize=None)
def _bound2_hits(N):
    return search_cusp_forms(N, 8, 2, max_order=search_max_order(N))


@st.composite
def substitution_pairs(draw):
    # a hit at a sublevel M | N viewed at N, and as target either its image
    # under q -> q^k for a divisor k of N/M or any hit at N
    N = draw(st.sampled_from([N for N in CLASS_LEVELS if N < 45 and _bound2_hits(N)]))
    M = draw(st.sampled_from([M for M in divisors(N) if _bound2_hits(M)]))
    q = draw(st.sampled_from(_bound2_hits(M)))
    k = draw(st.sampled_from(divisors(N // M)))
    target = draw(st.sampled_from([q.substitute(k, N), *_bound2_hits(N)]))
    return EtaQuotient.make(N, q.exponent_map), target


# q -> q^2 from level 12 to 24, and two level-24 hits with the same divisors
@example(
    pair=(
        EtaQuotient.make(24, {1: 2, 2: -2, 3: 2, 4: 2, 6: 2, 12: 2}),
        EtaQuotient.make(24, {2: 2, 4: -2, 6: 2, 8: 2, 12: 2, 24: 2}),
    )
)
@example(
    pair=(
        EtaQuotient.make(24, {1: -1, 3: 1, 4: 2, 6: 1, 8: 1, 12: 2, 24: 2}),
        EtaQuotient.make(24, {1: 1, 3: 1, 4: 1, 6: 2, 8: 2, 12: -1, 24: 2}),
    )
)
@given(pair=substitution_pairs())
def test_substitution_scale_matches_series(pair):
    source, target = pair
    k = substitution_scale(source, target)
    assert k == _series_scale(source, target)
    if k is not None:
        assert source.substitute(k, target.level) == target
