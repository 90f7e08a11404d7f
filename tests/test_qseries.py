from operator import add

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from divconv.arith import divisors, sigma
from divconv.convolution import brute_force_W
from divconv.linalg import rank
from divconv.qseries import (
    QSeries,
    eisenstein_L,
    eisenstein_M,
    eisenstein_weight2,
    eta_quotient_series,
    squared_difference,
)


def zero(T):
    return QSeries([0] * (T + 1))


def one(T):
    return QSeries([1] + [0] * T)


small_series = st.builds(
    QSeries, st.lists(st.integers(-9, 9), min_size=5, max_size=9)
)


def schoolbook_mul(a: QSeries, b: QSeries) -> QSeries:
    """The O(T^2) double loop QSeries.__mul__ replaced; kept as its oracle."""
    t = min(a.precision, b.precision)
    out = [0] * (t + 1)
    for i in range(t + 1):
        ai = a.coeffs[i]
        if ai == 0:
            continue
        for j in range(t + 1 - i):
            bj = b.coeffs[j]
            if bj != 0:
                out[i + j] += ai * bj
    return QSeries(out)


big_int = st.integers(-(10**30), 10**30)
coefficient = st.one_of(big_int, st.sampled_from([0, 1, -1]))
# zero-heavy operands, for sparse products
sparse_coefficient = st.one_of(st.just(0), big_int)
kronecker_operand = st.builds(
    QSeries,
    st.one_of(
        st.lists(coefficient, min_size=1, max_size=40),
        st.lists(sparse_coefficient, min_size=1, max_size=40),
    ),
)


# every coefficient at the same extreme makes the q^t coefficient exactly
# (t + 1) max|a| max|b|, the most a slot must hold
@example(QSeries([10**30] * 9), QSeries([-(10**30)] * 9))
@example(QSeries([10**30] * 9), QSeries([10**30] * 12))
# a zero operand: the slot must still hold the other operand's coefficients
@example(QSeries([0] * 7), QSeries([10**30] * 7))
@example(QSeries([-(10**30)] * 4), QSeries([0] * 9))
@example(QSeries([0] * 5), QSeries([0] * 8))
# operand coefficients that just fill a 2-byte slot, and one past them
@example(QSeries([2**15 - 1, -(2**15 - 1)]), QSeries([0, 0]))
@example(QSeries([2**15, -(2**15)]), QSeries([0, 0]))
# t = 0, with the product just filling a 1- or 3-byte slot, and one past it
@example(QSeries([2**7 - 1]), QSeries([-1]))
@example(QSeries([-(2**7)]), QSeries([1]))
@example(QSeries([-(2**23 - 1)]), QSeries([1, 5]))
@example(QSeries([2**23]), QSeries([1]))
@given(kronecker_operand, kronecker_operand)
def test_kronecker_product_matches_schoolbook(a, b):
    product = a * b
    assert product == schoolbook_mul(a, b)
    assert product.precision == min(a.precision, b.precision)
    assert all(isinstance(c, int) for c in product.coeffs)


def test_mul_examples():
    a = QSeries([1, 1, 0, 0])
    b = QSeries([1, -1, 0, 0])
    assert (a * b).coeffs == (1, 0, -1, 0)


def test_mul_matches_convolution_sum_oracle():
    T = 50
    s = QSeries([0] + [sigma(1, n) for n in range(1, T + 1)])
    sq = s * s
    for n in range(1, T + 1):
        assert sq.coefficient(n) == brute_force_W(1, 1, n)


@given(small_series, small_series)
def test_mul_commutative(a, b):
    assert a * b == b * a


@given(small_series, small_series, small_series)
def test_mul_associative_and_distributive(a, b, c):
    t = min(a.precision, b.precision, c.precision)

    def cut(s):
        return QSeries(s.coeffs[: t + 1])

    def plus(x, y):
        return QSeries(map(add, x.coeffs, y.coeffs))

    a, b, c = cut(a), cut(b), cut(c)
    assert (a * b) * c == a * (b * c)
    assert a * plus(b, c) == plus(a * b, a * c)


def test_precision_rules():
    a = one(10)
    b = one(5)
    assert (a * b).precision == 5
    with pytest.raises(ValueError):
        a.coefficient(11)


def test_eisenstein_series():
    L = eisenstein_L(1, 10)
    assert L.coefficient(0) == 1
    assert L.coefficient(1) == -24
    assert eisenstein_L(2, 10).coefficient(4) == -72  # -24*sigma(2)
    M = eisenstein_M(1, 10)
    assert M.coefficient(1) == 240
    assert M.coefficient(2) == 2160
    assert eisenstein_M(11, 12).coefficient(1) == 0


def test_eisenstein_block_independent():
    # the Eisenstein columns M(q^t), t | 33, of the level-33 weight-4 basis
    block = [eisenstein_M(t, 40) for t in divisors(33)]
    for t, s in zip([1, 3, 11, 33], block):
        assert s.coefficient(0) == 1
        assert next(n for n in range(1, 40) if s.coefficient(n) != 0) == t
    m = [[block[j].coefficient(n) for j in range(4)] for n in [1, 3, 11, 33]]
    assert rank(m) == 4


def test_weight2_combination():
    e = eisenstein_weight2(11, eisenstein_L(1, 12))
    assert e.coefficient(0) == -10
    assert e.coefficient(1) == -24
    assert e.coefficient(11) == -24 * sigma(1, 11) + 11 * 24 * sigma(1, 1)


@given(st.integers(2, 60), st.integers(0, 120))
def test_weight2_matches_two_expansions(t, T):
    L = eisenstein_L(1, T)
    Lt = eisenstein_L(t, T)
    assert eisenstein_weight2(t, L).coeffs == tuple(x - t * y for x, y in zip(L.coeffs, Lt.coeffs))


def test_squared_difference_constants():
    assert squared_difference(1, 1, 8) == zero(8)
    assert squared_difference(1, 33, 8).coefficient(0) == 1024
    assert squared_difference(3, 11, 8).coefficient(0) == 64


THEOREM_PAIRS = [(1, 33), (3, 11), (1, 40), (5, 8), (1, 56), (7, 8)]


@pytest.mark.parametrize("alpha,beta", THEOREM_PAIRS)
def test_squared_difference_vs_direct_sum(alpha, beta):
    T = 60
    sq = squared_difference(alpha, beta, T)
    for n in range(1, T + 1):
        rhs = (
            240 * alpha**2 * (sigma(3, n // alpha) if n % alpha == 0 else 0)
            + 240 * beta**2 * (sigma(3, n // beta) if n % beta == 0 else 0)
            + 48 * alpha * (beta - 6 * n) * (sigma(1, n // alpha) if n % alpha == 0 else 0)
            + 48 * beta * (alpha - 6 * n) * (sigma(1, n // beta) if n % beta == 0 else 0)
            - 1152 * alpha * beta * brute_force_W(alpha, beta, n)
        )
        assert sq.coefficient(n) == rhs, (alpha, beta, n)


def test_weight2_square_identity():
    T = 200
    L = eisenstein_L(1, T)
    sq = L * L
    assert sq.coefficient(0) == 1
    for n in range(1, T + 1):
        assert sq.coefficient(n) == 240 * sigma(3, n) - 288 * n * sigma(1, n)


def test_eta_quotient_series():
    s = eta_quotient_series({3: 8}, 20)
    assert s.coefficient(0) == 0 and s.coefficient(1) == 1
    s2 = eta_quotient_series({1: 4, 5: 4}, 20)
    assert s2.coefficient(0) == 0 and s2.coefficient(1) == 1
    row1_40 = eta_quotient_series({1: 4, 5: 4}, 60)
    assert all(isinstance(c, int) for c in row1_40.coeffs)
    with pytest.raises(ValueError, match="non-integral leading exponent 1/24"):
        eta_quotient_series({1: 1}, 10)
    with pytest.raises(ValueError, match="pole at infinity"):
        eta_quotient_series({1: -24}, 10)


# a key delta <= 0 with a nonzero exponent would make the term lists endless
@pytest.mark.parametrize("exponents", [{0: 1}, {0: 0, 1: 24}, {-24: -1}, {1: 48, -24: 1}])
def test_eta_key_below_one_is_rejected(exponents):
    with pytest.raises(ValueError, match="eta quotient key delta=-?[0-9]+ must be >= 1"):
        eta_quotient_series(exponents, 10)


def test_eta_discriminant_coefficients():
    delta = eta_quotient_series({1: 24}, 6)
    assert delta.coeffs[1:] == (1, -24, 252, -1472, 4830, -6048)


def test_eta_cube_is_jacobi_series():
    # eta(8z)^3 = q prod (1 - q^{8n})^3 = sum_j (-1)^j (2j+1) q^{(2j+1)^2}: Jacobi's
    # identity for eta(z)^3 = q^{1/8} (1 - 3q + 5q^3 - 7q^6 + ...) with q -> q^8
    T = 400
    expected = [0] * (T + 1)
    for j in range(10):
        expected[(2 * j + 1) ** 2] = (-1) ** j * (2 * j + 1)
    assert eta_quotient_series({8: 3}, T).coeffs == tuple(expected)


def _pentagonal_terms(m: int, T: int) -> list[tuple[int, int]]:
    """Sparse expansion of prod (1 - q^{mn}): [(exponent, +-1), ...] up to T."""
    terms = [(0, 1)]
    k = 1
    while True:
        e1 = m * k * (3 * k - 1) // 2
        e2 = m * k * (3 * k + 1) // 2
        if e1 > T and e2 > T:
            break
        s = 1 if k % 2 == 0 else -1
        if e1 <= T:
            terms.append((e1, s))
        if e2 <= T:
            terms.append((e2, s))
        k += 1
    terms.sort()
    return terms


def _mul_sparse(dense: list, sparse: list[tuple[int, int]], T: int) -> list:
    out = [0] * (T + 1)
    for e, s in sparse:
        if s == 1:
            for n in range(e, T + 1):
                out[n] += dense[n - e]
        else:
            for n in range(e, T + 1):
                out[n] -= dense[n - e]
    return out


def _div_sparse(dense: list, sparse: list[tuple[int, int]], T: int) -> list:
    # divisor has constant term 1; c_n = b_n - sum_{e>0} s*c_{n-e}
    out = [0] * (T + 1)
    tail = [(e, s) for e, s in sparse if e > 0]
    for n in range(T + 1):
        acc = dense[n]
        for e, s in tail:
            if e > n:
                break
            acc -= s * out[n - e]
        out[n] = acc
    return out


def pentagonal_eta_series(exponents: dict[int, int], T: int) -> QSeries:
    """The expansion eta_quotient_series replaced; kept as its oracle.

    Each of the |r_delta| factors prod (1 - q^{delta n}) goes in alone, as
    Euler's pentagonal series, multiplied or divided by a scalar loop over
    all T + 1 rows; the result is then shifted by s, dropping the rows past T.
    """
    s24 = sum(d * r for d, r in exponents.items())
    assert s24 % 24 == 0 and s24 >= 0
    out = [1] + [0] * T
    for d, r in sorted(exponents.items()):
        if r == 0:
            continue
        sparse = _pentagonal_terms(d, T)
        for _ in range(abs(r)):
            out = _mul_sparse(out, sparse, T) if r > 0 else _div_sparse(out, sparse, T)
    return QSeries(([0] * (s24 // 24) + out)[: T + 1])


@st.composite
def eta_exponents(draw):
    """A holomorphic eta quotient at a level in {12, 24, 40, 42, 56}, |r| <= 10."""
    N = draw(st.sampled_from([12, 24, 40, 42, 56]))
    r = {d: draw(st.integers(-10, 10)) for d in divisors(N)[1:]}
    # r_1 is the value in [-10, 10], if any, that makes sum delta*r_delta == 0 (mod 24)
    r1 = -sum(d * x for d, x in r.items()) % 24
    r1 = r1 - 24 if r1 > 10 else r1
    assume(r1 >= -10)
    r[1] = r1
    if sum(d * x for d, x in r.items()) < 0:
        r = {d: -x for d, x in r.items()}
    return r


# s = 3 at T = 2, 3, 4 and s = 45 at T = 44, 45 (s > T, s = T, s < T); s = 0
# at T = 0 and, dividing by eta(z)^10, at T = 230; eta(8z)^3 and the discriminant
@example({1: 24, 2: 24}, 2)
@example({1: 24, 2: 24}, 3)
@example({1: 24, 2: 24}, 4)
@example({56: 10, 28: 10, 14: 10, 8: 10, 4: 4, 2: 2}, 44)
@example({56: 10, 28: 10, 14: 10, 8: 10, 4: 4, 2: 2}, 45)
@example({1: 10, 2: -5}, 0)
@example({1: -10, 2: 5}, 230)
@example({8: 3}, 230)
@example({1: 24}, 230)
@given(eta_exponents(), st.integers(0, 230))
def test_eta_quotient_series_matches_pentagonal_oracle(exponents, T):
    series = eta_quotient_series(exponents, T)
    assert series.coeffs == pentagonal_eta_series(exponents, T).coeffs
    assert series.precision == T


@st.composite
def eta_exponents_in_q_g(draw):
    """A holomorphic eta quotient whose keys are g times the divisors of 6, 10
    or 12, for g in {2, 3, 4, 7, 8}; |r| <= 10."""
    g = draw(st.sampled_from([2, 3, 4, 7, 8]))
    M = draw(st.sampled_from([6, 10, 12]))
    r = {g * d: draw(st.integers(-10, 10)) for d in divisors(M)[1:]}
    rest = sum(d * x for d, x in r.items())
    # r_g among the values in [-10, 10] that make sum delta*r_delta == 0 (mod 24)
    fits = [x for x in range(-10, 11) if (g * x + rest) % 24 == 0]
    assume(fits)
    r[g] = draw(st.sampled_from(fits))
    if sum(d * x for d, x in r.items()) < 0:
        r = {d: -x for d, x in r.items()}
    return r


# s is an integer, but the reduced quotient's leading exponent is not:
# eta(2z)^12 is q * prod (1 - q^{2n})^12 and prod (1 - q^n)^12 would lead
# with q^{1/2}; a zero exponent at a key off the multiples of g; the empty
# quotient, where gcd() of no keys is 0
@example({2: 12}, 0)
@example({2: 12}, 1)
@example({2: 12}, 230)
@example({4: 6}, 41)
@example({1: 0, 2: 12}, 60)
@example({}, 0)
@example({}, 50)
@given(eta_exponents_in_q_g(), st.integers(0, 230))
def test_eta_quotient_series_in_q_g_matches_pentagonal_oracle(exponents, T):
    series = eta_quotient_series(exponents, T)
    assert series.coeffs == pentagonal_eta_series(exponents, T).coeffs
    assert series.precision == T


def test_eta_exponent_additivity():
    # in the second pair the divisions by eta(z) and eta(11z) cancel against
    # multiplications, so series division must invert multiplication exactly
    T = 40
    for e1, e2 in [
        ({1: 2, 3: 2, 11: 2, 33: 2}, {3: 8}),
        ({1: -1, 3: 5, 11: -1, 33: 5}, {1: 2, 3: 2, 11: 2, 33: 2}),
    ]:
        merged = {d: e1.get(d, 0) + e2.get(d, 0) for d in set(e1) | set(e2)}
        assert eta_quotient_series(merged, T) == (
            eta_quotient_series(e1, T) * eta_quotient_series(e2, T)
        )


PRECISION_CALLS = {
    "eisenstein_L": lambda T: eisenstein_L(1, T),
    "eisenstein_M": lambda T: eisenstein_M(2, T),
    "eisenstein_weight2": lambda T: eisenstein_weight2(11, eisenstein_L(1, T)),
    "squared_difference": lambda T: squared_difference(1, 2, T),
    "eta_quotient_series": lambda T: eta_quotient_series({1: 24}, T),
    "eta_quotient_series_empty": lambda T: eta_quotient_series({}, T),
}


@pytest.mark.parametrize("call", PRECISION_CALLS.values(), ids=PRECISION_CALLS)
def test_negative_precision_is_rejected(call):
    with pytest.raises(ValueError, match="precision T must be >= 0, got T=-1"):
        call(-1)
    with pytest.raises(ValueError, match="got T=-2"):
        call(-2)
    assert call(0).precision == 0
