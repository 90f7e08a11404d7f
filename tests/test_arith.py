from math import gcd, isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from divconv.arith import (
    FACTORIZE_CACHE_SIZE,
    _divisors,
    classify_level,
    coprime_pairs,
    divisors,
    euler_phi,
    factorize,
    index_mu,
    num_divisors,
    sigma,
    sigma_scaled,
)
from divconv.convolution import brute_force_W


def sigma_by_enumeration(k: int, n: int) -> int:
    """Divisor-enumeration oracle for sigma; kept independent of factorize."""
    if n <= 0:
        return 0
    total = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            total += d**k
            if d != n // d:
                total += (n // d) ** k
    return total


def test_sigma_examples():
    assert sigma(1, 6) == 12  # divisors 1,2,3,6
    assert sigma(3, 1) == 1
    assert sigma(1, 0) == 0
    assert sigma(1, -7) == 0
    assert sigma(0, 12) == 6


def test_sigma_against_enumeration():
    for n in range(1, 300):
        for k in (0, 1, 2, 3):
            assert sigma(k, n) == sigma_by_enumeration(k, n)


@given(st.integers(2, 500), st.integers(2, 500), st.sampled_from([0, 1, 2, 3]))
def test_sigma_multiplicative(m, n, k):
    if gcd(m, n) == 1:
        assert sigma(k, m * n) == sigma(k, m) * sigma(k, n)


@given(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 97, 101]), st.sampled_from([1, 2, 3]))
def test_sigma_prime(p, k):
    assert sigma(k, p) == 1 + p**k


def test_sigma_scaled():
    assert sigma_scaled(3, 33, 11) == sigma(3, 3) == 28
    assert sigma_scaled(1, 5, 2) == 0
    assert sigma_scaled(3, 4, 4) == 1
    with pytest.raises(ValueError):
        sigma_scaled(1, 5, 0)


def test_divisors():
    assert divisors(33) == [1, 3, 11, 33]
    assert divisors(40) == [1, 2, 4, 5, 8, 10, 20, 40]
    assert divisors(1) == [1]
    with pytest.raises(ValueError):
        divisors(0)


def test_divisors_returns_a_fresh_list_from_a_bounded_cache():
    ds = divisors(40)
    ds.append(7)
    ds[0] = 0
    assert divisors(40) == [1, 2, 4, 5, 8, 10, 20, 40]
    assert divisors(40) is not divisors(40)
    assert _divisors.cache_info().maxsize == FACTORIZE_CACHE_SIZE


@given(st.integers(1, 2000))
def test_divisors_count(n):
    ds = divisors(n)
    assert len(ds) == num_divisors(n)
    assert ds == sorted(ds)
    assert all(n % d == 0 for d in ds)


def test_euler_phi():
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    assert euler_phi(11) == 10
    with pytest.raises(ValueError):
        euler_phi(0)


def test_phi_divisor_sum():
    for n in range(1, 501):
        assert sum(euler_phi(d) for d in divisors(n)) == n


def test_classify_level_examples():
    c = classify_level(56)
    assert (c.nu, c.mho, c.in_class) == (3, 7, True)
    assert not classify_level(36).in_class
    c1 = classify_level(1)
    assert (c1.nu, c1.mho, c1.in_class) == (0, 1, True)


def test_classify_level_brute_force():
    for n in range(1, 1001):
        odd_square_free = all(
            n % (p * p) != 0 for p in range(3, 33, 2) if all(p % q for q in range(2, p))
        )
        expected = n % 16 != 0 and odd_square_free
        assert classify_level(n).in_class == expected, n


def test_index_mu():
    assert index_mu(1) == 1
    assert index_mu(33) == 48
    assert index_mu(40) == 72
    assert index_mu(56) == 96


def test_factorize_roundtrip():
    for n in range(1, 500):
        prod = 1
        for p, e in factorize(n):
            prod *= p**e
        assert prod == n


def test_factorize_refuses_a_cofactor_above_its_ceiling():
    # a large smooth n and a 12-digit prime still factor; a 21-digit prime is refused
    assert factorize(2**40) == ((2, 40),)
    assert factorize(999999999989) == ((999999999989, 1),)
    with pytest.raises(ValueError, match="above the ceiling"):
        factorize(100000000000000000039)


def test_factorize_cache_is_bounded():
    bound = factorize.cache_info().maxsize
    assert bound is not None
    # the direct sum W_(1,1)(bound + 2) factorizes every l in 1..bound + 1
    brute_force_W(1, 1, bound + 2)
    assert factorize.cache_info().currsize <= bound


def test_coprime_pairs():
    assert coprime_pairs(40) == [(1, 40), (5, 8)]
    assert coprime_pairs(33) == [(1, 33), (3, 11)]
    assert coprime_pairs(1) == [(1, 1)]
