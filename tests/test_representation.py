from math import gcd

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from divconv.arith import divisors, sigma_scaled
from divconv.convolution import brute_force_W
from divconv.representation import (
    count_N,
    count_R,
    omega3,
    omega4,
    r4,
    r4_by_enumeration,
    rep_oracle,
    s4,
    s4_by_enumeration,
)


def test_r4_examples():
    assert r4(0) == 1
    assert r4(1) == 8
    assert r4(2) == 24


def test_s4_examples():
    assert s4(0) == 1
    assert s4(1) == 12
    assert s4(3) == 12


def test_quaternary_closed_forms_vs_enumeration():
    for n in range(0, 101):
        assert r4(n) == r4_by_enumeration(n)
        assert s4(n) == s4_by_enumeration(n)


def test_omega4_examples():
    assert list(omega4(120)) == [(1, 30), (2, 15), (3, 10), (5, 6)]
    assert list(omega4(40)) == [(1, 10), (2, 5)]
    assert list(omega4(4)) == [(1, 1)]
    assert list(omega4(56)) == [(1, 14), (2, 7)]


def test_omega3_examples():
    assert list(omega3(120)) == [(1, 40), (5, 8)]
    assert list(omega3(33)) == [(1, 11)]
    assert list(omega3(3)) == [(1, 1)]


def test_omega_preconditions():
    with pytest.raises(ValueError):
        omega4(33)  # not divisible by 4
    with pytest.raises(ValueError):
        omega4(64)  # nu > 3
    with pytest.raises(ValueError):
        omega3(8)  # not divisible by 3


def _all_coprime_pairs(product):
    return sorted(
        {(min(a, product // a), max(a, product // a)) for a in divisors(product) if gcd(a, product // a) == 1}
    )


@pytest.mark.parametrize("level", [12, 24, 40, 56, 120])
def test_omega4_is_all_coprime_factorizations(level):
    assert list(omega4(level)) == _all_coprime_pairs(level // 4)


@pytest.mark.parametrize("level", [12, 15, 24, 33, 120])
def test_omega3_is_all_coprime_factorizations(level):
    assert list(omega3(level)) == _all_coprime_pairs(level // 3)


def test_rep_oracle_examples():
    assert rep_oracle("quad", 1, 1, 0) == 1
    assert rep_oracle("hex", 1, 1, 1) == 24
    with pytest.raises(ValueError):
        rep_oracle("quad", 1, 1, 300)
    with pytest.raises(ValueError):
        rep_oracle("cubic", 1, 1, 5)


def test_count_examples():
    w = brute_force_W
    assert count_N(1, 1, 1, w) == 16
    assert count_R(1, 1, 1, w) == 24


@pytest.mark.parametrize("level", [12, 24, 40, 56])
def test_count_N_vs_oracle_brute_provider(level):
    w = brute_force_W
    for a, b in omega4(level):
        for n in range(1, 101):
            assert count_N(a, b, n, w) == rep_oracle("quad", a, b, n), (a, b, n)


@pytest.mark.parametrize("level", [12, 15, 24, 33])
def test_count_R_vs_oracle_brute_provider(level):
    w = brute_force_W
    for c, d in omega3(level):
        for n in range(1, 101):
            assert count_R(c, d, n, w) == rep_oracle("hex", c, d, n), (c, d, n)


def _spy_calls(count, a, b, n):
    calls = []

    def spy(x, y, m):
        calls.append((x, y, m))
        return brute_force_W(x, y, m)

    count(a, b, n, spy)
    return calls


def test_count_uses_injected_provider():
    # `--machine repnum` reports w_invocations in exactly this order; the
    # last call is the n/p term
    assert _spy_calls(count_N, 1, 10, 40) == [(1, 10, 40), (4, 10, 40), (1, 40, 40), (1, 10, 10)]
    assert _spy_calls(count_N, 1, 10, 41) == [(1, 10, 41), (4, 10, 41), (1, 40, 41)]
    assert _spy_calls(count_R, 1, 11, 36) == [(1, 11, 36), (3, 11, 36), (1, 33, 36), (1, 11, 12)]
    assert _spy_calls(count_R, 1, 11, 37) == [(1, 11, 37), (3, 11, 37), (1, 33, 37)]


@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 60))
def test_counts_vs_oracle_random_pairs(a, b, n):
    assume(gcd(a, b) == 1)
    assert count_N(a, b, n, brute_force_W) == rep_oracle("quad", a, b, n)
    assert count_R(a, b, n, brute_force_W) == rep_oracle("hex", a, b, n)


def _printed_n23(n):
    # the N_(2,3) combination as printed, with W_(1,3) and W_(1,12) where
    # the theorem has W_(2,3) and W_(2,12)
    w = brute_force_W
    total = (
        8 * sigma_scaled(1, n, 2)
        - 32 * sigma_scaled(1, n, 8)
        + 8 * sigma_scaled(1, n, 3)
        - 32 * sigma_scaled(1, n, 12)
        + 64 * w(1, 3, n)
        - 256 * (w(3, 8, n) + w(1, 12, n))
    )
    if n % 4 == 0:
        total += 1024 * w(1, 3, n // 4)
    return total


def test_printed_n23_is_theorem_with_w2y_replaced():
    def every_w2y(x, y, m):
        return brute_force_W(1 if x == 2 else x, y, m)

    def only_w23(x, y, m):
        return brute_force_W(1 if (x, y) == (2, 3) else x, y, m)

    for n in range(1, 101):
        assert count_N(2, 3, n, every_w2y) == _printed_n23(n), n
    # replacing W_(2,3) alone is a different combination
    assert count_N(2, 3, 13, only_w23) != _printed_n23(13)


def test_count_guards():
    w = brute_force_W
    with pytest.raises(ValueError, match=r"^count_N: \(a, b\) must be coprime$"):
        count_N(2, 4, 5, w)
    with pytest.raises(ValueError, match=r"^count_R: \(c, d\) must be coprime$"):
        count_R(3, 9, 5, w)


@pytest.mark.parametrize("a, b", [(0, 1), (1, 0), (-1, 1), (1, -5)])
def test_pairs_must_be_positive(a, b):
    w = brute_force_W
    with pytest.raises(ValueError, match="^count_N: "):
        count_N(a, b, 5, w)
    with pytest.raises(ValueError, match="^count_R: "):
        count_R(a, b, 5, w)
    with pytest.raises(ValueError, match="^rep_oracle: "):
        rep_oracle("quad", a, b, 5)
