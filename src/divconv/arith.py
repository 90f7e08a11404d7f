"""Divisor arithmetic over exact integers.

sigma_k(n) = sum of d^k over positive divisors d | n, with sigma_k(m) = 0
for m <= 0 so callers never branch on divisibility.  Levels are classified
by the shape 2^nu * m with nu <= 3 and m odd squarefree.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import gcd

# Entries kept by the caches of factorize and divisors: far above the
# distinct arguments of any benchmark workload (a few hundred), while one
# large direct sum, which factorizes each argument once, cannot grow them
# without bound.
FACTORIZE_CACHE_SIZE = 4096
# Trial division tries divisors up to isqrt(FACTORIZE_CEILING) = 10^6, about
# 0.2 s; a cofactor that may still be composite, say a 21-digit prime, is refused.
FACTORIZE_CEILING = 10**12


@lru_cache(maxsize=FACTORIZE_CACHE_SIZE)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, e), ...), trial division."""
    if n < 1:
        raise ValueError(f"factorize: n must be >= 1, got {n}")
    out = []
    d = 2
    top = n if n < FACTORIZE_CEILING else FACTORIZE_CEILING
    while d * d <= top:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
            if n < top:
                top = n
        d += 1 if d == 2 else 2
    if d * d <= n:
        raise ValueError(f"factorize: cofactor {n} above the ceiling {FACTORIZE_CEILING} has no prime factor below {d}")
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def prime_factors(n: int) -> list[int]:
    return [p for p, _ in factorize(n)]


def sigma(k: int, n: int) -> int:
    """sigma_k(n) for n >= 1; 0 for n <= 0 (the standard convention)."""
    if k < 0:
        raise ValueError("sigma: k must be >= 0")
    if n <= 0:
        return 0
    total = 1
    for p, e in factorize(n):
        if k == 0:
            total *= e + 1
        else:
            pk = p**k
            total *= (pk ** (e + 1) - 1) // (pk - 1)
    return total


def sigma_scaled(k: int, n: int, d: int) -> int:
    """sigma_k(n/d) when d | n, else 0."""
    if d <= 0:
        raise ValueError("sigma_scaled: d must be >= 1")
    if n <= 0 or n % d != 0:
        return 0
    return sigma(k, n // d)


def divisors(n: int) -> list[int]:
    """Ascending positive divisors of n >= 1, as a fresh list."""
    if n < 1:
        raise ValueError(f"divisors: n must be >= 1, got {n}")
    return list(_divisors(n))


@lru_cache(maxsize=FACTORIZE_CACHE_SIZE)
def _divisors(n: int) -> tuple[int, ...]:
    out = [1]
    for p, e in factorize(n):
        out = [d * p**i for d in out for i in range(e + 1)]
    return tuple(sorted(out))


def num_divisors(n: int) -> int:
    return sigma(0, n)


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError(f"euler_phi: n must be >= 1, got {n}")
    total = n
    for p, _ in factorize(n):
        total = total // p * (p - 1)
    return total


# factorization n = 2^nu * mho; in_class iff nu <= 3 and mho squarefree odd
LevelClass = namedtuple("LevelClass", "n nu mho in_class")


def classify_level(n: int) -> LevelClass:
    if n < 1:
        raise ValueError(f"classify_level: n must be >= 1, got {n}")
    nu = 0
    m = n
    while m % 2 == 0:
        m //= 2
        nu += 1
    squarefree = all(e == 1 for _, e in factorize(m))
    return LevelClass(n=n, nu=nu, mho=m, in_class=(nu <= 3 and squarefree))


def index_mu(n: int) -> int:
    """Index of the level-n Hecke congruence subgroup: n * prod_{p|n} (1 + 1/p)."""
    mu = n
    for p in prime_factors(n):
        mu = mu // p * (p + 1)
    return mu


def coprime_pairs(n: int) -> list[tuple[int, int]]:
    """All (a, b) with a <= b, a*b = n, gcd(a, b) = 1, ascending by a."""
    out = []
    for a in divisors(n):
        b = n // a
        if a <= b and gcd(a, b) == 1:
            out.append((a, b))
    return out
