"""Representation counts for two octonary quadratic form families.

N_(a,b)(n) counts solutions of a(x1^2+..+x4^2) + b(x5^2+..+x8^2) = n and
R_(c,d)(n) the analogue for the hexagonal quaternary form
x^2+xy+y^2 + z^2+zw+w^2.  Both reduce to the quaternary counts

    r4(n) = 8 sigma(n) - 32 sigma(n/4)        (r4(0) = 1)
    s4(n) = 12 sigma(n) - 36 sigma(n/3)       (s4(0) = 1)

and five convolution-sum invocations supplied by an injected w_provider
(alpha, beta, n) -> W_(alpha,beta)(n), so this module never derives bases
itself.  The admissible coefficient pairs are the coprime factorizations
of level/4 (quad) resp. level/3 (hex).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt
from typing import Callable

from .arith import classify_level, coprime_pairs, sigma_scaled

WProvider = Callable[[int, int, int], int]


def r4(n: int) -> int:
    """Four-square representation count."""
    if n < 0:
        raise ValueError("r4: n must be >= 0")
    if n == 0:
        return 1
    return 8 * sigma_scaled(1, n, 1) - 32 * sigma_scaled(1, n, 4)


def s4(n: int) -> int:
    """Count for x1^2 + x1 x2 + x2^2 + x3^2 + x3 x4 + x4^2."""
    if n < 0:
        raise ValueError("s4: n must be >= 0")
    if n == 0:
        return 1
    return 12 * sigma_scaled(1, n, 1) - 36 * sigma_scaled(1, n, 3)


def r4_by_enumeration(n: int) -> int:
    """Direct 4-variable lattice count; the oracle for r4."""
    counts = _square_counts(n)
    return _convolve4(counts, n)[n]


def s4_by_enumeration(n: int) -> int:
    """Direct lattice count for the hexagonal quaternary form."""
    counts = _hex_counts(n)
    out = [0] * (n + 1)
    for i, ci in enumerate(counts):
        if ci:
            for j in range(n + 1 - i):
                if counts[j]:
                    out[i + j] += ci * counts[j]
    return out[n]


def _square_counts(limit: int) -> list[int]:
    out = [0] * (limit + 1)
    x = 0
    while x * x <= limit:
        out[x * x] += 1 if x == 0 else 2
        x += 1
    return out


def _convolve4(theta: list[int], limit: int) -> list[int]:
    two = [0] * (limit + 1)
    for i, ci in enumerate(theta):
        if ci:
            for j in range(limit + 1 - i):
                if theta[j]:
                    two[i + j] += ci * theta[j]
    four = [0] * (limit + 1)
    for i, ci in enumerate(two):
        if ci:
            for j in range(limit + 1 - i):
                if two[j]:
                    four[i + j] += ci * two[j]
    return four


def _hex_counts(limit: int) -> list[int]:
    # x^2 + xy + y^2 <= limit forces |x|, |y| <= 2*sqrt(limit/3)
    out = [0] * (limit + 1)
    bound = 2 * isqrt(limit) + 2
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            v = x * x + x * y + y * y
            if 0 <= v <= limit:
                out[v] += 1
    return out


@dataclass(frozen=True)
class PairSet:
    level: int
    modality: str  # "quad" | "hex"
    pairs: tuple[tuple[int, int], ...]


def omega4(level: int) -> PairSet:
    """Coprime pairs (a, b) with a*b = level/4."""
    cls = classify_level(level)
    if level % 4 != 0 or not cls.in_class:
        raise ValueError(
            f"omega4: level must be in the class and divisible by 4, got {level}"
        )
    return PairSet(level=level, modality="quad", pairs=tuple(coprime_pairs(level // 4)))


def omega3(level: int) -> PairSet:
    """Coprime pairs (c, d) with c*d = level/3."""
    cls = classify_level(level)
    if level % 3 != 0 or not cls.in_class:
        raise ValueError(
            f"omega3: level must be in the class and divisible by 3, got {level}"
        )
    return PairSet(level=level, modality="hex", pairs=tuple(coprime_pairs(level // 3)))


def count_N(a: int, b: int, n: int, w: WProvider) -> int:
    """Representation count for a(4 squares) + b(4 squares)."""
    if gcd(a, b) != 1:
        raise ValueError("count_N: (a, b) must be coprime")
    if n < 1:
        raise ValueError("count_N: n must be >= 1")
    total = (
        8 * sigma_scaled(1, n, a)
        - 32 * sigma_scaled(1, n, 4 * a)
        + 8 * sigma_scaled(1, n, b)
        - 32 * sigma_scaled(1, n, 4 * b)
        + 64 * w(a, b, n)
        - 256 * (w(4 * a, b, n) + w(a, 4 * b, n))
    )
    if n % 4 == 0:
        total += 1024 * w(a, b, n // 4)
    return total


def count_R(c: int, d: int, n: int, w: WProvider) -> int:
    """Representation count for c(hex form) + d(hex form)."""
    if gcd(c, d) != 1:
        raise ValueError("count_R: (c, d) must be coprime")
    if n < 1:
        raise ValueError("count_R: n must be >= 1")
    total = (
        12 * sigma_scaled(1, n, c)
        - 36 * sigma_scaled(1, n, 3 * c)
        + 12 * sigma_scaled(1, n, d)
        - 36 * sigma_scaled(1, n, 3 * d)
        + 144 * w(c, d, n)
        - 432 * (w(3 * c, d, n) + w(c, 3 * d, n))
    )
    if n % 3 == 0:
        total += 1296 * w(c, d, n // 3)
    return total


ORACLE_CEILING = 200


def rep_oracle(form: str, a: int, b: int, n: int) -> int:
    """Ground-truth count via convolution of quaternary tables.

    sum over a*l + b*m = n, l, m >= 0 of r4(l) r4(m) (quad) or s4(l) s4(m)
    (hex).  The quaternary tables come from the closed forms, which the
    test suite pins to direct lattice enumeration.
    """
    if n > ORACLE_CEILING:
        raise ValueError(f"rep_oracle: n={n} beyond ceiling {ORACLE_CEILING}")
    if n < 0:
        raise ValueError("rep_oracle: n must be >= 0")
    table = r4 if form == "quad" else s4 if form == "hex" else None
    if table is None:
        raise ValueError(f"rep_oracle: unknown form {form!r}")
    total = 0
    for l in range(0, n // a + 1):
        rest = n - a * l
        if rest % b == 0:
            total += table(l) * table(rest // b)
    return total
