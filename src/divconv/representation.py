"""Representation counts for two octonary quadratic form families.

N_(a,b)(n) counts solutions of a(x1^2+..+x4^2) + b(x5^2+..+x8^2) = n and
R_(c,d)(n) the analogue for the hexagonal quaternary form
x^2+xy+y^2 + z^2+zw+w^2.  Each quaternary form has a pair (p, c) in FORMS,
(4, 8) for four squares and (3, 12) for the hexagonal form; its count is
c sigma(n) - cp sigma(n/p) for n >= 1 and 1 at n = 0 (r4, s4).  One theorem
gives both octonary counts for coprime (a, b):

    c sigma(n/a) - cp sigma(n/pa) + c sigma(n/b) - cp sigma(n/pb)
      + c^2 W_(a,b)(n) - c^2 p (W_(pa,b)(n) + W_(a,pb)(n)) + c^2 p^2 W_(a,b)(n/p)

where sigma(x) and W(x) are 0 unless x is a positive integer.  The W values
come from an injected w_provider (alpha, beta, n) -> W_(alpha,beta)(n), so
this module never derives bases itself.  The admissible pairs at a level
are the coprime factorizations of level/p.
"""

from __future__ import annotations

from collections.abc import Callable
from math import gcd, isqrt

from .arith import classify_level, coprime_pairs, sigma_scaled
from .qseries import QSeries

WProvider = Callable[[int, int, int], int]

# (p, c) of each quaternary form
FORMS = {"quad": (4, 8), "hex": (3, 12)}


def _quaternary(name: str, form: str, n: int) -> int:
    if n < 0:
        raise ValueError(f"{name}: n must be >= 0")
    if n == 0:
        return 1
    p, c = FORMS[form]
    return c * sigma_scaled(1, n, 1) - c * p * sigma_scaled(1, n, p)


def r4(n: int) -> int:
    """Four-square representation count."""
    return _quaternary("r4", "quad", n)


def s4(n: int) -> int:
    """Count for x1^2 + x1 x2 + x2^2 + x3^2 + x3 x4 + x4^2."""
    return _quaternary("s4", "hex", n)


def lattice_counts(form: str, X: int) -> list[int]:
    """Direct quaternary lattice counts for n = 0..X, the oracle for r4 and
    s4: theta^2 squared for "quad", the binary hexagonal counts squared for "hex"."""
    if form == "quad":
        theta = QSeries(_square_counts(X))
        binary = theta * theta
    else:
        binary = QSeries(_hex_counts(X))
    return list((binary * binary).coeffs)


def _square_counts(limit: int) -> list[int]:
    out = [0] * (limit + 1)
    x = 0
    while x * x <= limit:
        out[x * x] += 1 if x == 0 else 2
        x += 1
    return out


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


def _omega(form: str, level: int) -> tuple[tuple[int, int], ...]:
    p = FORMS[form][0]
    if not classify_level(level).in_class or level % p != 0:
        raise ValueError(
            f"omega{p}: level must be in the class and divisible by {p}, got {level}"
        )
    return tuple(coprime_pairs(level // p))


def omega4(level: int) -> tuple[tuple[int, int], ...]:
    """Coprime pairs (a, b) with a*b = level/4."""
    return _omega("quad", level)


def omega3(level: int) -> tuple[tuple[int, int], ...]:
    """Coprime pairs (c, d) with c*d = level/3."""
    return _omega("hex", level)


def _count(name: str, pair: str, form: str, a: int, b: int, n: int, w: WProvider) -> int:
    if a < 1 or b < 1:
        raise ValueError(f"{name}: {pair} must be positive, got ({a}, {b})")
    if gcd(a, b) != 1:
        raise ValueError(f"{name}: {pair} must be coprime")
    if n < 1:
        raise ValueError(f"{name}: n must be >= 1")
    p, c = FORMS[form]
    total = (
        c * sigma_scaled(1, n, a)
        - c * p * sigma_scaled(1, n, p * a)
        + c * sigma_scaled(1, n, b)
        - c * p * sigma_scaled(1, n, p * b)
        + c * c * w(a, b, n)
        - c * c * p * (w(p * a, b, n) + w(a, p * b, n))
    )
    if n % p == 0:
        total += c * c * p * p * w(a, b, n // p)
    return total


def count_N(a: int, b: int, n: int, w: WProvider) -> int:
    """Representation count for a(4 squares) + b(4 squares)."""
    return _count("count_N", "(a, b)", "quad", a, b, n, w)


def count_R(c: int, d: int, n: int, w: WProvider) -> int:
    """Representation count for c(hex form) + d(hex form)."""
    return _count("count_R", "(c, d)", "hex", c, d, n, w)


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
    if a < 1 or b < 1:
        raise ValueError(f"rep_oracle: (a, b) must be positive, got ({a}, {b})")
    table = r4 if form == "quad" else s4 if form == "hex" else None
    if table is None:
        raise ValueError(f"rep_oracle: unknown form {form!r}")
    total = 0
    for l in range(0, n // a + 1):
        rest = n - a * l
        if rest % b == 0:
            total += table(l) * table(rest // b)
    return total
