"""Truncated integer q-series.

A QSeries tracks the integer coefficients of q^0 .. q^T for a declared
precision T and never invents values beyond it: its one operation, the
product, carries the minimum of the operand precisions.  Every series the
method expands is integral (L(q^t), M(q^t), the squared difference and every
eta quotient); only the solved X_delta and Y_j are rational, and they never
enter a QSeries.

A product is one big-integer multiplication (Kronecker substitution; see
Harvey, J. Symb. Comput. 44, 2009): each operand is packed into one int, a
slot of whole bytes per coefficient, by one int.from_bytes over its biased
coefficients; the two ints are multiplied once and the low t + 1 slots of
the result, read as balanced digits from one to_bytes, are the product's
coefficients.

Provides the weight-2 and weight-4 Eisenstein series

    L(q) = 1 - 24 sum sigma(n) q^n,      M(q) = 1 + 240 sum sigma_3(n) q^n,

each L(q^t) from its one builder, L(q) - t*L(q^t) read off a given L(q),
the squared difference (a*L(q^a) - b*L(q^b))^2 of two L(q^t), and
eta-quotient expansions.  An eta quotient prod eta(delta*z)^{r_delta} is
q^s times prod (1 - q^{delta n})^{r_delta}, a series in q^g for g the gcd
of the keys delta with r_delta != 0; only its (T - s)//g + 1 rows in q^g
that survive the shift by s are computed, then spread to every g-th row.
Each factor goes in as sparse series (Koehler, Eta Products and Theta
Series Identities, 2011, ch. 1): |r| // 3 copies of Jacobi's cube sum
(-1)^j (2j+1) q^{delta j(j+1)/2} and |r| % 3 of Euler's pentagonal sum
(-1)^k q^{delta k(3k-1)/2}.  The first two multipliers make one
sparse-by-sparse product; each later multiplication adds every term's
shifted, scaled copy of the whole list in one step, and each division runs
the scalar recurrence.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import repeat
from math import gcd
from operator import add, mul, sub

from .arith import sigma


class QSeries:
    """Immutable dense truncated power series in q with int coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = tuple(coeffs)
        if not cs:
            raise ValueError("QSeries needs at least the q^0 coefficient")
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, *a):
        raise AttributeError("QSeries is immutable")

    @property
    def precision(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> int:
        if n < 0:
            return 0
        if n > self.precision:
            raise ValueError(f"coefficient q^{n} beyond tracked precision {self.precision}")
        return self.coeffs[n]

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:6])
        return f"QSeries[T={self.precision}]({head}{', ...' if self.precision > 5 else ''})"

    def __mul__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        t = min(self.precision, other.precision)
        a, b = self.coeffs[: t + 1], other.coeffs[: t + 1]
        # Kronecker substitution: evaluate both polynomials at q = 2^bits, make
        # one big-integer product and read the q^0..q^t coefficients back as
        # balanced digits.  Each of them is a sum of at most t + 1 products
        # a_i b_j, so its absolute value stays below 2^(bits-1) = half; every
        # operand coefficient goes in through a slot too, so it must as well.
        # bits = 8 * size: a slot is whole bytes.
        ma = max(map(abs, a))
        mb = ma if other is self else max(map(abs, b))
        size = (max(ma * mb * (t + 1), ma, mb).bit_length() + 8) // 8
        half = 1 << (8 * size - 1)
        bias = int.from_bytes(half.to_bytes(size, "little") * (t + 1), "little")

        def pack(cs) -> int:
            # slot k holds x_k + half, in [0, 2^bits); less the bias (half in
            # every slot) that is sum x_k 2^(bits k)
            slots = b"".join([(x + half).to_bytes(size, "little") for x in cs])
            return int.from_bytes(slots, "little") - bias

        # the product plus the bias holds c_k + half, in [0, 2^bits), in each
        # of its t + 1 low slots, and the mask drops the slots above them
        width = size * (t + 1)
        pa = pack(a)  # a square packs its operand once
        low = (pa * (pa if other is self else pack(b)) + bias) & ((1 << (8 * width)) - 1)
        digits = low.to_bytes(width, "little")
        unpack = int.from_bytes
        return QSeries([unpack(digits[i : i + size], "little") - half for i in range(0, width, size)])


def _check_precision(T: int) -> None:
    if T < 0:
        raise ValueError(f"precision T must be >= 0, got T={T}")


def _sigma_series(name: str, k: int, c: int, t: int, T: int) -> QSeries:
    """1 + c * sum sigma_k(n) q^{tn}, truncated at T."""
    _check_precision(T)
    if t < 1:
        raise ValueError(f"{name}: t must be >= 1")
    out = [0] * (T + 1)
    out[0] = 1
    for n in range(1, T // t + 1):
        out[t * n] = c * sigma(k, n)
    return QSeries(out)


def eisenstein_L(t: int, T: int) -> QSeries:
    """L(q^t) = 1 - 24 sum sigma(n) q^{tn}, truncated at T."""
    return _sigma_series("eisenstein_L", 1, -24, t, T)


def eisenstein_M(t: int, T: int) -> QSeries:
    """M(q^t) = 1 + 240 sum sigma_3(n) q^{tn}, truncated at T."""
    return _sigma_series("eisenstein_M", 3, 240, t, T)


def eisenstein_weight2(t: int, L: QSeries) -> QSeries:
    """L(q) - t*L(q^t), read off L = L(q) to its precision: the weight-2
    holomorphic combination for t >= 2.

    L(q^t) has L(q)'s q^n coefficient at q^{tn}, so one L(q) gives both, and
    one L(q) serves every t.
    """
    if t < 2:
        raise ValueError("eisenstein_weight2: t must be >= 2")
    cs = L.coeffs
    out = list(cs)
    out[::t] = [x - t * y for x, y in zip(out[::t], cs)]
    return QSeries(out)


def squared_difference(alpha: int, beta: int, T: int) -> QSeries:
    """(alpha*L(q^alpha) - beta*L(q^beta))^2, the difference read off both eisenstein_L."""
    if alpha < 1 or beta < 1:
        raise ValueError("squared_difference: alpha, beta must be >= 1")
    La, Lb = eisenstein_L(alpha, T).coeffs, eisenstein_L(beta, T).coeffs
    d = QSeries([alpha * x - beta * y for x, y in zip(La, Lb)])
    return d * d


def _eta_terms(m: int, T: int, cube: bool) -> list[tuple[int, int]]:
    """Sparse prod (1 - q^{mn}), or its cube, up to q^T: [(exponent, coefficient), ...].

    Euler: prod (1 - q^n) = sum_k (-1)^k q^{k(3k-1)/2} over all integers k.
    Jacobi: prod (1 - q^n)^3 = sum_{j >= 0} (-1)^j (2j+1) q^{j(j+1)/2}.
    Both lists come out in increasing exponent, starting with (0, 1).
    """
    terms = [(0, 1)]
    k = 1
    if cube:
        while (e := m * k * (k + 1) // 2) <= T:
            terms.append((e, (-1) ** k * (2 * k + 1)))
            k += 1
        return terms
    while (e := m * k * (3 * k - 1) // 2) <= T:
        terms.append((e, (-1) ** k))
        if e + m * k <= T:  # k(3k+1)/2, the partner of -k
            terms.append((e + m * k, (-1) ** k))
        k += 1
    return terms


def _mul_sparse(dense: list, sparse: list[tuple[int, int]]) -> list:
    # every term adds its coefficient times the list, shifted by its exponent,
    # in one slice assignment; the first term is (0, 1)
    out = list(dense)
    for e, c in sparse[1:]:
        src = dense if abs(c) == 1 else map(mul, dense, repeat(abs(c)))
        out[e:] = map(add if c > 0 else sub, out[e:], src)
    return out


def _div_sparse(dense: list, sparse: list[tuple[int, int]]) -> list:
    # divisor has constant term 1; out_n = dense_n - sum_{e>0} c_e * out_{n-e}
    out = []
    tail = sparse[1:]
    for n, acc in enumerate(dense):
        for e, c in tail:
            if e > n:
                break
            acc -= c * out[n - e]
        out.append(acc)
    return out


def eta_quotient_series(exponents: dict[int, int], T: int) -> QSeries:
    """Expansion of prod_delta eta(delta*z)^{r_delta} as a q-series.

    The leading power is s = (sum delta*r_delta)/24, which must be a
    non-negative integer (holomorphy at infinity plus the mod-24 condition).
    With g the gcd of the keys delta with r_delta != 0, the product
    prod (1 - q^{delta n})^{r_delta} is a series in q^g: it is expanded as
    prod (1 - q^{(delta/g) n})^{r_delta} over the (T - s)//g + 1 rows that
    survive the shift by s, each factor as |r| // 3 Jacobi cubes and
    |r| % 3 Euler products (a divisor with |r| % 3 == 2 as one more cube,
    times one Euler product), then spread to every g-th row and shifted by s.
    """
    _check_precision(T)
    if min(exponents, default=1) < 1:
        raise ValueError(f"eta quotient key delta={min(exponents)} must be >= 1")
    s24 = sum(d * r for d, r in exponents.items())
    if s24 % 24 != 0:
        raise ValueError(f"eta quotient has non-integral leading exponent {s24}/24")
    s = s24 // 24
    if s < 0:
        raise ValueError(f"eta quotient has a pole at infinity (leading exponent {s})")
    if s > T:
        return QSeries([0] * (T + 1))
    # the shift stays apart from the product: sum (delta/g) r_delta / 24 need
    # not be an integer
    g = gcd(*(d for d, r in exponents.items() if r)) or 1
    t = (T - s) // g
    muls, divs = [], []
    for d, r in sorted(exponents.items()):
        cubes, singles = divmod(abs(r), 3)
        if r < 0 and singles == 2:
            # two Euler divisions cost about twice one cube division, which a
            # division runs as a scalar recurrence, while one more Euler
            # multiplication is a few whole-list adds
            cubes, singles = cubes + 1, 0
            muls.append(_eta_terms(d // g, t, False))
        for cube, times in ((True, cubes), (False, singles)):
            if times:
                (muls if r > 0 else divs).extend([_eta_terms(d // g, t, cube)] * times)
    # the first two multipliers go in as one sparse-by-sparse product
    out = [0] * (t + 1)
    first = muls.pop(0) if muls else [(0, 1)]
    second = muls.pop(0) if muls else [(0, 1)]
    for e1, c1 in first:
        for e2, c2 in second:
            if e1 + e2 > t:
                break
            out[e1 + e2] += c1 * c2
    for sparse in muls:
        out = _mul_sparse(out, sparse)
    for sparse in divs:
        out = _div_sparse(out, sparse)
    # spread to every g-th row, starting at the shift s
    series = [0] * (T + 1)
    series[s::g] = out
    return QSeries(series)
