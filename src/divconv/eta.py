"""Eta quotients as exponent data, the membership criterion, and the entry
to the cusp-form searches; nothing here expands a series (`spaces.expand`
does).

An eta quotient at level N is a finite product prod_{delta | N}
eta(delta*z)^{r_delta}, held as its exponents: q -> q^k sends
eta(delta*z) to eta(k*delta*z), so substitution scales the keys.  It lies
in the weight-k modular (resp. cusp) space for the level-N Hecke
congruence subgroup when

  (i)    sum delta * r_delta == 0 (mod 24),
  (ii)   prod delta^{r_delta} is a square in Q,
  (iii)  0 < sum r_delta == 0 (mod 4),  with k = (1/2) sum r_delta,
  (iv)   for every d | N: sum_delta gcd(delta, d)^2 * r_delta / delta >= 0
         (strictly > 0 at every d for a cusp form).

`ligozat_check` evaluates exactly these conditions.  The classical
statement carries one more congruence, sum (N/delta) * r_delta == 0
(mod 24), and quotients that meet it as well are *strict*: certified
members of the level-N space, which basis repair relies on.

The searches themselves live in `search`, which `search_cusp_forms` imports
on its first call, so a process that searches nothing never compiles them.
Hits leave both searches as exponent vectors over ascending divisors, which
is what an `EtaQuotient` holds, so `search_cusp_forms` sorts plain tuples
and wraps each sorted vector once.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd

from .arith import FACTORIZE_CACHE_SIZE, divisors, factorize


@lru_cache(maxsize=FACTORIZE_CACHE_SIZE)
def _slots(level: int) -> dict[int, int]:
    """delta -> its index among the ascending divisors of level; read only."""
    return {d: i for i, d in enumerate(divisors(level))}


class EtaQuotient(namedtuple("EtaQuotient", "level rs")):
    """Level plus exponent vector rs: rs[i] is r_delta at the i-th
    ascending divisor delta of the level."""

    def __new__(cls, level: int, rs: tuple[int, ...]):
        if len(rs) != (nd := len(_slots(level))):
            raise ValueError(f"level {level} has {nd} divisors, got {len(rs)} exponents")
        return tuple.__new__(cls, (level, rs))

    @classmethod
    def _make(cls, iterable):  # namedtuple's, which _replace calls, skips __new__
        return cls(*iterable)

    @staticmethod
    def make(level: int, exponents: dict[int, int]) -> "EtaQuotient":
        """From a map delta -> r_delta (absent divisors are 0); a nonzero r_delta
        off the divisors of level is a ValueError naming the smallest such delta."""
        slot = _slots(level)
        rs = [0] * len(slot)
        for d, r in exponents.items():
            if d in slot:
                rs[slot[d]] = r
            elif r:
                bad = min(k for k, v in exponents.items() if v and k not in slot)
                why = "must be >= 1" if bad < 1 else f"does not divide level {level}"
                raise ValueError(f"exponent key {bad} {why}")
        return EtaQuotient(level, tuple(rs))

    @cached_property
    def exponents(self) -> tuple[tuple[int, int], ...]:
        """The (delta, r_delta) pairs with r_delta != 0, delta ascending."""
        return tuple((d, r) for d, r in zip(divisors(self.level), self.rs) if r)

    @property
    def exponent_map(self) -> dict[int, int]:
        return dict(self.exponents)

    @property
    def weight(self) -> Fraction:
        return Fraction(sum(self.rs), 2)

    def vector(self) -> tuple[int, ...]:
        return self.rs

    def substitute(self, t: int, level: int) -> "EtaQuotient":
        """q -> q^t image at `level`: eta(delta z) -> eta(t*delta z)."""
        return EtaQuotient.make(level, {d * t: r for d, r in self.exponents})

    def label(self) -> str:
        return "*".join(f"eta({d}z)^{r}" if r != 1 else f"eta({d}z)" for d, r in self.exponents) or "1"


LigozatReport = namedtuple(
    "LigozatReport", "cond_i cond_ii cond_iii orders is_modular is_cusp", defaults=(False, False)
)


def ligozat_check(e: EtaQuotient) -> LigozatReport:
    """Evaluate conditions (i)-(iv') exactly; orders kept un-normalized."""
    N = e.level
    exps = e.exponent_map
    s24 = sum(d * r for d, r in exps.items())
    cond_i = s24 % 24 == 0
    cond_ii = is_square_product(exps)
    ssum = sum(exps.values())
    cond_iii = ssum > 0 and ssum % 4 == 0
    # sum_delta gcd(d, delta)^2 r_delta / delta over the common denominator N
    orders = {
        d: Fraction(sum(gcd(d, delta) ** 2 * r * (N // delta) for delta, r in exps.items()), N)
        for d in divisors(N)
    }
    modular = cond_i and cond_ii and cond_iii and all(v >= 0 for v in orders.values())
    cusp = cond_i and cond_ii and cond_iii and all(v > 0 for v in orders.values())
    return LigozatReport(cond_i, cond_ii, cond_iii, orders, is_modular=modular, is_cusp=cusp)


def is_square_product(exps: dict[int, int]) -> bool:
    # prod delta^{r_delta} is a rational square iff every prime valuation is even
    vals: dict[int, int] = {}
    for d, r in exps.items():
        for p, k in factorize(d):
            vals[p] = vals.get(p, 0) + r * k
    return all(v % 2 == 0 for v in vals.values())


def order_at_infinity(e: EtaQuotient) -> int:
    s24 = sum(d * r for d, r in zip(divisors(e.level), e.rs))
    if s24 % 24 != 0:
        raise ValueError("order at infinity is not integral (condition (i) fails)")
    return s24 // 24


def substitution_scale(source: EtaQuotient, target: EtaQuotient) -> int | None:
    """The k | target.level with target = source(q^k), or None: the k that,
    scaling every delta of source's (delta, r_delta) pairs, gives target's."""
    pairs, want = source.exponents, target.exponents
    return next((k for k in divisors(target.level) if tuple((k * d, r) for d, r in pairs) == want), None)


# Largest bound the exhaustive search accepts.  Its tail table holds
# (2*bound + 1)^3 tails, each with one packed integer of #divisors cusp-sum
# slots; its row tables at most (2*bound + 1)(2*bound*min(i, nd - i - 1) + 1)
# children at each DFS depth i (nd = #divisors), each with three; and
# its key table at most (8*bound + 1) * 24 * 2^omega(N) keys, each with at
# most 2*bound + 1 entries.  Row and key tables fill as the walk reaches
# them.  At bound 16 (tracemalloc, Python 3.11) the tail table holds 6.7 MB
# at level 40 and 7.5 MB at level 120.  When the level-40 search ends, its
# row tables hold 1.2 MB (6,123 children) and its key table 4.7 MB (3,016
# keys); with every row and key filled they would hold 2.0 and 13.5 MB at
# level 40 (9,633 children, 12,384 keys) and 14.6 and 15.4 MB at level 120
# (56,325 children, 24,768 keys).  The level-40 search takes 8-9 s.
SEARCH_BOUND = 10  # the default |r_delta| bound of every search
SEARCH_BOUND_CEILING = 16


class SearchCeilingError(ValueError):
    """A search above its ceiling: the bound, or the cusp-order compositions."""


# Largest number of cusp-order compositions a strict search may face; above
# it the search raises at once.  It admits every class level below 60 at
# weights 2 and 4 (levels 42 and 56 at weight 4 have the most, 2,629,575)
# and the weight-2 searches that repair runs at levels 102, 110 and 114
# (up to 15,380,937); level 66 at weight 4 (62,891,499) is above it.
STRICT_COMPOSITION_CEILING = 20_000_000


def search_cusp_forms(
    N: int,
    weight_times_two: int = 8,
    bound: int = SEARCH_BOUND,
    *,
    max_order: int,
    strict: bool = False,
) -> list[EtaQuotient]:
    """All cusp eta quotients at level N with |r_delta| <= bound.

    weight_times_two = sum r_delta (8 for weight 4, 4 for weight 2); results
    are restricted to order at infinity <= max_order and returned sorted
    lexicographically by exponent vector over ascending divisors, so output
    is reproducible.  strict=True also requires the companion congruence and
    runs the cusp-order search.  A bound below 1, or a weight_times_two that
    is not a positive multiple of 4 (condition (iii)), is a ValueError; the
    exhaustive search raises SearchCeilingError for a bound above
    SEARCH_BOUND_CEILING, and the strict search for more cusp-order
    compositions than STRICT_COMPOSITION_CEILING.
    """
    if bound < 1:
        raise ValueError(f"search bound must be >= 1, got {bound}")
    if N < 1:
        raise ValueError(f"search_cusp_forms: N must be >= 1, got {N}")
    if weight_times_two < 1 or weight_times_two % 4:
        raise ValueError(
            f"search_cusp_forms: weight_times_two must be a positive multiple of 4, got {weight_times_two}"
        )
    if max_order < 1:
        return []
    from .search import _search_range, _search_strict  # compiled on the first search

    search = _search_strict if strict else _search_range
    return [EtaQuotient(N, v) for v in sorted(search(N, weight_times_two, bound, max_order))]
