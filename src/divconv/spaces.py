"""Weight-4 modular form spaces: dimensions, Eisenstein and cusp bases.

Dimension formulas for the trivial character (genus, elliptic point and
cusp counts), cusp-basis selection from search candidates, the embedded
fixture bases, and `repair_basis`, which builds a certified cusp basis out
of generators that provably lie in the weight-4 cusp space (strict eta
quotients, their substitutions from sublevels, and weight-2 cusp quotients
multiplied by weight-2 Eisenstein combinations).

`expand` is the one expansion path of generators, and the only caller of
`qseries.eta_quotient_series` in the package (an `EtaQuotient` is exponent
data and expands nothing itself): building a basis, re-expanding it
(`ModularBasis.at_precision`) and the Case 2 rank test of
`select_cusp_basis` expand each distinct eta quotient once and L(q) once
per call, and read every L(q) - t*L(q^t) off that one L(q).

basis_precision(N) is the one decision on depth: every builder expands a
level's basis to that many q-rows, and a formula derived on it is sampled
and verified on exactly those rows.  Each builder asks for it before it
searches or expands a series, so a level above BASIS_LEVEL_CEILING or
outside the supported class (2^nu * m with nu <= 3 and m odd squarefree)
raises UnsupportedLevelError at once.
"""

from __future__ import annotations

import hashlib
from collections import namedtuple
from collections.abc import Iterable, Iterator
from math import gcd, prod

from . import fixtures
from .arith import classify_level, divisors, euler_phi, index_mu, prime_factors
from .eta import EtaQuotient, ligozat_check, order_at_infinity, search_cusp_forms
from .linalg import Echelon
from .qseries import QSeries, eisenstein_L, eisenstein_weight2, eta_quotient_series


class UnsupportedLevelError(ValueError):
    """No usable basis at the level: it lies outside the supported class, it
    has no fixture basis, or no dim S4 independent cusp generators were found."""


SpaceProfile = namedtuple(
    "SpaceProfile", "level index_mu eps2 eps3 cusp_count genus dim_E4 dim_S4 dim_M4"
)


def profile(N: int) -> SpaceProfile:
    """Dimension data for weight 4 and trivial character at level N."""
    if N < 1:
        raise ValueError("profile: N must be >= 1")
    mu = index_mu(N)
    ps = prime_factors(N)

    def elliptic(q: int, m: int) -> int:
        # prod over p | N of 1 + (-m/p): 0 when q^2 | N, the factor at q is
        # 1, and every other factor is 2 or 0 by p mod m
        if N % (q * q) == 0:
            return 0
        return prod(2 if p % m == 1 else 0 for p in ps if p != q)

    eps2, eps3 = elliptic(2, 4), elliptic(3, 3)
    cusps = sum(euler_phi(gcd(d, N // d)) for d in divisors(N))
    genus12 = 12 + mu - 3 * eps2 - 4 * eps3 - 6 * cusps
    if genus12 % 12 != 0:
        raise ArithmeticError(f"genus formula not integral at N={N}")
    genus = genus12 // 12
    dim_S4 = 3 * (genus - 1) + eps2 + eps3 + cusps
    dim_E4 = cusps
    return SpaceProfile(
        level=N,
        index_mu=mu,
        eps2=eps2,
        eps3=eps3,
        cusp_count=cusps,
        genus=genus,
        dim_E4=dim_E4,
        dim_S4=dim_S4,
        dim_M4=dim_E4 + dim_S4,
    )


def sturm_bound(N: int) -> int:
    """ceil(k/12 * [index of the level-N subgroup]) at weight k = 4."""
    return -(-profile(N).index_mu // 3)


VERIFY_TO = 200  # the least depth of every derivation, and verify-paper's depth
# the largest level a basis is built at.  A basis grows with its level (Case
# 2 selection expands candidates to 2 dim S4 rows); on 2 CPUs `basis p`, with
# or without --repair, took at most 0.3 s and 23 MB at ~50 primes p < 10^4,
# but 4-6 s at p = 49391 and 67751 and over 10 s at 100019 with --repair
BASIS_LEVEL_CEILING = 10**4


def basis_precision(N: int) -> int:
    """The q-rows of every level-N basis, and so the rows a derivation on it
    samples and verifies: past twice the Sturm bound, 16 rows past dim M4,
    every divisor row, and at least VERIFY_TO.  UnsupportedLevelError above
    BASIS_LEVEL_CEILING, or outside the supported class."""
    if N > BASIS_LEVEL_CEILING:
        raise UnsupportedLevelError(
            f"level {N} is above the basis ceiling BASIS_LEVEL_CEILING = {BASIS_LEVEL_CEILING}"
        )
    if not (cls := classify_level(N)).in_class:
        raise UnsupportedLevelError(
            f"level {N} = 2^{cls.nu} * {cls.mho} is outside the supported "
            f"class (needs nu <= 3 and odd squarefree part)"
        )
    return max(2 * sturm_bound(N), profile(N).dim_M4 + 16, N, VERIFY_TO)


KIND_ETA = "eta-quotient"
KIND_DECLARED = "declared-fixture"
KIND_PRODUCT = "eta-eisenstein-product"


class CuspGenerator(namedtuple("CuspGenerator", "kind eta e2_scale", defaults=(None,))):
    """One cusp-space generator: an eta quotient, optionally times L(q)-t*L(q^t)."""

    def order(self) -> int:
        # the weight-2 Eisenstein factor has nonzero constant term
        return order_at_infinity(self.eta)

    def describe(self) -> str:
        base = self.eta.label()
        if self.kind == KIND_PRODUCT:
            return f"{base} * (L(q) - {self.e2_scale} L(q^{self.e2_scale}))"
        return base


def expand(generators: Iterable[CuspGenerator], T: int) -> Iterator[QSeries]:
    """Each generator's series to T, in order and only as far as it is read.

    Within the call each distinct eta quotient is expanded once and L(q)
    once, and every L(q) - t*L(q^t) is read off that one L(q); nothing is
    kept across calls.
    """
    etas: dict[EtaQuotient, QSeries] = {}
    weight2: dict[int, QSeries] = {}
    L = None
    for g in generators:
        s = etas.get(g.eta)
        if s is None:
            s = etas[g.eta] = eta_quotient_series(g.eta.exponent_map, T)
        if g.kind == KIND_PRODUCT:
            if g.e2_scale not in weight2:
                if L is None:
                    L = eisenstein_L(1, T)
                weight2[g.e2_scale] = eisenstein_weight2(g.e2_scale, L)
            s = s * weight2[g.e2_scale]
        yield s


def eta_generator(level: int, exponents: dict[int, int], kind: str = KIND_ETA) -> CuspGenerator:
    return CuspGenerator(kind=kind, eta=EtaQuotient.make(level, exponents))


class ModularBasis(
    namedtuple(
        "ModularBasis",
        "level cusp precision cusp_series defects checksum source fixture_failure",
        defaults=("", None),
    )
):
    """Eisenstein degrees plus selected cusp generators, expanded to a
    precision.  source is "fixture", "repaired" or "searched", the function
    that built it; fixture_failure says why a repaired basis replaced the
    fixture basis."""

    @property
    def eisenstein(self) -> list[int]:  # the degrees t | level of the M(q^t)
        return divisors(self.level)

    @property
    def dim_cusp(self) -> int:
        return len(self.cusp)

    def coefficient(self, j: int, n: int):
        """Coefficient of q^n in cusp generator j (0-based)."""
        return self.cusp_series[j].coefficient(n)

    def at_precision(self, T: int) -> "ModularBasis":
        # the checksum covers rows 1..dim S4 and no defect depends on T
        if T <= self.precision:
            return self
        return self._replace(precision=T, cusp_series=list(expand(self.cusp, T)))


def _matrix_checksum(cusp_series: list[QSeries], m: int) -> str:
    rows = []
    for n in range(1, m + 1):
        rows.append(",".join(str(s.coefficient(n)) for s in cusp_series))
    digest = hashlib.sha256("|".join(rows).encode()).hexdigest()
    return f"sha256:{digest[:16]}"


def build_basis(N: int, generators: list[CuspGenerator]) -> ModularBasis:
    """Expand generators to basis_precision(N), record defects, checksum rows."""
    T, prof = basis_precision(N), profile(N)
    series = list(expand(generators, T))
    defects = []
    for i, (g, s) in enumerate(zip(generators, series), start=1):
        if s.coefficient(0) != 0:
            defects.append(f"generator {i} ({g.describe()}) has a nonzero constant term")
        if g.kind != KIND_PRODUCT:
            rep = ligozat_check(g.eta)
            if not rep.is_cusp:
                zero_at = [d for d, v in rep.orders.items() if v == 0]
                where = f" (cusp-order sum 0 at d={zero_at})" if zero_at else ""
                defects.append(f"generator {i} ({g.describe()}) is not cuspidal{where}")
    m = len(generators)
    checksum = _matrix_checksum(series, max(m, 1)) if m else "sha256:empty"
    basis = ModularBasis(
        level=N,
        cusp=list(generators),
        precision=T,
        cusp_series=series,
        defects=defects,
        checksum=checksum,
    )
    if m != prof.dim_S4:
        basis.defects.append(f"{m} cusp generators for dim S4 = {prof.dim_S4}")
    return basis


def search_max_order(N: int) -> int:
    """The order cap of a weight-4 cusp search at level N: dim S4, at least 1."""
    return max(profile(N).dim_S4, 1)


def select_cusp_basis(N: int, candidates: list[CuspGenerator]) -> ModularBasis:
    """Pick dim S4 independent generators from candidates.

    Case 1: when every order 1..m is represented, take the first candidate
    per order (candidates are sorted by (order, exponent vector)); the
    sample matrix is then triangular with nonzero diagonal.  Case 2: greedy
    extension with an exact rank test after each addition, skipping any
    candidate that does not raise the rank; UnsupportedLevelError when the
    rank stays below m.
    """
    basis_precision(N)  # the level gates, before any expansion
    m = profile(N).dim_S4
    if m == 0:
        return build_basis(N, [])
    kind_rank = {KIND_ETA: 0, KIND_DECLARED: 1, KIND_PRODUCT: 2}
    ordered = sorted(
        candidates,
        key=lambda g: (g.order(), g.eta.vector(), kind_rank[g.kind], g.e2_scale or 0),
    )
    by_order: dict[int, CuspGenerator] = {}
    for g in ordered:
        by_order.setdefault(g.order(), g)
    if all(o in by_order for o in range(1, m + 1)):
        chosen = [by_order[o] for o in range(1, m + 1)]
        return build_basis(N, chosen)
    # Case 2: exact-rank greedy selection over sample rows 1..max(2m, m+8)
    depth = max(2 * m, m + 8)
    chosen: list[CuspGenerator] = []
    # each candidate's coefficient column enters as one row, expanded only
    # when it is reached; the echelon keeps only the rows that raise the
    # rank, i.e. the chosen generators
    ech = Echelon(depth)
    for g, s in zip(ordered, expand(ordered, depth)):
        if ech.add([s.coefficient(n) for n in range(1, depth + 1)]):
            chosen.append(g)
            if len(chosen) == m:
                break
    if len(chosen) < m:
        have = {g.order() for g in chosen}
        missing = [o for o in range(1, m + 1) if o not in have]
        # the first few orders only, so that the message stays one short line
        more = len(missing) - 10
        raise UnsupportedLevelError(
            f"level {N}: no spanning weight-4 cusp basis: only {len(chosen)} independent "
            f"generators of {m} needed; orders not represented: {missing[:10]}"
            + (f" and {more} more" if more > 0 else "")
        )
    return build_basis(N, chosen)


def load_fixture_basis(N: int) -> ModularBasis:
    """The embedded reference basis for a supported level, verbatim.

    Known defects (generators that are provably not cuspidal) are recorded
    on the returned basis; callers decide whether to proceed or repair.
    """
    if N not in fixtures.BASIS_TABLES:
        raise UnsupportedLevelError(
            f"no fixture basis for level {N} (have {sorted(fixtures.BASIS_TABLES)})"
        )
    declared = fixtures.DECLARED_WEIGHT2.get(N, ())
    gens = []
    for i, exps in enumerate(fixtures.BASIS_TABLES[N], start=1):
        kind = KIND_DECLARED if i in declared else KIND_ETA
        gens.append(eta_generator(N, exps, kind=kind))
    basis = build_basis(N, gens)
    for i in declared:
        basis.defects.append(
            f"generator {i} ({gens[i - 1].describe()}) is a declared weight-2 auxiliary"
        )
    return basis._replace(source="fixture")


def search_basis(N: int) -> ModularBasis:
    """Basis from the exhaustive search at SEARCH_BOUND under the published
    membership criterion (no companion congruence); Case 1 / Case 2 selection."""
    basis_precision(N)  # the level gates, before the search
    cands = [
        CuspGenerator(kind=KIND_ETA, eta=q)
        for q in search_cusp_forms(N, 8, max_order=search_max_order(N))
    ]
    return select_cusp_basis(N, cands)._replace(source="searched")


def repair_candidates(N: int) -> list[CuspGenerator]:
    """Certified weight-4 cusp generators at level N, searched at SEARCH_BOUND.

    Two certified families: (a) strict-condition cusp quotients from
    proper sublevels M | N, pushed up by every substitution q -> q^t with
    t | N/M; (b) weight-2 strict cusp quotients from every level M > 1
    dividing N (likewise pushed up) multiplied by L(q) - t*L(q^t) for t | N,
    t > 1.  Both are cheap and usually suffice; `repair_basis` adds the
    strict quotients at N itself only when they do not span.
    """
    m = search_max_order(N)

    def pushed_up(k2: int, levels: list[int]):
        # strict quotients of weight k2/2 at each level M, pushed up to N by
        # every q -> q^t with t | N/M
        for M in levels:
            for q in search_cusp_forms(M, k2, max_order=m, strict=True):
                for t in divisors(N // M):
                    up = q.substitute(t, level=N)
                    if order_at_infinity(up) <= m:
                        yield up

    gens = [CuspGenerator(kind=KIND_ETA, eta=q) for q in pushed_up(8, divisors(N)[1:-1])]
    gens += [
        CuspGenerator(kind=KIND_PRODUCT, eta=q, e2_scale=t)
        for q in pushed_up(4, divisors(N)[1:])
        for t in divisors(N)[1:]
    ]
    return list(dict.fromkeys(gens))  # distinct generators, first occurrence kept


def repair_basis(N: int) -> ModularBasis:
    """Certified basis: sublevel closure and products first, the strict
    search at N only when those do not span."""
    basis_precision(N)  # the level gates, before the searches
    cands = repair_candidates(N)
    try:
        basis = select_cusp_basis(N, cands)
    except UnsupportedLevelError:
        extra = [
            CuspGenerator(kind=KIND_ETA, eta=q)
            for q in search_cusp_forms(N, 8, max_order=search_max_order(N), strict=True)
        ]
        basis = select_cusp_basis(N, list(dict.fromkeys(cands + extra)))
    return basis._replace(source="repaired")
