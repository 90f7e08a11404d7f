"""Closed-form evaluation of W_(a,b)(n) = sum sigma(l) sigma(m) over al+bm=n.

For coprime (a, b) with a*b in the supported class, the squared Eisenstein
difference (a L(q^a) - b L(q^b))^2 is expanded in the weight-4 basis
{M(q^delta)} + cusp generators b_j; the solved coefficients (X_delta, Y_j)
give the closed form

  W_(a,b)(n) = sum_delta 5 ([delta in {a, b}] delta^2 - X_delta) sigma3(n/delta) / (24ab)
               - sum_j Y_j b_j(n) / (1152 ab)
               + (1/24 - n/(4b)) sigma(n/a) + (1/24 - n/(4a)) sigma(n/b).

closed_form_W evaluates this W shape for derived, diagonal (5/12
sigma3(n/a), no b_j) and printed coefficients alike.  column_system builds
the expansion's columns over the basis's rows, the b_j before M(q^delta):
at a basis of orders 1..m the integer elimination's first pivots are then
1, not 240 sigma3 values, and column order changes neither rank nor solution.
first_residual_row is the system's one check, in integers: it checks every
derivation and, in verify-paper, the printed expansions.  The dispatcher
reduces by gcd, short-circuits the diagonal a = b through the classical
closed form, serves n up to the formula's verified_to with the closed form
and answers n past it, up to DIRECT_SUM_MAX_N, with the direct double sum,
so a basis is never re-expanded to serve a query.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import mul

from .arith import coprime_pairs, divisors, sigma, sigma_scaled
from .linalg import Echelon, InconsistentSystem
from .qseries import eisenstein_M, squared_difference
from .spaces import (
    ModularBasis,
    load_fixture_basis,
    repair_basis,
    sturm_bound,
)
from . import fixtures


class DerivationError(ValueError):
    """Base for failures while deriving a convolution formula."""


class UnderdeterminedBasisError(DerivationError):
    """Sample matrix never reaches full column rank: basis is degenerate."""


class BasisNotSpanningError(DerivationError):
    """Sampled system has no exact solution: basis does not span the form."""


class VerificationError(DerivationError):
    """Solved coefficients fail the identity beyond the sampled rows."""


class FormulaIntegrityError(ArithmeticError):
    """A closed form produced a non-integer or negative W value."""


def brute_force_W(alpha: int, beta: int, n: int) -> int:
    """The defining double sum, the ground-truth oracle for everything here,
    over its terms only: beta | n - alpha l iff l = l0 (mod beta/g), g | n."""
    if alpha < 1 or beta < 1 or n < 1:
        raise ValueError("brute_force_W: alpha, beta, n must be >= 1")
    g = gcd(alpha, beta)
    if n % g:
        return 0
    step = beta // g
    l0 = n // g * pow(alpha // g, -1, step) % step or step
    return sum(sigma(1, l) * sigma(1, (n - alpha * l) // beta) for l in range(l0, (n - 1) // alpha + 1, step))


def reduce_by_gcd(alpha: int, beta: int, n: int):
    """W_(a,b)(n) = W_(a/g, b/g)(n/g) for g = gcd(a,b); None when g does not
    divide n (the sum is empty)."""
    g = gcd(alpha, beta)
    if g == 1:
        return alpha, beta, n
    if n % g != 0:
        return None
    return alpha // g, beta // g, n // g


def closed_form_W(alpha: int, beta: int, sigma3: dict, cusp: dict, basis, n: int) -> Fraction:
    """sum sigma3[delta] sigma3(n/delta) + sum cusp[j, s] b_j(n/s), j 1-based,
    + (1/24 - n/(4 beta)) sigma(n/alpha) + (1/24 - n/(4 alpha)) sigma(n/beta):
    the one W closed form.  Zero sigma3 and b_j values are skipped."""
    val = 0
    for d, c in sigma3.items():
        s3 = sigma_scaled(3, n, d)
        if s3:
            val += c * s3
    for (j, s), c in cusp.items():
        if n % s == 0:
            bj = basis.coefficient(j - 1, n // s)
            if bj:
                val += c * bj
    val += (Fraction(1, 24) - Fraction(n, 4 * beta)) * sigma_scaled(1, n, alpha)
    return val + (Fraction(1, 24) - Fraction(n, 4 * alpha)) * sigma_scaled(1, n, beta)


def _natural_W(alpha: int, beta: int, sigma3: dict, cusp: dict, basis, n: int) -> int:
    """closed_form_W under the one integrity rule: a W value is a natural number."""
    val = closed_form_W(alpha, beta, sigma3, cusp, basis, n)
    if val.denominator != 1 or val < 0:
        raise FormulaIntegrityError(f"W_({alpha},{beta})({n}) evaluated to {val}, not a natural number")
    return int(val)


def diagonal_W(alpha: int, n: int) -> int:
    """W_(a,a)(n) = (5/12) sigma3(n/a) + (1/12 - n/(2a)) sigma(n/a)."""
    if alpha < 1 or n < 1:
        raise ValueError("diagonal_W: alpha, n must be >= 1")
    return _natural_W(alpha, alpha, {alpha: Fraction(5, 12)}, {}, None, n)


class ConvolutionFormula(namedtuple("ConvolutionFormula", "alpha beta level x y basis verified_to")):
    @cached_property
    def w_terms(self) -> tuple[dict[int, Fraction], dict[tuple[int, int], Fraction]]:
        """closed_form_W's sigma3 and cusp coefficients, built once."""
        ab = self.alpha * self.beta
        sigma3 = {
            d: Fraction(5, 24 * ab) * ((d * d if d in (self.alpha, self.beta) else 0) - x)
            for d, x in sorted(self.x.items())
        }
        cusp = {(j + 1, 1): -y / (1152 * ab) for j, y in enumerate(self.y)}
        return sigma3, cusp


DIRECT_SUM_MAX_N = 10**5  # the largest n dispatch_W answers with the O(n) direct sum


def column_system(alpha: int, beta: int, basis: ModularBasis) -> tuple[list[tuple], list[int]]:
    """rows[n]: the q^n coefficients of each b_j, then of M(q^delta) for each
    delta | N ascending; lhs[n]: that of (alpha L(q^alpha) - beta L(q^beta))^2;
    for n = 0..basis.precision.  The cusp columns come first: rows 1..m
    of a basis of orders 1..m are unit lower triangular in them, so the
    elimination's first m pivots stay 1."""
    N = alpha * beta
    if basis.level != N:
        raise ValueError(f"basis level {basis.level} != alpha*beta = {N}")
    T = basis.precision
    # M(q^delta) has M(q)'s q^n coefficient at q^{delta n}, so one M(q) gives all
    M = eisenstein_M(1, T).coeffs
    cols = [s.coeffs for s in basis.cusp_series]
    for d in divisors(N):
        col = [0] * (T + 1)
        col[::d] = M[: T // d + 1]
        cols.append(col)
    return list(zip(*cols)), squared_difference(alpha, beta, T).coeffs


def first_residual_row(rows, lhs, scaled, den: int, upto: int):
    """The first n in 1..upto with rows[n] . scaled / den != lhs[n], or None;
    in integers, both sides times den."""
    ns = range(1, upto + 1)
    return next((n for n in ns if sum(map(mul, scaled, rows[n])) != den * lhs[n]), None)


def derive_formula(alpha: int, beta: int, basis: ModularBasis) -> ConvolutionFormula:
    """Solve for (X_delta, Y_j) and verify the identity on every row up to
    T = basis.precision, the depth every basis builder expands to.

    The system is column_system's.  Sample rows of that matrix go into one
    incremental fraction-free elimination: row 0 (the constant row,
    sum X_delta = (alpha-beta)^2), then the q^n rows for n in D(N) union
    {1..m_S}, filled up to nunk + 4 rows with further indices, then one row
    at a time until the rank reaches nunk.  Consistency is judged over
    exactly those rows; the residual of the same matrix on rows 1..T checks
    the rest, so the result and its error text do not depend on the basis
    length.
    """
    if gcd(alpha, beta) != 1:
        raise ValueError("derive_formula: alpha and beta must be coprime")
    rows, lhs = column_system(alpha, beta, basis)
    N = alpha * beta
    T = len(rows) - 1
    divs = divisors(N)
    m = basis.dim_cusp
    nunk = len(divs) + m
    sampled = sorted(set(divs) | set(range(1, m + 1)))
    order = [0, *sampled, *(n for n in range(1, T + 1) if n not in sampled)]
    first_batch = max(1 + len(sampled), nunk + 4)
    ech = Echelon(nunk)
    for i, n in enumerate(order):
        if i >= first_batch and ech.rank == nunk:
            break
        ech.add(rows[n], lhs[n])
    if ech.rank < nunk:
        raise UnderdeterminedBasisError(
            f"level {N}: sample matrix rank {ech.rank} < {nunk} unknowns after "
            f"exhausting n <= {T}; the basis is degenerate"
        )
    try:
        nums, D = ech.solution()
    except InconsistentSystem as e:
        raise BasisNotSpanningError(
            f"level {N} ({alpha},{beta}): no exact solution; the basis does "
            f"not span the squared Eisenstein difference"
        ) from e
    # an exact check apart from the elimination, so a solver fault shows
    first_bad = first_residual_row(rows, lhs, nums, D, T)
    if first_bad is not None:
        raise VerificationError(
            f"level {N} ({alpha},{beta}): solved identity fails first at n={first_bad} "
            f"(sturm bound {sturm_bound(N)}); the basis columns do not span the form"
        )
    sol = [Fraction(v, D) for v in nums]
    return ConvolutionFormula(
        alpha=alpha,
        beta=beta,
        level=N,
        x=dict(zip(divs, sol[m:])),
        y=sol[:m],
        basis=basis,
        verified_to=T,
    )


def evaluate_W(f: ConvolutionFormula, n: int) -> int:
    """Exact closed form on f.basis for 1 <= n <= f.verified_to; errors on non-natural output."""
    if not 1 <= n <= f.verified_to:
        raise ValueError(
            f"evaluate_W: n={n} outside the verified range 1..{f.verified_to}; use dispatch_W"
        )
    return _natural_W(f.alpha, f.beta, *f.w_terms, f.basis, n)


class FormulaProvider:
    """Derives, verifies, and caches convolution formulas per level.

    Basis resolution per level: the embedded fixture basis when one exists
    and derivation verifies; otherwise the certified repair basis (searched
    at eta.SEARCH_BOUND), which carries the fixture's failure as its
    fixture_failure.  Each level has one basis, fixed once resolved; the
    formulas of all pairs at that level share it.
    """

    def __init__(self):
        self._formulas: dict[tuple[int, int], ConvolutionFormula] = {}
        self._bases: dict[int, ModularBasis] = {}

    def basis_for(self, level: int) -> ModularBasis:
        if level in self._bases:
            return self._bases[level]
        basis = failure = None
        if level in fixtures.BASIS_TABLES:
            fb = load_fixture_basis(level)
            probe = min((b for a, b in coprime_pairs(level) if a < b), default=level)
            try:
                f = derive_formula(level // probe, probe, fb)
                self._formulas[(f.alpha, f.beta)] = f
                basis = fb
            except DerivationError as e:
                failure = str(e)
        if basis is None:
            basis = repair_basis(level)._replace(fixture_failure=failure)
        self._bases[level] = basis
        return basis

    def formula(self, alpha: int, beta: int) -> ConvolutionFormula:
        """The formula for the coprime pair, on its level's basis."""
        if gcd(alpha, beta) != 1:
            raise ValueError("formula: alpha, beta must be coprime")
        if alpha > beta:
            alpha, beta = beta, alpha
        key = (alpha, beta)
        if key not in self._formulas:
            basis = self.basis_for(alpha * beta)
            # the fixture probe inside basis_for may have derived this pair
            if key not in self._formulas:
                self._formulas[key] = derive_formula(alpha, beta, basis)
        return self._formulas[key]

    def w(self, alpha: int, beta: int, n: int) -> int:
        return dispatch_W(alpha, beta, n, self)


def dispatch_W(alpha: int, beta: int, n: int, provider: FormulaProvider) -> int:
    """Full W evaluation: gcd reduction, diagonal closed form, then the
    provider's derived formula up to its verified_to and the direct sum
    past it, up to DIRECT_SUM_MAX_N.  The formula is resolved first, so an
    unsupported level raises for every n."""
    if alpha < 1 or beta < 1 or n < 1:
        raise ValueError("dispatch_W: alpha, beta, n must be >= 1")
    reduced = reduce_by_gcd(alpha, beta, n)
    if reduced is None:
        return 0
    a, b, m = reduced
    if a == b:
        return diagonal_W(a, m)
    f = provider.formula(a, b)
    if m <= f.verified_to:
        return evaluate_W(f, m)
    if m > DIRECT_SUM_MAX_N:
        raise ValueError(
            f"dispatch_W: W_({a},{b})({m}) lies past the formula's verified range "
            f"1..{f.verified_to} and the direct-sum ceiling n <= {DIRECT_SUM_MAX_N}"
        )
    return brute_force_W(a, b, m)
