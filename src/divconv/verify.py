"""Regression suite against the published reference values (verify-paper).

Each item compares an exact computation with an embedded published value
and reports PASS, FAIL, DOCUMENTED-DISCREPANCY, or SKIPPED.  FAIL is
reserved for this package's own machinery being wrong; a published value
refuted by the direct-summation oracle (which arbitrates every dispute)
reports DOCUMENTED-DISCREPANCY with the exact point of failure.
"""

from __future__ import annotations

import itertools
import tempfile
from dataclasses import dataclass
from fractions import Fraction

from . import fixtures
from .arith import classify_level, coprime_pairs, num_divisors, sigma, sigma_scaled
from .convolution import (
    DerivationError,
    FormulaProvider,
    brute_force_W,
    derive_formula,
    diagonal_W,
    evaluate_W,
    sturm_bound,
)
from .eta import EtaQuotient, ligozat_check, search_cusp_forms
from .qseries import eisenstein_L, squared_difference
from .representation import (
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
from .spaces import fixture_substitution_report, load_fixture_basis, profile

PASS = "PASS"
FAIL = "FAIL"
DISCREPANCY = "DOCUMENTED-DISCREPANCY"
SKIPPED = "SKIPPED"

REGENERATION_LEVELS = (33, 40, 56)


@dataclass
class ItemResult:
    item: str
    status: str
    detail: str

    def line(self) -> str:
        return f"{self.status:<24} {self.item}: {self.detail}"


def _first_failure(ns, holds):
    """The first n in ns for which holds(n) is false, or None."""
    return next((n for n in ns if not holds(n)), None)


def _resolve_signs(ambiguous, magnitude, first_bad):
    """Try every sign pattern on the printed values whose sign is ambiguous.

    first_bad(signed) returns the first failing n (or None) given a dict
    key -> signed value for the ambiguous keys.  Returns (None, [(key, "+"
    or "-"), ...]) for the first pattern that holds, else the first
    failure with every sign "+" and an empty list.
    """
    for signs in itertools.product((1, -1), repeat=len(ambiguous)):
        if first_bad({k: s * magnitude(k) for k, s in zip(ambiguous, signs)}) is None:
            return None, [(k, "+" if s > 0 else "-") for k, s in zip(ambiguous, signs)]
    return first_bad({k: magnitude(k) for k in ambiguous}), []


def _published_expansion_series_check(pair, basis, depth=200):
    """Directly test the published expansion coefficients against the
    squared difference; ambiguous signs are resolved by trying both."""
    a, b = pair
    data = fixtures.PUBLISHED_EXPANSIONS[pair]
    lhs = squared_difference(a, b, depth)
    ambiguous = [("sigma3", d) for d, v in data["sigma3"].items() if v is None]
    ambiguous += [("cusp", j) for j, v in data["cusp"].items() if v is None]

    def first_bad(signed):
        if data["constant"] != (a - b) ** 2:
            return 0
        s3 = {d: signed.get(("sigma3", d), v) for d, v in data["sigma3"].items()}
        cusp = {j: signed.get(("cusp", j), v) for j, v in data["cusp"].items()}
        return _first_failure(
            range(1, depth + 1),
            lambda n: sum(c * sigma_scaled(3, n, d) for d, c in s3.items())
            + sum(c * basis.coefficient(j - 1, n) for j, c in cusp.items())
            == lhs.coefficient(n),
        )

    return _resolve_signs(
        ambiguous, lambda k: fixtures.PUBLISHED_ABS[("expansion", pair, *k)], first_bad
    )


def _published_w_check(pair, basis, depth=200):
    a, b = pair
    data = fixtures.PUBLISHED_W[pair]
    ambiguous = [k for k, v in data["cusp"].items() if v is None]

    def first_bad(signed):
        cusp = {k: signed.get(k, v) for k, v in data["cusp"].items()}

        def holds(n):
            val = sum(c * sigma_scaled(3, n, d) for d, c in data["sigma3"].items())
            val += sum(
                c * basis.coefficient(j - 1, n // scl)
                for (j, scl), c in cusp.items()
                if n % scl == 0
            )
            val += (Fraction(1, 24) - Fraction(n, 4 * b)) * sigma_scaled(1, n, a)
            val += (Fraction(1, 24) - Fraction(n, 4 * a)) * sigma_scaled(1, n, b)
            return val == brute_force_W(a, b, n)

        return _first_failure(range(1, depth + 1), holds)

    return _resolve_signs(
        ambiguous, lambda k: fixtures.PUBLISHED_ABS[("w", pair, "cusp", k)], first_bad
    )


def derived_vs_published(pair, basis, verify_to=200):
    """Derive W for pair on basis and list every coefficient that differs
    from print: the expansion's 240 X_delta and Y_j, and the W formula's
    sigma3 and unsubstituted cusp coefficients.  A printed value with an
    ambiguous sign is compared in absolute value.  Raises DerivationError
    when the basis admits no verified derivation."""
    a, b = pair
    f = derive_formula(a, b, basis, verify_to=verify_to)
    mismatches = []
    pub = fixtures.PUBLISHED_EXPANSIONS[pair]
    for d, v in pub["sigma3"].items():
        got = 240 * f.x[d]
        if v is None:
            absv = fixtures.PUBLISHED_ABS[("expansion", pair, "sigma3", d)]
            if abs(got) != absv:
                mismatches.append(f"sigma3(n/{d}): derived {got} vs printed +-{absv}")
        elif got != v:
            mismatches.append(f"sigma3(n/{d}): derived {got} vs printed {v}")
    for j, v in pub["cusp"].items():
        got = f.y[j - 1]
        if v is None:
            absv = fixtures.PUBLISHED_ABS[("expansion", pair, "cusp", j)]
            if abs(got) != absv:
                mismatches.append(f"Y_{j}: derived {got} vs printed +-{absv}")
        elif got != v:
            mismatches.append(f"Y_{j}: derived {got} vs printed {v}")
    pub_w = fixtures.PUBLISHED_W[pair]
    for d, v in pub_w["sigma3"].items():
        if f.sigma3_coefficient(d) != v:
            mismatches.append(
                f"W sigma3(n/{d}): derived {f.sigma3_coefficient(d)} vs printed {v}"
            )
    for (j, scale), v in pub_w["cusp"].items():
        if scale != 1:
            continue  # substituted-generator bookkeeping checked via expansion Y
        got = f.cusp_coefficient(j - 1)
        if v is None:
            absv = fixtures.PUBLISHED_ABS[("w", pair, "cusp", (j, scale))]
            if abs(got) != absv:
                mismatches.append(f"W b_{j}: derived {got} vs printed +-{absv}")
        elif got != v:
            mismatches.append(f"W b_{j}: derived {got} vs printed {v}")
    return f, mismatches


def check_dimensions() -> list[ItemResult]:
    out = []
    bad = []
    for N, want in fixtures.PUBLISHED_DIMENSIONS.items():
        prof = profile(N)
        for key, val in want.items():
            if getattr(prof, key) != val:
                bad.append(f"{key}({N}) = {getattr(prof, key)} != {val}")
    out.append(
        ItemResult(
            "dimensions",
            FAIL if bad else PASS,
            "; ".join(bad) if bad else "dim_E4/dim_S4 match at 33, 40, 56, 24, 12",
        )
    )
    mism = [
        N
        for N in range(1, 201)
        if classify_level(N).in_class and profile(N).dim_E4 != num_divisors(N)
    ]
    out.append(
        ItemResult(
            "eisenstein-dimension d(N)",
            FAIL if mism else PASS,
            f"failures at {mism}" if mism else "dim_E4 = d(N) for all class levels <= 200",
        )
    )
    return out


def check_tables_cuspidality() -> list[ItemResult]:
    out = []
    for N, rows in sorted(fixtures.BASIS_TABLES.items()):
        declared = fixtures.DECLARED_WEIGHT2.get(N, ())
        expected_bad = set(fixtures.NONCUSPIDAL_ROWS.get(N, ()))
        unexpected, confirmed = [], []
        for i, exps in enumerate(rows, start=1):
            if i in declared:
                continue
            rep = ligozat_check(EtaQuotient.make(N, exps))
            if rep.is_cusp and rep.weight == 4:
                if i in expected_bad:
                    unexpected.append(f"row {i} unexpectedly cuspidal")
            else:
                zero_at = sorted(d for d, v in rep.orders.items() if v == 0)
                confirmed.append(f"row {i} (order sum 0 at d={zero_at})")
                if i not in expected_bad:
                    unexpected.append(f"row {i} not cuspidal and not a known defect")
        if unexpected:
            out.append(ItemResult(f"table cuspidality level {N}", FAIL, "; ".join(unexpected)))
        elif confirmed:
            out.append(
                ItemResult(
                    f"table cuspidality level {N}",
                    DISCREPANCY,
                    "published rows are not cusp forms: " + "; ".join(confirmed),
                )
            )
        else:
            out.append(
                ItemResult(
                    f"table cuspidality level {N}", PASS, f"all {len(rows)} rows cuspidal"
                )
            )
    return out


def regeneration_search(N: int, jobs: int = 1) -> set[tuple]:
    """Exponent vectors of the exhaustive bound-10 weight-4 cusp search at
    N, orders up to dim S4: the sets the published tables are checked
    against."""
    m = profile(N).dim_S4
    return {q.exponents for q in search_cusp_forms(N, 8, 10, max_order=m, jobs=jobs)}


def check_search_regeneration(searches: dict[int, set[tuple]]) -> list[ItemResult]:
    """Compare the tables at REGENERATION_LEVELS with searches[N], the
    output of regeneration_search(N)."""
    out = []
    for N in REGENERATION_LEVELS:
        found = searches[N]
        expected_bad = set(fixtures.NONCUSPIDAL_ROWS.get(N, ()))
        missing, excluded = [], []
        for i, exps in enumerate(fixtures.BASIS_TABLES[N], start=1):
            key = EtaQuotient.make(N, exps).exponents
            if key in found:
                if i in expected_bad:
                    missing.append(f"row {i} found despite non-cuspidality")
            elif i in expected_bad:
                excluded.append(str(i))
            else:
                missing.append(f"row {i} missing from search output")
        orders = sorted({sum(d * r for d, r in e) // 24 for e in found})
        order_note = ""
        if N == 40:
            want = list(range(1, 15))
            if [o for o in orders if o <= 14] != want:
                missing.append(f"orders present {orders}, need 1..14")
            else:
                order_note = "; orders 1..14 all present"
        if missing:
            out.append(ItemResult(f"search regeneration level {N}", FAIL, "; ".join(missing)))
        elif excluded:
            out.append(
                ItemResult(
                    f"search regeneration level {N}",
                    DISCREPANCY,
                    f"all cuspidal rows found ({len(found)} candidates); published "
                    f"rows {{{', '.join(excluded)}}} are not cusp forms and are "
                    f"rightly excluded" + order_note,
                )
            )
        else:
            out.append(
                ItemResult(
                    f"search regeneration level {N}",
                    PASS,
                    f"all rows found among {len(found)} candidates" + order_note,
                )
            )
    return out


def check_substitution_claims() -> list[ItemResult]:
    out = []
    for N in sorted(fixtures.SUBSTITUTION_CLAIMS):
        rows = fixture_substitution_report(N)
        bad = [
            f"b_{N},{t}(n) = b_{N},{s}(n/{actual or '?'}) but published n/{pub}"
            for t, s, pub, actual in rows
            if actual != pub
        ]
        ok = [f"b_{N},{t}=b_{N},{s}(n/{pub})" for t, s, pub, actual in rows if actual == pub]
        if bad:
            out.append(
                ItemResult(f"substitution relations level {N}", DISCREPANCY, "; ".join(bad))
            )
        else:
            out.append(
                ItemResult(f"substitution relations level {N}", PASS, "; ".join(ok))
            )
    return out


def check_published_formulas(provider: FormulaProvider) -> list[ItemResult]:
    out = []
    for pair in sorted(fixtures.PUBLISHED_EXPANSIONS):
        a, b = pair
        N = a * b
        basis = load_fixture_basis(N, max(208, provider.verify_to + 8))
        first_bad, resolved = _published_expansion_series_check(pair, basis)
        try:
            _, diff = derived_vs_published(pair, basis, verify_to=provider.verify_to)
            derived_note = "; derivation verified" + (
                f" but differs from print ({diff[0]}, ...)" if diff else ", matches print"
            )
        except DerivationError as e:
            derived_note = f"; derivation on the published basis fails: {e}"
        if first_bad is None and resolved:
            res = ", ".join(f"{kind}[{key}] sign resolved to {s}" for (kind, key), s in resolved)
            out.append(
                ItemResult(
                    f"published expansion ({a},{b})",
                    DISCREPANCY,
                    f"printed operators dropped; identity holds to 200 with {res}",
                )
            )
        elif first_bad is None:
            out.append(
                ItemResult(
                    f"published expansion ({a},{b})", PASS, "exact to n=200" + derived_note
                )
            )
        else:
            out.append(
                ItemResult(
                    f"published expansion ({a},{b})",
                    DISCREPANCY,
                    f"printed identity fails first at n={first_bad}" + derived_note,
                )
            )
    for pair in sorted(fixtures.PUBLISHED_W):
        a, b = pair
        N = a * b
        basis = load_fixture_basis(N, max(208, provider.verify_to + 8))
        first_bad, resolved = _published_w_check(pair, basis)
        if first_bad is None and resolved:
            res = ", ".join(f"b_{j}(n/{s}) sign resolved to {sg}" for (j, s), sg in resolved)
            out.append(
                ItemResult(
                    f"published W formula ({a},{b})",
                    DISCREPANCY,
                    f"printed sign dropped; formula matches the direct sum to 200 with {res}",
                )
            )
        elif first_bad is None:
            out.append(
                ItemResult(
                    f"published W formula ({a},{b})",
                    PASS,
                    "matches the direct sum for all n <= 200",
                )
            )
        else:
            out.append(
                ItemResult(
                    f"published W formula ({a},{b})",
                    DISCREPANCY,
                    f"printed formula disagrees with the direct sum first at n={first_bad}",
                )
            )
    return out


def check_oracle_equivalence(provider: FormulaProvider, depth: int = 200) -> list[ItemResult]:
    out = []
    for N in fixtures.FIXTURE_LEVELS:
        pairs = [(a, b) for a, b in coprime_pairs(N) if a < b]
        bad = []
        for a, b in pairs:
            try:
                f, basis = provider.formula(a, b)
            except DerivationError as e:
                bad.append(f"({a},{b}) derivation failed: {e}")
                continue
            if f.verified_to < sturm_bound(N):
                bad.append(f"({a},{b}) verified only to {f.verified_to}")
                continue
            n = _first_failure(
                range(1, depth + 1),
                lambda n: evaluate_W(f, basis, n) == brute_force_W(a, b, n),
            )
            if n is not None:
                bad.append(f"({a},{b}) mismatch at n={n}")
        basis_note = provider.notes.get(N, {}).get("basis", "?")
        out.append(
            ItemResult(
                f"oracle equivalence level {N}",
                FAIL if bad else PASS,
                "; ".join(bad)
                if bad
                else f"all pairs {pairs} match the direct sum to {depth} "
                f"(basis: {basis_note}, sturm {sturm_bound(N)})",
            )
        )
    return out


def check_diagonal(depth: int = 200) -> ItemResult:
    for alpha in range(1, 6):
        n = _first_failure(
            range(1, depth + 1),
            lambda n: diagonal_W(alpha, n)
            == (brute_force_W(alpha, alpha, n) if n % alpha == 0 else 0),
        )
        if n is not None:
            return ItemResult("diagonal closed form", FAIL, f"alpha={alpha}, n={n} mismatch")
    return ItemResult(
        "diagonal closed form", PASS, "W_(a,a) matches the direct sum (a <= 5, n <= 200)"
    )


def check_omega_sets() -> list[ItemResult]:
    out = []
    bad = []
    for level, want in fixtures.PUBLISHED_OMEGA.items():
        if "quad" in want:
            got = list(omega4(level).pairs)
            if got != want["quad"]:
                bad.append(f"omega4({level}) = {got} != {want['quad']}")
        if "hex" in want:
            got = list(omega3(level).pairs)
            if got != want["hex"]:
                bad.append(f"omega3({level}) = {got} != {want['hex']}")
    out.append(
        ItemResult(
            "pair sets",
            FAIL if bad else PASS,
            "; ".join(bad) if bad else "omega sets for 120, 40, 56, 33 as published",
        )
    )
    return out


def check_representations(provider: FormulaProvider, depth: int = 100) -> list[ItemResult]:
    out = []
    w = provider.w
    ns = range(1, depth + 1)
    jobs = [("quad", a, b) for a, b in omega4(40).pairs + omega4(56).pairs]
    jobs += [("hex", c, d) for c, d in omega3(33).pairs]
    for form, a, b in jobs:
        counter = count_N if form == "quad" else count_R
        bad = _first_failure(ns, lambda n: counter(a, b, n, w) == rep_oracle(form, a, b, n))
        name = ("N" if form == "quad" else "R") + f"_({a},{b})"
        out.append(
            ItemResult(
                f"representation {name}",
                PASS if bad is None else FAIL,
                f"matches the lattice oracle to {depth}"
                if bad is None
                else f"mismatch at n={bad}",
            )
        )

    def eight_squares(n):
        sig_form = (
            16 * sigma(3, n)
            - 32 * sigma_scaled(3, n, 2)
            + 256 * sigma_scaled(3, n, 4)
        )
        return count_N(1, 1, n, w) == sig_form == rep_oracle("quad", 1, 1, n)

    bad = _first_failure(ns, eight_squares)
    out.append(
        ItemResult(
            "representation N_(1,1)",
            PASS if bad is None else FAIL,
            "equals 16 sigma3(n) - 32 sigma3(n/2) + 256 sigma3(n/4) and the "
            f"eight-squares oracle to {depth}"
            if bad is None
            else f"mismatch at n={bad}",
        )
    )
    return out


def check_revisited_representations(provider: FormulaProvider, depth: int = 100) -> list[ItemResult]:
    out = []
    w = provider.w
    ns = range(1, depth + 1)
    bad = _first_failure(ns, lambda n: count_N(1, 3, n, w) == rep_oracle("quad", 1, 3, n))
    out.append(
        ItemResult(
            "representation N_(1,3)",
            PASS if bad is None else FAIL,
            "matches the lattice oracle" if bad is None else f"mismatch at n={bad}",
        )
    )
    bad = _first_failure(ns, lambda n: count_N(2, 3, n, w) == rep_oracle("quad", 2, 3, n))
    out.append(
        ItemResult(
            "representation N_(2,3)",
            PASS if bad is None else FAIL,
            "matches the lattice oracle (assembled with W_(2,3) terms)"
            if bad is None
            else f"mismatch at n={bad}",
        )
    )
    # the published combination replaces W_(2,3) by W_(1,3)
    def published_n23(n):
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

    bad = _first_failure(ns, lambda n: published_n23(n) == rep_oracle("quad", 2, 3, n))
    out.append(
        ItemResult(
            "published N_(2,3) combination",
            DISCREPANCY if bad is not None else PASS,
            f"published combination (using W_(1,3)) fails the oracle first at n={bad}; "
            "the general theorem's W_(2,3) assembly is correct"
            if bad is not None
            else "published combination matches",
        )
    )
    out.append(
        ItemResult(
            "representation N_(1,9)",
            SKIPPED,
            "needs W at levels 9 and 36 (square levels outside the supported "
            "class); evaluation requires an externally supplied basis",
        )
    )
    return out


def check_level_11(provider: FormulaProvider, depth: int = 200) -> list[ItemResult]:
    out = []
    basis = load_fixture_basis(11, depth + 8)
    first_bad, _ = _published_expansion_series_check((1, 11), basis, depth)
    first_bad_w, _ = _published_w_check((1, 11), basis, depth)
    detail = []
    if first_bad is not None:
        detail.append(f"published expansion fails first at n={first_bad}")
    if first_bad_w is not None:
        detail.append(f"published W_(1,11) disagrees with the direct sum first at n={first_bad_w}")
    try:
        f, b11 = provider.formula(1, 11)
        bad = _first_failure(
            range(1, depth + 1), lambda n: evaluate_W(f, b11, n) == brute_force_W(1, 11, n)
        )
        if bad is None:
            gens = ", ".join(g.describe() for g in b11.cusp)
            detail.append(f"replacement weight-4 basis [{gens}] matches the direct sum to {depth}")
            status = DISCREPANCY if (first_bad is not None or first_bad_w is not None) else PASS
        else:
            detail.append(f"replacement basis mismatch at n={bad}")
            status = FAIL
    except DerivationError as e:
        detail.append(f"replacement derivation failed: {e}")
        status = FAIL
    out.append(
        ItemResult(
            "level 11 adjudication (weight-2 auxiliary)", status, "; ".join(detail)
        )
    )
    return out


def check_classical_identities() -> list[ItemResult]:
    out = []
    T = 200
    L = eisenstein_L(1, T)
    L2 = L * L
    bad = _first_failure(
        range(1, T + 1),
        lambda n: L2.coefficient(n) == 240 * sigma(3, n) - 288 * n * sigma(1, n),
    )
    out.append(
        ItemResult(
            "weight-2 square identity",
            PASS if bad is None else FAIL,
            "L^2 = 1 + sum (240 sigma3(n) - 288 n sigma(n)) q^n to 200"
            if bad is None
            else f"mismatch at n={bad}",
        )
    )
    bad = _first_failure(range(0, 101), lambda n: r4(n) == r4_by_enumeration(n))
    bad2 = _first_failure(range(0, 101), lambda n: s4(n) == s4_by_enumeration(n))
    out.append(
        ItemResult(
            "quaternary counts",
            PASS if bad is None and bad2 is None else FAIL,
            "r4 and s4 closed forms match lattice enumeration to 100"
            if bad is None and bad2 is None
            else f"r4 bad at {bad}, s4 bad at {bad2}",
        )
    )
    return out


def check_cache_roundtrip(provider: FormulaProvider, tmpdir: str) -> ItemResult:
    from .cache import Cache

    cache = Cache(tmpdir)
    f, basis = provider.formula(1, 10)
    cache.store_basis(basis)
    cache.store_formula(f)
    b2 = cache.load_basis(10, basis.precision)
    f2 = cache.load_formula(1, 10)
    ok = (
        b2 is not None
        and b2.checksum == basis.checksum
        and [g.eta.exponents for g in b2.cusp] == [g.eta.exponents for g in basis.cusp]
        and f2 == f
    )
    return ItemResult(
        "cache round-trip",
        PASS if ok else FAIL,
        "basis and formula survive serialize/deserialize" if ok else "round-trip mismatch",
    )


def run_all(provider: FormulaProvider, searches: dict[int, set[tuple]]) -> list[ItemResult]:
    """Every verify-paper item, in report order; searches maps each of
    REGENERATION_LEVELS to its regeneration_search output."""
    results: list[ItemResult] = []
    results += check_dimensions()
    results += check_tables_cuspidality()
    results += check_search_regeneration(searches)
    results += check_substitution_claims()
    results += check_published_formulas(provider)
    results += check_oracle_equivalence(provider)
    results.append(check_diagonal())
    results += check_omega_sets()
    results += check_representations(provider)
    results += check_revisited_representations(provider)
    results += check_level_11(provider)
    results += check_classical_identities()
    with tempfile.TemporaryDirectory() as td:
        results.append(check_cache_roundtrip(provider, td))
    return results
