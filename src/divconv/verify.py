"""Regression suite against the published reference values (verify-paper).

Each item compares an exact computation with an embedded published value
and reports PASS, FAIL, DOCUMENTED-DISCREPANCY, or SKIPPED.  FAIL is
reserved for this package's own machinery being wrong; a published value
refuted by the direct-summation oracle (which arbitrates every dispute)
reports DOCUMENTED-DISCREPANCY with the exact point of failure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import fixtures
from .arith import classify_level, coprime_pairs, divisors, num_divisors, sigma
from .convolution import (
    DerivationError,
    FormulaProvider,
    brute_force_W,
    derive_formula,
    diagonal_W,
    dispatch_W,
    evaluate_W,
    sturm_bound,
)
from .eta import EtaQuotient, ligozat_check, search_cusp_forms
from .qseries import eisenstein_L, mul, squared_difference
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


@dataclass
class ItemResult:
    item: str
    status: str
    detail: str

    def line(self) -> str:
        return f"{self.status:<24} {self.item}: {self.detail}"


def _published_expansion_series_check(pair, basis, depth=200):
    """Directly test the published expansion coefficients against the
    squared difference; ambiguous signs are resolved by trying both."""
    a, b = pair
    data = fixtures.PUBLISHED_EXPANSIONS[pair]
    lhs = squared_difference(a, b, depth)
    ambiguous = []
    sig = dict(data["sigma3"])
    cusp = dict(data["cusp"])
    for d, v in sig.items():
        if v is None:
            ambiguous.append(("sigma3", d))
    for j, v in cusp.items():
        if v is None:
            ambiguous.append(("cusp", j))

    def run(assign):
        s = dict(sig)
        c = dict(cusp)
        for (kind, key), sgn in assign.items():
            absval = fixtures.PUBLISHED_ABS[("expansion", pair, kind, key)]
            if kind == "sigma3":
                s[key] = sgn * absval
            else:
                c[key] = sgn * absval
        if data["constant"] != (a - b) ** 2:
            return 0
        for n in range(1, depth + 1):
            val = Fraction(0)
            for d, coeff in s.items():
                if n % d == 0:
                    val += coeff * sigma(3, n // d)
            for j, coeff in c.items():
                val += coeff * basis.coefficient(j - 1, n)
            if val != lhs.coefficient(n):
                return n
        return None

    if not ambiguous:
        return run({}), []
    for signs in itertools.product((1, -1), repeat=len(ambiguous)):
        assign = dict(zip(ambiguous, signs))
        first_bad = run(assign)
        if first_bad is None:
            res = [
                (kind, key, "+" if s > 0 else "-") for (kind, key), s in assign.items()
            ]
            return None, res
    return run(dict(zip(ambiguous, [1] * len(ambiguous)))), []


def _published_w_check(pair, basis, depth=200):
    a, b = pair
    data = fixtures.PUBLISHED_W[pair]
    ambiguous = [k for k, v in data["cusp"].items() if v is None]

    def run(assign):
        for n in range(1, depth + 1):
            val = Fraction(0)
            for d, coeff in data["sigma3"].items():
                if n % d == 0:
                    val += coeff * sigma(3, n // d)
            for (j, scl), coeff in data["cusp"].items():
                if coeff is None:
                    coeff = assign[(j, scl)]
                if n % scl == 0:
                    val += coeff * basis.coefficient(j - 1, n // scl)
            val += (Fraction(1, 24) - Fraction(n, 4 * b)) * (sigma(1, n // a) if n % a == 0 else 0)
            val += (Fraction(1, 24) - Fraction(n, 4 * a)) * (sigma(1, n // b) if n % b == 0 else 0)
            if val != brute_force_W(a, b, n):
                return n
        return None

    if not ambiguous:
        return run({}), []
    for signs in itertools.product((1, -1), repeat=len(ambiguous)):
        assign = {
            k: s * fixtures.PUBLISHED_ABS[("w", pair, "cusp", k)]
            for k, s in zip(ambiguous, signs)
        }
        first_bad = run(assign)
        if first_bad is None:
            return None, [(k, "+" if s > 0 else "-") for k, s in zip(ambiguous, signs)]
    assign = {k: fixtures.PUBLISHED_ABS[("w", pair, "cusp", k)] for k in ambiguous}
    return run(assign), []


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


def check_search_regeneration(jobs: int = 1) -> list[ItemResult]:
    out = []
    for N in (33, 40, 56):
        m = profile(N).dim_S4
        found = {q.exponents for q in search_cusp_forms(N, 8, 10, max_order=m, jobs=jobs)}
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
        derived_note = ""
        try:
            f = derive_formula(a, b, basis, verify_to=provider.verify_to)
            solved = {d: 240 * f.x[d] for d in f.x}
            printed = fixtures.PUBLISHED_EXPANSIONS[pair]["sigma3"]
            diff = [
                f"sigma3(n/{d}): derived {solved[d]} vs printed {printed[d]}"
                for d in solved
                if printed.get(d) is not None and solved[d] != printed[d]
            ]
            derived_note = "; derivation verified" + (
                f" but differs from print ({diff[0]}, ...)" if diff else ", matches print"
            )
            derived_diff = bool(diff)
        except DerivationError as e:
            derived_note = f"; derivation on the published basis fails: {e}"
            derived_diff = True
        if first_bad is None and resolved:
            res = ", ".join(f"{kind}[{key}] sign resolved to {s}" for kind, key, s in resolved)
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
            for n in range(1, depth + 1):
                if evaluate_W(f, basis, n) != brute_force_W(a, b, n):
                    bad.append(f"({a},{b}) mismatch at n={n}")
                    break
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
        for n in range(1, depth + 1):
            want = brute_force_W(alpha, alpha, n) if n % alpha == 0 else 0
            if diagonal_W(alpha, n) != want:
                return ItemResult(
                    "diagonal closed form", FAIL, f"alpha={alpha}, n={n} mismatch"
                )
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
    jobs = []
    for a, b in omega4(40).pairs:
        jobs.append(("quad", a, b))
    for a, b in omega4(56).pairs:
        jobs.append(("quad", a, b))
    for c, d in omega3(33).pairs:
        jobs.append(("hex", c, d))
    for form, a, b in jobs:
        counter = count_N if form == "quad" else count_R
        bad = next(
            (
                n
                for n in range(1, depth + 1)
                if counter(a, b, n, w) != rep_oracle(form, a, b, n)
            ),
            None,
        )
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
    bad = None
    for n in range(1, depth + 1):
        closed = 16 * sigma(1, n) - 64 * (sigma(1, n // 4) if n % 4 == 0 else 0)
        closed += 64 * diagonal_W(1, n) - 512 * dispatch_W(1, 4, n, provider)
        if n % 4 == 0:
            closed += 1024 * diagonal_W(1, n // 4)
        sig_form = (
            16 * sigma(3, n)
            - 32 * (sigma(3, n // 2) if n % 2 == 0 else 0)
            + 256 * (sigma(3, n // 4) if n % 4 == 0 else 0)
        )
        if closed != sig_form or closed != rep_oracle("quad", 1, 1, n):
            bad = n
            break
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
    bad = next(
        (n for n in range(1, depth + 1) if count_N(1, 3, n, w) != rep_oracle("quad", 1, 3, n)),
        None,
    )
    out.append(
        ItemResult(
            "representation N_(1,3)",
            PASS if bad is None else FAIL,
            "matches the lattice oracle" if bad is None else f"mismatch at n={bad}",
        )
    )
    bad = next(
        (n for n in range(1, depth + 1) if count_N(2, 3, n, w) != rep_oracle("quad", 2, 3, n)),
        None,
    )
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
            8 * (sigma(1, n // 2) if n % 2 == 0 else 0)
            - 32 * (sigma(1, n // 8) if n % 8 == 0 else 0)
            + 8 * (sigma(1, n // 3) if n % 3 == 0 else 0)
            - 32 * (sigma(1, n // 12) if n % 12 == 0 else 0)
            + 64 * w(1, 3, n)
            - 256 * (w(3, 8, n) + w(1, 12, n))
        )
        if n % 4 == 0:
            total += 1024 * w(1, 3, n // 4)
        return total

    bad = next(
        (n for n in range(1, depth + 1) if published_n23(n) != rep_oracle("quad", 2, 3, n)),
        None,
    )
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
        bad = next(
            (n for n in range(1, depth + 1) if evaluate_W(f, b11, n) != brute_force_W(1, 11, n)),
            None,
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
    L2 = mul(L, L)
    bad = next(
        (
            n
            for n in range(1, T + 1)
            if L2.coefficient(n) != 240 * sigma(3, n) - 288 * n * sigma(1, n)
        ),
        None,
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
    bad = next((n for n in range(0, 101) if r4(n) != r4_by_enumeration(n)), None)
    bad2 = next((n for n in range(0, 101) if s4(n) != s4_by_enumeration(n)), None)
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


def run_all(provider: FormulaProvider | None = None, jobs: int = 1, cache_dir: str | None = None) -> list[ItemResult]:
    import tempfile

    provider = provider or FormulaProvider(jobs=jobs)
    results: list[ItemResult] = []
    results += check_dimensions()
    results += check_tables_cuspidality()
    results += check_search_regeneration(jobs=jobs)
    results += check_substitution_claims()
    results += check_published_formulas(provider)
    results += check_oracle_equivalence(provider)
    results.append(check_diagonal())
    results += check_omega_sets()
    results += check_representations(provider)
    results += check_revisited_representations(provider)
    results += check_level_11(provider)
    results += check_classical_identities()
    if cache_dir is None:
        with tempfile.TemporaryDirectory() as td:
            results.append(check_cache_roundtrip(provider, td))
    else:
        results.append(check_cache_roundtrip(provider, cache_dir))
    return results
