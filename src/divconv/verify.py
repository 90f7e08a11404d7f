"""Regression suite against the published reference values (verify-paper).

Each item compares an exact computation with an embedded published value
and reports PASS, FAIL, DOCUMENTED-DISCREPANCY, or SKIPPED.  FAIL is
reserved for this package's own machinery being wrong; a published value
refuted by the direct-summation oracle (which arbitrates every dispute)
reports DOCUMENTED-DISCREPANCY with the exact point of failure.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction

from . import fixtures, published
from .arith import classify_level, coprime_pairs, num_divisors, sigma, sigma_scaled
from .convolution import (
    DerivationError,
    FormulaProvider,
    brute_force_W,
    closed_form_W,
    column_system,
    derive_formula,
    diagonal_W,
    evaluate_W,
    first_residual_row,
)
from .eta import EtaQuotient, ligozat_check, order_at_infinity, search_cusp_forms, substitution_scale
from .linalg import over_common_denominator
from .qseries import eisenstein_L
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
from .spaces import (
    VERIFY_TO,
    load_fixture_basis,
    profile,
    search_max_order,
    sturm_bound,
)

PASS = "PASS"
FAIL = "FAIL"
DISCREPANCY = "DOCUMENTED-DISCREPANCY"
SKIPPED = "SKIPPED"

REGENERATION_LEVELS = (33, 40, 56)
REPRESENTATION_DEPTH = 100  # below VERIFY_TO: the lattice oracle enumerates


class ItemResult(namedtuple("ItemResult", "item status detail")):
    def line(self) -> str:
        return f"{self.status:<24} {self.item}: {self.detail}"


def _item(item, failures=(), discrepancy=None, passed="") -> ItemResult:
    """The one status rule: FAIL with the joined failures, else
    DOCUMENTED-DISCREPANCY with discrepancy when it is non-empty, else
    PASS with passed."""
    if failures:
        return ItemResult(item, FAIL, "; ".join(failures))
    if discrepancy:
        return ItemResult(item, DISCREPANCY, discrepancy)
    return ItemResult(item, PASS, passed)


def _first_failure(ns, holds):
    """The first n in ns for which holds(n) is false, or None."""
    return next((n for n in ns if not holds(n)), None)


def _first_w_mismatch(a, b, w):
    """The first n <= VERIFY_TO with w(n) != brute_force_W(a, b, n), or
    None: the one check of a W against the direct sum."""
    return _first_failure(range(1, VERIFY_TO + 1), lambda n: w(n) == brute_force_W(a, b, n))


def _oracle_item(item, holds, upto, passed) -> ItemResult:
    """PASS when holds(n) for every 1 <= n <= upto, else FAIL at the
    first n that breaks it."""
    bad = _first_failure(range(1, upto + 1), holds)
    return _item(item, [] if bad is None else [f"mismatch at n={bad}"], passed=passed)


def _published_item(item, first_bad, resolved, *, dropped, passed, fails, note=""):
    """A printed identity is a DOCUMENTED-DISCREPANCY when it fails first
    at first_bad (`fails` + note), or holds only once the (label, sign)
    pairs in resolved restore its dropped signs (`dropped` + the signs);
    else PASS (passed + note)."""
    if first_bad is not None:
        disc = f"{fails} first at n={first_bad}{note}"
    elif resolved:
        disc = dropped + ", ".join(f"{label} sign resolved to {s}" for label, s in resolved)
    else:
        disc = None
    return _item(item, discrepancy=disc, passed=passed + note)


def _resolve_signs(printed, first_bad):
    """Try every sign pattern on the Unsigned values of printed (key ->
    printed value).

    first_bad(signed) returns the first failing n (or None) given printed
    with signs applied.  Returns (None, [(key, "+" or "-"), ...]) for the
    first pattern that holds, else the first failure with every sign "+"
    and an empty list.
    """
    ambiguous = [k for k, v in printed.items() if isinstance(v, published.Unsigned)]
    for signs in itertools.product((1, -1), repeat=len(ambiguous)):
        signed = {**printed, **{k: s * printed[k] for k, s in zip(ambiguous, signs)}}
        if first_bad(signed) is None:
            return None, [(k, "+" if s > 0 else "-") for k, s in zip(ambiguous, signs)]
    return first_bad(printed), []


def _published_expansion_series_check(pair, basis):
    """The first failing row of the printed 240 X_delta / 240 and Y_j on
    derive_formula's column system; dropped signs are resolved by trying
    both, and a printed key with no column raises ValueError."""
    a, b = pair
    data = published.PUBLISHED_EXPANSIONS[pair]
    rows, lhs = column_system(a, b, basis)
    # each column's key and scale, in column_system's order
    columns = [(("cusp", j), 1) for j in range(1, basis.dim_cusp + 1)]
    columns += [(("sigma3", d), Fraction(1, 240)) for d in basis.eisenstein]
    printed = {("sigma3", d): v for d, v in data["sigma3"].items()}
    printed.update({("cusp", j): v for j, v in data["cusp"].items()})
    if unknown := printed.keys() - dict(columns).keys():
        raise ValueError(f"published expansion {pair}: no column for {sorted(unknown)}")

    def first_bad(signed):
        if data["constant"] != (a - b) ** 2:
            return 0
        coeffs = [signed.get(key, 0) * scale for key, scale in columns]
        return first_residual_row(rows, lhs, *over_common_denominator(coeffs), VERIFY_TO)

    return _resolve_signs(printed, first_bad)


def _published_w_check(pair, basis):
    a, b = pair
    data = published.PUBLISHED_W[pair]

    def first_bad(cusp):
        return _first_w_mismatch(a, b, lambda n: closed_form_W(a, b, data["sigma3"], cusp, basis, n))

    return _resolve_signs(data["cusp"], first_bad)


def derived_vs_published(pair, basis):
    """Derive W for pair on basis and list every coefficient that differs
    from print: the expansion's 240 X_delta and Y_j, and the W formula's
    sigma3 and unsubstituted cusp coefficients.  A printed value with a
    dropped sign is compared in absolute value.  Raises DerivationError
    when the basis admits no verified derivation."""
    a, b = pair
    f = derive_formula(a, b, basis)
    mismatches = []

    def compare(label, got, printed):
        if isinstance(printed, published.Unsigned):
            if abs(got) != printed:
                mismatches.append(f"{label}: derived {got} vs printed +-{printed}")
        elif got != printed:
            mismatches.append(f"{label}: derived {got} vs printed {printed}")

    pub = published.PUBLISHED_EXPANSIONS[pair]
    for d, v in pub["sigma3"].items():
        compare(f"sigma3(n/{d})", 240 * f.x[d], v)
    for j, v in pub["cusp"].items():
        compare(f"Y_{j}", f.y[j - 1], v)
    pub_w = published.PUBLISHED_W[pair]
    sigma3, cusp = f.w_terms
    for d, v in pub_w["sigma3"].items():
        compare(f"W sigma3(n/{d})", sigma3[d], v)
    for (j, scale), v in pub_w["cusp"].items():
        if scale != 1:
            continue  # substituted-generator bookkeeping checked via expansion Y
        compare(f"W b_{j}", cusp[j, scale], v)
    return f, mismatches


def check_dimensions() -> list[ItemResult]:
    bad = []
    for N, want in published.PUBLISHED_DIMENSIONS.items():
        prof = profile(N)
        for key, val in want.items():
            if getattr(prof, key) != val:
                bad.append(f"{key}({N}) = {getattr(prof, key)} != {val}")
    mism = [
        N
        for N in range(1, 201)
        if classify_level(N).in_class and profile(N).dim_E4 != num_divisors(N)
    ]
    return [
        _item("dimensions", bad, passed="dim_E4/dim_S4 match at 33, 40, 56, 24, 12"),
        _item(
            "eisenstein-dimension d(N)",
            [f"failures at {mism}"] if mism else [],
            passed="dim_E4 = d(N) for all class levels <= 200",
        ),
    ]


def check_tables_cuspidality() -> list[ItemResult]:
    out = []
    for N, rows in sorted(fixtures.BASIS_TABLES.items()):
        declared = fixtures.DECLARED_WEIGHT2.get(N, ())
        expected_bad = set(published.NONCUSPIDAL_ROWS.get(N, ()))
        unexpected, confirmed = [], []
        for i, exps in enumerate(rows, start=1):
            if i in declared:
                continue
            q = EtaQuotient.make(N, exps)
            rep = ligozat_check(q)
            if rep.is_cusp and q.weight == 4:
                if i in expected_bad:
                    unexpected.append(f"row {i} unexpectedly cuspidal")
            else:
                zero_at = sorted(d for d, v in rep.orders.items() if v == 0)
                confirmed.append(f"row {i} (order sum 0 at d={zero_at})")
                if i not in expected_bad:
                    unexpected.append(f"row {i} not cuspidal and not a known defect")
        out.append(
            _item(
                f"table cuspidality level {N}",
                unexpected,
                discrepancy=confirmed
                and "published rows are not cusp forms: " + "; ".join(confirmed),
                passed=f"all {len(rows)} rows cuspidal",
            )
        )
    return out


def regeneration_search(N: int) -> set[EtaQuotient]:
    """The quotients of the exhaustive weight-4 cusp search at N with the
    default bound and order cap: the sets the published tables are checked
    against."""
    return set(search_cusp_forms(N, 8, max_order=search_max_order(N)))


def check_search_regeneration(searches: dict[int, set[EtaQuotient]]) -> list[ItemResult]:
    """Compare the tables at REGENERATION_LEVELS with searches[N], the
    output of regeneration_search(N)."""
    out = []
    for N in REGENERATION_LEVELS:
        found = searches[N]
        expected_bad = set(published.NONCUSPIDAL_ROWS.get(N, ()))
        missing, excluded = [], []
        for i, exps in enumerate(fixtures.BASIS_TABLES[N], start=1):
            if EtaQuotient.make(N, exps) in found:
                if i in expected_bad:
                    missing.append(f"row {i} found despite non-cuspidality")
            elif i in expected_bad:
                excluded.append(str(i))
            else:
                missing.append(f"row {i} missing from search output")
        orders = sorted({order_at_infinity(e) for e in found})
        order_note = ""
        if N == 40:
            if [o for o in orders if o <= 14] != list(range(1, 15)):
                missing.append(f"orders present {orders}, need 1..14")
            else:
                order_note = "; orders 1..14 all present"
        out.append(
            _item(
                f"search regeneration level {N}",
                missing,
                discrepancy=excluded
                and f"all cuspidal rows found ({len(found)} candidates); published "
                f"rows {{{', '.join(excluded)}}} are not cusp forms and are "
                f"rightly excluded" + order_note,
                passed=f"all rows found among {len(found)} candidates" + order_note,
            )
        )
    return out


def check_substitution_claims() -> list[ItemResult]:
    """Each published b_t(n) = b_s(n/k), read off the fixture exponents.

    A q-series q^s prod (1 - q^n)^{c_n} determines its c_n, and an eta
    quotient has c_n = sum_{delta | n} r_delta, so by Moebius inversion its
    expansion determines its exponents.  So b_t(n) = b_s(n/k) iff row t is
    row s with every delta scaled by k (`substitution_scale`), and as the
    smallest delta of s times k is the smallest of t, at most one k does.
    """
    out = []
    for N in sorted(published.SUBSTITUTION_CLAIMS):
        etas = [EtaQuotient.make(N, exps) for exps in fixtures.BASIS_TABLES[N]]
        rows = [
            (t, s, pub, substitution_scale(etas[s - 1], etas[t - 1]))
            for t, s, pub in published.SUBSTITUTION_CLAIMS[N]
        ]
        bad = [
            f"b_{N},{t}(n) = b_{N},{s}(n/{actual or '?'}) but published n/{pub}"
            for t, s, pub, actual in rows
            if actual != pub
        ]
        ok = [f"b_{N},{t}=b_{N},{s}(n/{pub})" for t, s, pub, actual in rows if actual == pub]
        out.append(
            _item(
                f"substitution relations level {N}",
                discrepancy="; ".join(bad),
                passed="; ".join(ok),
            )
        )
    return out


def check_published_formulas() -> list[ItemResult]:
    levels = {a * b for a, b in [*published.PUBLISHED_EXPANSIONS, *published.PUBLISHED_W]}
    bases = {N: load_fixture_basis(N) for N in sorted(levels)}
    out = []
    for pair in sorted(published.PUBLISHED_EXPANSIONS):
        a, b = pair
        basis = bases[a * b]
        first_bad, resolved = _published_expansion_series_check(pair, basis)
        try:
            _, diff = derived_vs_published(pair, basis)
            derived_note = "; derivation verified" + (
                f" but differs from print ({diff[0]}, ...)" if diff else ", matches print"
            )
        except DerivationError as e:
            derived_note = f"; derivation on the published basis fails: {e}"
        out.append(
            _published_item(
                f"published expansion ({a},{b})",
                first_bad,
                [(f"{kind}[{key}]", s) for (kind, key), s in resolved],
                dropped=f"printed operators dropped; identity holds to {VERIFY_TO} with ",
                passed=f"exact to n={VERIFY_TO}",
                fails="printed identity fails",
                note=derived_note,
            )
        )
    for pair in sorted(published.PUBLISHED_W):
        a, b = pair
        first_bad, resolved = _published_w_check(pair, bases[a * b])
        out.append(
            _published_item(
                f"published W formula ({a},{b})",
                first_bad,
                [(f"b_{j}(n/{s})", sg) for (j, s), sg in resolved],
                dropped=f"printed sign dropped; formula matches the direct sum to {VERIFY_TO} with ",
                passed=f"matches the direct sum for all n <= {VERIFY_TO}",
                fails="printed formula disagrees with the direct sum",
            )
        )
    return out


def check_oracle_equivalence(provider: FormulaProvider) -> list[ItemResult]:
    out = []
    for N in fixtures.FIXTURE_LEVELS:
        pairs = [(a, b) for a, b in coprime_pairs(N) if a < b]
        bad = []
        for a, b in pairs:
            try:
                f = provider.formula(a, b)
            except DerivationError as e:
                bad.append(f"({a},{b}) derivation failed: {e}")
                continue
            if f.verified_to < sturm_bound(N):
                bad.append(f"({a},{b}) verified only to {f.verified_to}")
                continue
            n = _first_w_mismatch(a, b, lambda n: evaluate_W(f, n))
            if n is not None:
                bad.append(f"({a},{b}) mismatch at n={n}")
        out.append(
            _item(
                f"oracle equivalence level {N}",
                bad,
                passed=f"all pairs {pairs} match the direct sum to {VERIFY_TO} "
                f"(basis: {provider.basis_for(N).source}, sturm {sturm_bound(N)})",
            )
        )
    return out


def check_diagonal() -> ItemResult:
    # the first alpha with a mismatch, then its first n
    firsts = ((a, _first_w_mismatch(a, a, lambda n: diagonal_W(a, n))) for a in range(1, 6))
    bad = next(((a, n) for a, n in firsts if n is not None), None)
    return _item(
        "diagonal closed form",
        [] if bad is None else [f"alpha={bad[0]}, n={bad[1]} mismatch"],
        passed=f"W_(a,a) matches the direct sum (a <= 5, n <= {VERIFY_TO})",
    )


def check_omega_sets() -> list[ItemResult]:
    bad = []
    for level, want in published.PUBLISHED_OMEGA.items():
        for form, omega in (("quad", omega4), ("hex", omega3)):
            if form not in want:
                continue
            got = list(omega(level))
            if got != want[form]:
                bad.append(f"{omega.__name__}({level}) = {got} != {want[form]}")
    return [_item("pair sets", bad, passed="omega sets for 120, 40, 56, 33 as published")]


def _lattice_item(form, a, b, w, note) -> ItemResult:
    """PASS when count_N (form "quad") or count_R (form "hex") of (a, b)
    on w matches rep_oracle for every n <= REPRESENTATION_DEPTH."""
    counter = count_N if form == "quad" else count_R
    return _oracle_item(
        f"representation {'N' if form == 'quad' else 'R'}_({a},{b})",
        lambda n: counter(a, b, n, w) == rep_oracle(form, a, b, n),
        REPRESENTATION_DEPTH,
        "matches the lattice oracle" + note,
    )


def check_representations(provider: FormulaProvider) -> list[ItemResult]:
    w = provider.w
    jobs = [("quad", a, b) for a, b in omega4(40) + omega4(56)]
    jobs += [("hex", c, d) for c, d in omega3(33)]
    out = [_lattice_item(form, a, b, w, f" to {REPRESENTATION_DEPTH}") for form, a, b in jobs]

    def eight_squares(n):
        sig_form = (
            16 * sigma(3, n)
            - 32 * sigma_scaled(3, n, 2)
            + 256 * sigma_scaled(3, n, 4)
        )
        return count_N(1, 1, n, w) == sig_form == rep_oracle("quad", 1, 1, n)

    out.append(
        _oracle_item(
            "representation N_(1,1)",
            eight_squares,
            REPRESENTATION_DEPTH,
            "equals 16 sigma3(n) - 32 sigma3(n/2) + 256 sigma3(n/4) and the "
            f"eight-squares oracle to {REPRESENTATION_DEPTH}",
        )
    )
    return out


def check_revisited_representations(provider: FormulaProvider) -> list[ItemResult]:
    w = provider.w
    out = [
        _lattice_item("quad", a, b, w, note)
        for a, b, note in ((1, 3, ""), (2, 3, " (assembled with W_(2,3) terms)"))
    ]
    # the published combination is the theorem with every W_(2,y) replaced
    # by W_(1,y)
    def published_w(x, y, m):
        return w(1 if x == 2 else x, y, m)

    bad = _first_failure(
        range(1, REPRESENTATION_DEPTH + 1),
        lambda n: count_N(2, 3, n, published_w) == rep_oracle("quad", 2, 3, n),
    )
    out.append(
        _item(
            "published N_(2,3) combination",
            discrepancy=bad is not None
            and "published combination (using W_(1,3) for W_(2,3) and W_(1,12) for "
            f"W_(2,12)) fails the oracle first at n={bad}; "
            "the general theorem's W_(2,3) assembly is correct",
            passed="published combination matches",
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


def check_level_11(provider: FormulaProvider) -> list[ItemResult]:
    basis = load_fixture_basis(11)
    first_bad, _ = _published_expansion_series_check((1, 11), basis)
    first_bad_w, _ = _published_w_check((1, 11), basis)
    refuted = []
    if first_bad is not None:
        refuted.append(f"published expansion fails first at n={first_bad}")
    if first_bad_w is not None:
        refuted.append(f"published W_(1,11) disagrees with the direct sum first at n={first_bad_w}")
    name = "level 11 adjudication (weight-2 auxiliary)"
    try:
        f = provider.formula(1, 11)
    except DerivationError as e:
        return [_item(name, refuted + [f"replacement derivation failed: {e}"])]
    bad = _first_w_mismatch(1, 11, lambda n: evaluate_W(f, n))
    gens = ", ".join(g.describe() for g in f.basis.cusp)
    replaced = f"replacement weight-4 basis [{gens}] matches the direct sum to {VERIFY_TO}"
    return [
        _item(
            name,
            [] if bad is None else refuted + [f"replacement basis mismatch at n={bad}"],
            discrepancy=refuted and "; ".join(refuted + [replaced]),
            passed=replaced,
        )
    ]


def check_classical_identities() -> list[ItemResult]:
    L = eisenstein_L(1, VERIFY_TO)
    L2 = L * L
    bad = _first_failure(range(0, 101), lambda n: r4(n) == r4_by_enumeration(n))
    bad2 = _first_failure(range(0, 101), lambda n: s4(n) == s4_by_enumeration(n))
    return [
        _oracle_item(
            "weight-2 square identity",
            lambda n: L2.coefficient(n) == 240 * sigma(3, n) - 288 * n * sigma(1, n),
            VERIFY_TO,
            f"L^2 = 1 + sum (240 sigma3(n) - 288 n sigma(n)) q^n to {VERIFY_TO}",
        ),
        _item(
            "quaternary counts",
            [] if bad is None and bad2 is None else [f"r4 bad at {bad}, s4 bad at {bad2}"],
            passed="r4 and s4 closed forms match lattice enumeration to 100",
        ),
    ]


def run_all(provider: FormulaProvider) -> list[ItemResult]:
    """Every verify-paper item, in report order, with the regeneration
    search run at each of REGENERATION_LEVELS."""
    results: list[ItemResult] = []
    results += check_dimensions()
    results += check_tables_cuspidality()
    results += check_search_regeneration({N: regeneration_search(N) for N in REGENERATION_LEVELS})
    results += check_substitution_claims()
    results += check_published_formulas()
    results += check_oracle_equivalence(provider)
    results.append(check_diagonal())
    results += check_omega_sets()
    results += check_representations(provider)
    results += check_revisited_representations(provider)
    results += check_level_11(provider)
    results += check_classical_identities()
    return results
