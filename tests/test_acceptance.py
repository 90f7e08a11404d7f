"""Acceptance gate: one test (or test pair) per criterion, exact tolerances.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion.  Three tests are red by design: they assert published values
that exact arithmetic refutes (the direct-summation oracle of criterion 4
arbitrates).  Each failure message carries the refutation; the ledger
outside the package documents the analysis.
"""

import time
from fractions import Fraction

import pytest

from divconv import fixtures
from divconv.arith import coprime_pairs, sigma
from divconv.convolution import (
    DerivationError,
    brute_force_W,
    derive_formula,
    diagonal_W,
    evaluate_W,
    sturm_bound,
)
from divconv.eta import EtaQuotient, ligozat_check, order_at_infinity, search_cusp_forms
from divconv.qseries import eisenstein_L
from divconv.representation import (
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
from divconv.spaces import load_fixture_basis, profile
from divconv import verify as verify_mod


def _report(num: int, ok: bool, detail: str = ""):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}" + (f" - {detail}" if detail else ""))


@pytest.fixture(scope="module")
def searches():
    out = {}
    for N in (33, 40, 56):
        t0 = time.time()
        m = profile(N).dim_S4
        found = search_cusp_forms(N, 8, bound=10, max_order=m)
        out[N] = ({q.exponents for q in found}, time.time() - t0, found)
    return out


def test_criterion_1_dimensions():
    t0 = time.time()
    ok = (
        (profile(33).dim_E4, profile(33).dim_S4) == (4, 10)
        and (profile(40).dim_E4, profile(40).dim_S4) == (8, 14)
        and (profile(56).dim_E4, profile(56).dim_S4) == (8, 20)
        and profile(24).dim_S4 == 8
        and profile(12).dim_S4 == 3
    )
    elapsed = time.time() - t0
    ok = ok and elapsed < 1.0
    _report(1, ok, f"dimension reproduction in {elapsed * 1000:.0f} ms")
    assert ok


def test_criterion_2_search_supersets_and_order_structure(searches):
    problems = []
    for N in (33, 40, 56):
        found, elapsed, quotients = searches[N]
        if elapsed >= 60:
            problems.append(f"level {N} search took {elapsed:.0f}s")
        for i, row in enumerate(fixtures.BASIS_TABLES[N], start=1):
            if i in fixtures.NONCUSPIDAL_ROWS.get(N, ()):
                continue  # provably not cusp forms; the companion red test covers them
            if EtaQuotient.make(N, row).exponents not in found:
                problems.append(f"level {N} row {i} missing")
            rep = ligozat_check(EtaQuotient.make(N, row))
            if not (rep.is_cusp and rep.weight == 4):
                problems.append(f"level {N} row {i} fails the cusp check")
    orders40 = {order_at_infinity(q) for q in searches[40][2]}
    if not set(range(1, 15)) <= orders40:
        problems.append(f"level 40 orders {sorted(orders40)} missing some of 1..14")
    ok = not problems
    _report(2, ok, "; ".join(problems) if problems else "tables regenerated (cuspidal rows); orders 1..14 present at 40")
    assert ok, problems


def test_criterion_2_table_rows_are_cusp_forms(searches):
    """Red by design: six published table rows are not cusp forms.

    The criterion asserts every row of the three tables passes the cusp
    check and appears in the search output.  Exact arithmetic refutes this:
    the listed rows have cusp-order sum exactly 0 at some cusp (condition
    (iv') requires > 0 at every cusp), so they are modular but not
    cuspidal, and the search rightly never returns them.
    """
    problems = []
    for N in (33, 40, 56):
        found, _, _ = searches[N]
        for i, row in enumerate(fixtures.BASIS_TABLES[N], start=1):
            e = EtaQuotient.make(N, row)
            rep = ligozat_check(e)
            if not rep.is_cusp:
                zero_at = sorted(d for d, v in rep.orders.items() if v == 0)
                problems.append(
                    f"level {N} row {i}: cusp-order sum is exactly 0 at d={zero_at}"
                )
            if e.exponents not in found:
                problems.append(f"level {N} row {i}: not in the search output")
    if problems:
        _report(2, False, "table rows refuted: " + "; ".join(problems[:2]) + " ...")
    assert not problems, (
        "published rows refuted by exact arithmetic (see ledger): " + "; ".join(problems)
    )


def _derived_vs_published(pair, basis, verify_to=200):
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
        got = f.cusp_coefficient(j - 1) if scale == 1 else None
        if scale != 1:
            continue  # substituted-generator bookkeeping checked via expansion Y
        if v is None:
            absv = fixtures.PUBLISHED_ABS[("w", pair, "cusp", (j, scale))]
            if abs(got) != absv:
                mismatches.append(f"W b_{j}: derived {got} vs printed +-{absv}")
        elif got != v:
            mismatches.append(f"W b_{j}: derived {got} vs printed {v}")
    return f, mismatches


def test_criterion_3_level_56_coefficients():
    t0 = time.time()
    basis = load_fixture_basis(56, 208)
    all_mism = []
    for pair in ((1, 56), (7, 8)):
        f, mism = _derived_vs_published(pair, basis)
        all_mism += [f"{pair}: {m}" for m in mism]
        if pair == (1, 56):
            if f.y[12] != 0:
                all_mism.append(f"(1,56): Y_13 = {f.y[12]}, expected 0 (printed omission)")
            if f.cusp_coefficient(15) != Fraction(7, 10):
                all_mism.append("(1,56): b_16 coefficient should resolve to +7/10")
    elapsed = time.time() - t0
    ok = not all_mism and elapsed < 120
    _report(
        3,
        ok,
        "level-56 printed values reproduced; dropped operators resolve to '+' "
        f"and Y_13 = 0 ({elapsed:.0f}s)" if ok else "; ".join(all_mism),
    )
    assert ok, all_mism


def test_criterion_3_printed_values_levels_33_40():
    """Red by design: printed level-33/40 closed forms are refuted by the
    direct sum (criterion 4's ground truth).

    Level 33: the published basis is not a basis (two rows are not cusp
    forms, three rows satisfy a different level), the sampled linear system
    is inconsistent, and the printed coefficients violate the constant row
    (sum of X_delta must be (1-33)^2 = 1024) and disagree with the direct
    sum from n=14 on.  Level 40: the system is uniquely solvable and its
    exact solution differs from print; the printed formulas disagree with
    the direct sum from n=2 on.
    """
    failures = []
    for pair in ((1, 33), (3, 11)):
        basis = load_fixture_basis(33, 208)
        try:
            _, mism = _derived_vs_published(pair, basis)
            failures += [f"{pair}: {m}" for m in mism]
        except DerivationError as e:
            failures.append(f"{pair}: derivation on the published basis fails ({e})")
    for pair in ((1, 40), (5, 8)):
        basis = load_fixture_basis(40, 208)
        _, mism = _derived_vs_published(pair, basis)
        failures += [f"{pair}: {m}" for m in mism]
    if failures:
        _report(3, False, f"{len(failures)} published level-33/40 values refuted")
    assert not failures, (
        "published values refuted by exact arithmetic (see ledger): "
        + "; ".join(failures[:6])
        + (f" ... and {len(failures) - 6} more" if len(failures) > 6 else "")
    )


def test_criterion_4_oracle_equivalence(provider):
    t0 = time.time()
    problems = []
    for N in fixtures.FIXTURE_LEVELS:
        for a, b in [(x, y) for x, y in coprime_pairs(N) if x < y]:
            try:
                f, basis = provider.formula(a, b)
            except DerivationError as e:
                problems.append(f"({a},{b}): {e}")
                continue
            if f.verified_to < sturm_bound(N):
                problems.append(f"({a},{b}): verified_to {f.verified_to} < sturm")
            for n in range(1, 201):
                if evaluate_W(f, basis, n) != brute_force_W(a, b, n):
                    problems.append(f"({a},{b}): mismatch at n={n}")
                    break
    elapsed = time.time() - t0
    ok = not problems and elapsed < 300
    _report(
        4,
        ok,
        f"evaluate_W == direct sum (n<=200) for all 14 pairs across 8 levels; "
        f"identities verified past the Sturm bound ({elapsed:.0f}s)"
        if ok
        else "; ".join(problems) + f" ({elapsed:.0f}s)",
    )
    assert ok, problems


SECTION6_GOOD_PAIRS = [(1, 10), (2, 5), (1, 12), (3, 4), (1, 15), (3, 5)]


def test_criterion_5_section6_pairs():
    problems = []
    for pair in SECTION6_GOOD_PAIRS:
        basis = load_fixture_basis(pair[0] * pair[1], 208)
        _, mism = _derived_vs_published(pair, basis)
        problems += [f"{pair}: {m}" for m in mism]
    for alpha in range(1, 6):
        for n in range(1, 201):
            want = brute_force_W(alpha, alpha, n) if n % alpha == 0 else 0
            if diagonal_W(alpha, n) != want:
                problems.append(f"diagonal ({alpha},{alpha}) at n={n}")
                break
    ok = not problems
    _report(
        5,
        ok,
        "W_(1,10), W_(2,5), W_(1,12), W_(3,4), W_(1,15), W_(3,5) match print; "
        "diagonal closed form matches the direct sum"
        if ok
        else "; ".join(problems),
    )
    assert ok, problems


def test_criterion_5_printed_values_level_24():
    """Red by design: the published level-24 basis is rank-deficient.

    Its eighth generator has cusp-order sum exactly 0 at d=1, its q-series
    lies in the span of the Eisenstein block and the other seven
    generators, so no coefficients are derivable from the published basis;
    the printed W_(1,24) and W_(3,8) disagree with the direct sum (first
    failures n=2 and n=5).
    """
    failures = []
    basis = load_fixture_basis(24, 208)
    for pair in ((1, 24), (3, 8)):
        try:
            _, mism = _derived_vs_published(pair, basis)
            failures += [f"{pair}: {m}" for m in mism]
        except DerivationError as e:
            failures.append(f"{pair}: derivation on the published basis fails ({e})")
    if failures:
        _report(5, False, "published level-24 basis is rank-deficient")
    assert not failures, (
        "published level-24 values refuted by exact arithmetic (see ledger): "
        + "; ".join(failures)
    )


def test_criterion_6_representations(provider):
    problems = []
    if list(omega4(40).pairs) != [(1, 10), (2, 5)]:
        problems.append("omega4(40)")
    if list(omega4(56).pairs) != [(1, 14), (2, 7)]:
        problems.append("omega4(56)")
    if list(omega3(33).pairs) != [(1, 11)]:
        problems.append("omega3(33)")
    if list(omega4(120).pairs) != [(1, 30), (2, 15), (3, 10), (5, 6)]:
        problems.append("omega4(120)")
    if list(omega3(120).pairs) != [(1, 40), (5, 8)]:
        problems.append("omega3(120)")
    w = provider.w
    for a, b in list(omega4(40).pairs) + list(omega4(56).pairs):
        for n in range(1, 101):
            if count_N(a, b, n, w) != rep_oracle("quad", a, b, n):
                problems.append(f"N_({a},{b}) at n={n}")
                break
    for c, d in omega3(33).pairs:
        for n in range(1, 101):
            if count_R(c, d, n, w) != rep_oracle("hex", c, d, n):
                problems.append(f"R_({c},{d}) at n={n}")
                break
    for n in range(1, 101):
        closed = (
            16 * sigma(3, n)
            - 32 * (sigma(3, n // 2) if n % 2 == 0 else 0)
            + 256 * (sigma(3, n // 4) if n % 4 == 0 else 0)
        )
        if count_N(1, 1, n, w) != closed or closed != rep_oracle("quad", 1, 1, n):
            problems.append(f"N_(1,1) at n={n}")
            break
    ok = not problems
    _report(
        6,
        ok,
        "count_N/count_R match the lattice oracle (n<=100); N_(1,1) closed form holds; "
        "pair sets reproduce the published examples" if ok else "; ".join(problems),
    )
    assert ok, problems


def test_criterion_7_classical_identities():
    problems = []
    T = 200
    L = eisenstein_L(1, T)
    sq = L * L
    for n in range(1, T + 1):
        if sq.coefficient(n) != 240 * sigma(3, n) - 288 * n * sigma(1, n):
            problems.append(f"weight-2 square identity at n={n}")
            break
    for n in range(0, 101):
        if r4(n) != r4_by_enumeration(n):
            problems.append(f"r4 at {n}")
            break
    for n in range(0, 101):
        if s4(n) != s4_by_enumeration(n):
            problems.append(f"s4 at {n}")
            break
    ok = not problems
    _report(7, ok, "square identity to 200; r4/s4 vs enumeration to 100" if ok else "; ".join(problems))
    assert ok, problems


def test_criterion_8_level_11_adjudication(provider):
    results = verify_mod.check_level_11(provider)
    assert len(results) == 1
    r = results[0]
    ok = r.status in (verify_mod.PASS, verify_mod.DISCREPANCY)
    _report(8, ok, f"{r.status}: {r.detail}")
    assert ok, r.detail
    # the verdict must be definitive: the published identity is refuted
    assert r.status == verify_mod.DISCREPANCY
    assert "fails first at n=3" in r.detail
    assert "matches the direct sum to 200" in r.detail
