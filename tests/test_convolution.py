import itertools
import json
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divconv import fixtures, published
from divconv.arith import classify_level, coprime_pairs, sigma, sigma_scaled
from divconv.convolution import (
    DIRECT_SUM_MAX_N,
    BasisNotSpanningError,
    FormulaIntegrityError,
    FormulaProvider,
    UnderdeterminedBasisError,
    VerificationError,
    brute_force_W,
    closed_form_W,
    column_system,
    derive_formula,
    diagonal_W,
    dispatch_W,
    evaluate_W,
    reduce_by_gcd,
)
from divconv.linalg import solve
from divconv.qseries import QSeries, squared_difference
from divconv.spaces import (
    VERIFY_TO,
    UnsupportedLevelError,
    basis_precision,
    load_fixture_basis,
    profile,
    repair_basis,
    search_basis,
    sturm_bound,
)
from divconv import verify


def test_brute_force_examples():
    assert brute_force_W(1, 1, 3) == 6
    assert brute_force_W(1, 33, 1) == 0
    assert brute_force_W(1, 1, 2) == 1


def double_sum_W(alpha, beta, n):
    """The definition: sigma(l) sigma(m) over every l >= 1 whose m = (n -
    alpha l) / beta is a natural number."""
    total = 0
    for l in range(1, (n - 1) // alpha + 1):
        rest = n - alpha * l
        if rest % beta == 0:
            total += sigma(1, l) * sigma(1, rest // beta)
    return total


@example(6, 4, 3000)  # gcd 2, n a multiple of it
@example(6, 4, 2999)  # gcd 2 does not divide n
@example(60, 60, 3000)  # the diagonal
@example(7, 7, 2999)
@example(1, 60, 61)
@given(st.integers(1, 60), st.integers(1, 60), st.integers(1, 3000))
def test_brute_force_is_the_double_sum(alpha, beta, n):
    # brute_force_W visits only its terms; the definition visits every (l, m)
    assert brute_force_W(alpha, beta, n) == double_sum_W(alpha, beta, n)


def test_reduce_by_gcd():
    assert reduce_by_gcd(2, 4, 10) == (1, 2, 5)
    assert reduce_by_gcd(2, 4, 7) is None
    assert reduce_by_gcd(3, 5, 17) == (3, 5, 17)


@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 80))
def test_reduce_matches_definition(a, b, n):
    reduced = reduce_by_gcd(a, b, n)
    direct = brute_force_W(a, b, n)
    if reduced is None:
        assert direct == 0
    else:
        a1, b1, n1 = reduced
        assert brute_force_W(a1, b1, n1) == direct


def test_diagonal_examples():
    assert diagonal_W(1, 3) == 6
    assert diagonal_W(2, 7) == 0
    assert diagonal_W(1, 2) == 1


def test_diagonal_matches_brute_force():
    for alpha in range(1, 6):
        for n in range(1, 201):
            want = brute_force_W(alpha, alpha, n) if n % alpha == 0 else 0
            assert diagonal_W(alpha, n) == want


def test_sturm_bound():
    assert sturm_bound(40) == 24
    assert sturm_bound(33) == 16
    assert sturm_bound(1) == 1


def test_basis_precision_covers_every_row_a_derivation_reads():
    for N in range(1, 201):
        if not classify_level(N).in_class:
            continue
        T = basis_precision(N)
        assert T >= N
        assert T >= 2 * sturm_bound(N)
        assert T >= profile(N).dim_M4 + 16
    assert {basis_precision(N) for N in fixtures.FIXTURE_LEVELS} == {200}


def test_every_basis_carries_basis_precision(provider):
    for N, basis in [
        (10, load_fixture_basis(10)),
        (10, search_basis(10)),
        (12, repair_basis(12)),
    ]:
        assert basis.precision == basis_precision(N)
    f = provider.formula(1, 12)
    assert f.basis.precision == f.verified_to == basis_precision(12)


def test_derive_level10_matches_published():
    basis = load_fixture_basis(10)
    f = derive_formula(1, 10, basis)
    pub = published.PUBLISHED_EXPANSIONS[(1, 10)]
    for d, v in pub["sigma3"].items():
        assert 240 * f.x[d] == v
    for j, v in pub["cusp"].items():
        assert f.y[j - 1] == v
    pub_w = published.PUBLISHED_W[(1, 10)]
    for d, v in pub_w["sigma3"].items():
        assert f.w_terms[0][d] == v
    assert f.w_terms[1][1, 1] == Fraction(-31, 1560)
    assert f.w_terms[1][2, 1] == Fraction(-5, 52)
    assert f.w_terms[1][3, 1] == Fraction(1, 12)


def test_closed_form_serves_exactly_verified_to():
    basis = repair_basis(12)
    f = derive_formula(1, 12, basis)
    assert f.verified_to == basis.precision
    assert evaluate_W(f, 200) == brute_force_W(1, 12, 200)
    with pytest.raises(ValueError, match="verified range"):
        evaluate_W(f, 230)


def test_dispatch_routes_past_verified_to_to_direct_sum(provider, monkeypatch):
    from divconv import convolution

    short = provider.formula(1, 12)._replace(verified_to=100)
    served = []

    def recording(g, n):
        served.append(n)
        return evaluate_W(g, n)

    p = FormulaProvider()
    monkeypatch.setattr(p, "formula", lambda a, b: short)
    monkeypatch.setattr(convolution, "evaluate_W", recording)
    for n in (100, 101, 150):
        assert dispatch_W(1, 12, n, p) == brute_force_W(1, 12, n)
    assert served == [100]


def test_derive_verifies_past_sturm(provider):
    f = provider.formula(1, 12)
    assert f.verified_to >= sturm_bound(12)
    assert f.verified_to >= 200


def test_evaluate_examples(provider):
    f = provider.formula(1, 33)
    assert evaluate_W(f, 1) == 0
    for n in range(1, 201):
        assert evaluate_W(f, n) == brute_force_W(1, 33, n)


# The failure texts feed ModularBasis.fixture_failure and the --machine
# output, so they are pinned byte for byte.


def test_fixture_level_33_does_not_span():
    basis = load_fixture_basis(33)
    with pytest.raises(BasisNotSpanningError) as err:
        derive_formula(1, 33, basis)
    assert str(err.value) == (
        "level 33 (1,33): no exact solution; the basis does not span the "
        "squared Eisenstein difference"
    )


LEVEL_24_FAILURE = (
    "level 24: sample matrix rank 15 < 16 unknowns after exhausting n <= 200; "
    "the basis is degenerate"
)


@pytest.mark.parametrize(
    "N, failure",
    [
        (24, LEVEL_24_FAILURE),
        (33, "level 33 (3,11): no exact solution; the basis does not span the squared Eisenstein difference"),
    ],
)
def test_fixture_probe_failures_are_pinned(provider, N, failure):
    # FormulaProvider probes a fixture basis with its smallest coprime b > a
    assert provider.basis_for(N).fixture_failure == failure


def test_fixture_level_24_underdetermined():
    with pytest.raises(UnderdeterminedBasisError) as err:
        derive_formula(1, 24, load_fixture_basis(24))
    assert str(err.value) == LEVEL_24_FAILURE


def test_level_24_failure_text_is_the_same_everywhere(provider):
    assert provider.formula(3, 8).basis.fixture_failure == LEVEL_24_FAILURE
    lines = Path(__file__).with_name("verify_paper_lines.txt").read_text()
    assert lines.count(f"derivation on the published basis fails: {LEVEL_24_FAILURE}\n") == 2


def test_fixture_level_11_fails_verification():
    basis = load_fixture_basis(11)
    with pytest.raises(BasisNotSpanningError) as err:
        derive_formula(1, 11, basis)
    assert str(err.value) == (
        "level 11 (1,11): no exact solution; the basis does not span the "
        "squared Eisenstein difference"
    )


def test_verification_names_the_first_failing_row():
    # one cusp coefficient perturbed at a row past every sampled row: the
    # elimination cannot see it, so only the verification loop can, and its
    # first failure is that row.  The level-10 solution has denominator 13,
    # so a check that scaled one side only would fail at n=1.
    basis = load_fixture_basis(10)
    coeffs = list(basis.cusp_series[0].coeffs)
    coeffs[150] += 1
    planted = basis._replace(cusp_series=[QSeries(coeffs), *basis.cusp_series[1:]])
    with pytest.raises(VerificationError) as err:
        derive_formula(1, 10, planted)
    assert str(err.value) == (
        "level 10 (1,10): solved identity fails first at n=150 (sturm bound 6); "
        "the basis columns do not span the form"
    )


RESOLVE_GOLDEN = Path(__file__).parents[1] / "perfbench" / "golden" / "resolve.json"


@pytest.mark.parametrize(
    "pair",
    [tuple(map(int, k.split(","))) for k, v in json.loads(RESOLVE_GOLDEN.read_text()).items() if v["exit"] == 0],
    ids=str,
)
def test_derivation_equals_a_solve_in_the_m_first_column_order(provider, pair):
    # column_system puts the cusp columns first; solving every row of the
    # system with the M(q^delta) columns first must give the same X and Y
    a, b = pair
    basis = provider.basis_for(a * b)
    f = derive_formula(a, b, basis)
    rows, lhs = column_system(a, b, basis)
    m = basis.dim_cusp
    sol = solve([row[m:] + row[:m] for row in rows], lhs)
    nd = len(sol) - m
    assert f.x == dict(zip(basis.eisenstein, sol[:nd]))
    assert f.y == sol[nd:]


def test_provider_notes(provider):
    b40 = provider.formula(1, 40).basis
    b33 = provider.formula(1, 33).basis
    assert (b40.source, b40.fixture_failure) == ("fixture", None)
    assert b33.source == "repaired"
    assert b33.fixture_failure == (
        "level 33 (3,11): no exact solution; the basis does not span the "
        "squared Eisenstein difference"
    )
    # a level without a fixture basis is repaired with no fixture failure
    b42 = provider.formula(6, 7).basis
    assert (b42.source, b42.fixture_failure) == ("repaired", None)
    assert provider.basis_for(40) is b40


def test_provider_keeps_fixture_probe_formula(monkeypatch):
    # (3, 4) is the pair the level-12 fixture probe derives
    from divconv import convolution

    calls = []
    real = convolution.derive_formula

    def counting(*args, **kwargs):
        calls.append(args[:2])
        return real(*args, **kwargs)

    monkeypatch.setattr(convolution, "derive_formula", counting)
    f = FormulaProvider().formula(3, 4)
    assert calls == [(3, 4)]
    assert f.basis.source == "fixture"
    assert all(evaluate_W(f, n) == brute_force_W(3, 4, n) for n in range(1, 101))


@pytest.mark.parametrize(
    "pair, derived",
    [((3, 11), [(3, 11), (3, 11)]), ((1, 10), [(2, 5), (1, 10)])],
    ids=["33-probe-fails", "10-probe-other-pair"],
)
def test_provider_builds_each_series_once(monkeypatch, pair, derived):
    # level 33's probe (3, 11) fails on the fixture basis and derives again
    # on the repaired one; level 10's probe (2, 5) comes before (1, 10)
    from divconv import convolution

    calls = []

    def counted(name):
        real = getattr(convolution, name)

        def call(*args):
            calls.append((name, args))
            return real(*args)

        monkeypatch.setattr(convolution, name, call)

    for name in ("derive_formula", "eisenstein_M", "squared_difference"):
        counted(name)
    f = FormulaProvider().formula(*pair)
    T = f.basis.precision
    assert [args[:2] for name, args in calls if name == "derive_formula"] == derived
    assert [args for name, args in calls if name == "eisenstein_M"] == [(1, T)]
    assert [args for name, args in calls if name == "squared_difference"] == [
        (*p, T) for p in dict.fromkeys(derived)
    ]
    assert all(evaluate_W(f, n) == brute_force_W(*pair, n) for n in range(1, 101))


def test_basis_independence_level_12(provider):
    f_fix = provider.formula(1, 12)
    f_rep = derive_formula(1, 12, repair_basis(12))
    assert f_fix.basis.checksum != f_rep.basis.checksum or f_fix.y == f_rep.y
    for n in range(1, 201):
        assert evaluate_W(f_fix, n) == evaluate_W(f_rep, n)


def test_basis_independence_level_10_search_route(provider):
    # the plain-search basis picks different generators than the fixture;
    # the X, Y coefficients differ but the function values may not
    f_fix = provider.formula(1, 10)
    f_sea = derive_formula(1, 10, search_basis(10))
    assert f_sea.basis.source == "searched"
    assert f_sea.basis.checksum != f_fix.basis.checksum
    assert f_sea.y != f_fix.y
    for n in range(1, 201):
        assert evaluate_W(f_fix, n) == evaluate_W(f_sea, n)


def test_dispatch_reexpands_beyond_precision(provider):
    assert dispatch_W(1, 10, 300, provider) == brute_force_W(1, 10, 300)
    assert dispatch_W(1, 10, 555, provider) == brute_force_W(1, 10, 555)


def test_dispatch_past_precision_keeps_the_basis():
    # n past the basis precision is answered by the direct sum; the level's
    # basis is neither re-expanded nor replaced
    p = FormulaProvider()
    basis = p.formula(7, 8).basis
    assert basis.precision == basis_precision(56)
    assert dispatch_W(7, 8, 20000, p) == brute_force_W(7, 8, 20000)
    assert p.formula(7, 8).basis is basis
    assert basis.precision == basis_precision(56)


# both sides of the basis precision (200) at a fixture level (10, 56),
# repaired levels (33, 24), a repair-only level (42) and a gcd-reducible pair
@given(
    st.sampled_from([(1, 10), (2, 5), (3, 11), (7, 8), (4, 10), (3, 8), (6, 7)]),
    st.integers(1, 416),
)
def test_dispatch_beyond_fixture_precision_matches_direct_sum(provider, pair, n):
    assert dispatch_W(*pair, n, provider) == brute_force_W(*pair, n)


# the pairs whose printed W formula verify-paper passes: the printed
# coefficients on the fixture basis, the derived formula and the direct sum
PRINTED_W_PASS = [(1, 10), (2, 5), (1, 12), (3, 4), (1, 15), (3, 5), (7, 8)]


@cache
def _printed_basis(N):
    return load_fixture_basis(N)


@given(st.sampled_from(PRINTED_W_PASS), st.integers(1, 200))
def test_printed_derived_and_direct_W_agree(provider, pair, n):
    a, b = pair
    printed = published.PUBLISHED_W[pair]
    want = brute_force_W(a, b, n)
    assert closed_form_W(a, b, printed["sigma3"], printed["cusp"], _printed_basis(a * b), n) == want
    assert evaluate_W(provider.formula(a, b), n) == want


def expansion_at(sigma3: dict, cusp: dict, basis, n: int):
    """sum sigma3[delta] sigma3(n/delta) + sum cusp[j, s] b_j(n/s), j 1-based,
    skipping zero sigma3 and b_j values.  With sigma3[delta] = 240 X_delta
    and cusp[j, 1] = Y_j it is the q^n coefficient (n >= 1) of the
    expansion sum X_delta M(q^delta) + sum Y_j b_j."""
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
    return val


def _printed_expansion_cases(data):
    """data with every sign pattern of its Unsigned values applied, and
    each of those with +1 planted on each printed coefficient in turn."""
    keys = [("sigma3", d) for d in data["sigma3"]] + [("cusp", j) for j in data["cusp"]]
    ambiguous = [k for k in keys if isinstance(data[k[0]][k[1]], published.Unsigned)]
    for signs in itertools.product((1, -1), repeat=len(ambiguous)):
        sign = dict(zip(ambiguous, signs))
        signed = {k: sign.get(k, 1) * Fraction(data[k[0]][k[1]]) for k in keys}
        for planted in (None, *keys):
            values = {k: v + (k == planted) for k, v in signed.items()}
            yield {
                "constant": data["constant"],
                "sigma3": {d: values["sigma3", d] for d in data["sigma3"]},
                "cusp": {j: values["cusp", j] for j in data["cusp"]},
            }


@pytest.mark.parametrize("pair", sorted(published.PUBLISHED_EXPANSIONS), ids=str)
def test_printed_expansion_check_matches_the_expansion_oracle(monkeypatch, pair):
    # verify-paper's printed-expansion check runs on derive_formula's column
    # system; its first failing row must be the first n where the printed
    # expansion, evaluated term by term, leaves the squared difference
    a, b = pair
    basis = _printed_basis(a * b)
    lhs = squared_difference(a, b, VERIFY_TO)
    assert published.PUBLISHED_EXPANSIONS[pair]["constant"] == (a - b) ** 2
    for case in _printed_expansion_cases(published.PUBLISHED_EXPANSIONS[pair]):
        cusp = {(j, 1): v for j, v in case["cusp"].items()}
        want = next(
            (
                n
                for n in range(1, VERIFY_TO + 1)
                if expansion_at(case["sigma3"], cusp, basis, n) != lhs.coefficient(n)
            ),
            None,
        )
        monkeypatch.setitem(published.PUBLISHED_EXPANSIONS, pair, case)
        assert verify._published_expansion_series_check(pair, basis) == (want, [])


def test_printed_expansion_key_without_a_column_raises(monkeypatch):
    data = published.PUBLISHED_EXPANSIONS[1, 10]
    for extra in ({"sigma3": {**data["sigma3"], 3: 1}}, {"cusp": {**data["cusp"], 4: 1}}):
        monkeypatch.setitem(published.PUBLISHED_EXPANSIONS, (1, 10), {**data, **extra})
        with pytest.raises(ValueError, match=r"published expansion \(1, 10\): no column for"):
            verify._published_expansion_series_check((1, 10), _printed_basis(10))


def test_dispatch_gcd_reduction(provider):
    for n in range(1, 61):
        want = brute_force_W(2, 5, n // 2) if n % 2 == 0 else 0
        assert dispatch_W(4, 10, n, provider) == want


def test_dispatch_diagonal(provider):
    assert dispatch_W(7, 7, 14, provider) == 1
    assert dispatch_W(7, 7, 13, provider) == 0


def test_dispatch_formula_path(provider):
    for n in range(1, 101):
        assert dispatch_W(1, 40, n, provider) == brute_force_W(1, 40, n)


def test_unsupported_level():
    p = FormulaProvider()
    with pytest.raises(UnsupportedLevelError):
        p.formula(1, 9)  # 9 = 3^2: odd part not squarefree
    with pytest.raises(UnsupportedLevelError):
        p.formula(1, 16)  # 2^4: nu > 3
    with pytest.raises(UnsupportedLevelError):
        dispatch_W(1, 9, 10**6, p)  # refused before the direct sum


def test_dispatch_refuses_direct_sum_past_its_ceiling(provider):
    # the direct sum is O(n): past the verified range dispatch serves it up
    # to the ceiling and refuses a larger reduced n at once
    with pytest.raises(ValueError, match=f"direct-sum ceiling n <= {DIRECT_SUM_MAX_N}"):
        dispatch_W(1, 10, DIRECT_SUM_MAX_N + 1, provider)
    with pytest.raises(ValueError, match=f"W_\\(1,10\\)\\({DIRECT_SUM_MAX_N + 1}\\)"):
        dispatch_W(2, 20, 2 * (DIRECT_SUM_MAX_N + 1), provider)
    # the diagonal closed form and the oracle itself have no ceiling
    assert dispatch_W(3, 3, 3 * 10**8, provider) == diagonal_W(1, 10**8)
    assert isinstance(brute_force_W(1000, 1001, DIRECT_SUM_MAX_N + 1), int)


def test_evaluate_integrity_guard(provider):
    f = provider.formula(1, 10)
    broken = f._replace(y=[y + Fraction(1, 7) for y in f.y])
    with pytest.raises(FormulaIntegrityError):
        evaluate_W(broken, 5)


def test_formula_provider_coprime_guard(provider):
    with pytest.raises(ValueError):
        provider.formula(2, 4)


# The class levels below 60 (nu <= 3, odd part squarefree) split into those
# whose weight-4 cusp space gets a spanning basis and those that do not.
RESOLVING_LEVELS = [
    2, 3, 4, 5, 6, 8, 10, 11, 12, 14, 15, 20, 22, 24, 26, 28, 30, 33, 34, 35, 40, 42, 44,
    46, 52, 56,
]  # fmt: skip
UNSUPPORTED_LEVELS = [7, 13, 17, 19, 21, 23, 29, 31, 37, 38, 39, 41, 43, 47, 51, 53, 55, 57, 58, 59]
CLASS_PAIRS = [p for N in RESOLVING_LEVELS for p in coprime_pairs(N) if p[0] < p[1]]


def test_class_levels_below_60_that_resolve(provider):
    resolved, unsupported = [], []
    for N in range(2, 60):
        if not classify_level(N).in_class:
            continue
        try:
            provider.basis_for(N)
            resolved.append(N)
        except UnsupportedLevelError:
            unsupported.append(N)
    assert (resolved, unsupported) == (RESOLVING_LEVELS, UNSUPPORTED_LEVELS)


# every resolvable coprime pair below 60, either way round and times
# g = 1..3; twelve consecutive n from a start up to twice verified_to after
# the gcd reduction, so both the closed form and the direct-sum branch of
# dispatch_W answer, and every residue class of a small sigma3 index appears
@pytest.mark.parametrize("pair", CLASS_PAIRS, ids=lambda p: f"{p[0]},{p[1]}")
@settings(max_examples=8)
@given(data=st.data())
def test_dispatch_matches_direct_sum_over_the_class(provider, pair, data):
    g = data.draw(st.integers(1, 3), label="g")
    a, b = pair[0] * g, pair[1] * g
    if data.draw(st.booleans(), label="swap"):
        a, b = b, a
    start = data.draw(st.integers(1, 2 * VERIFY_TO * g), label="start")
    for n in range(start, start + 12):
        assert dispatch_W(a, b, n, provider) == brute_force_W(a, b, n), n
