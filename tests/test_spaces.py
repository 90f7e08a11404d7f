import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from divconv import fixtures
from divconv.arith import classify_level, divisors, num_divisors
from divconv.eta import EtaQuotient
from divconv.linalg import rank
from divconv.qseries import QSeries, eisenstein_L, eta_quotient_series
from divconv import spaces
from divconv.spaces import (
    BASIS_LEVEL_CEILING,
    KIND_ETA,
    KIND_PRODUCT,
    CuspGenerator,
    UnsupportedLevelError,
    build_basis,
    eta_generator,
    expand,
    load_fixture_basis,
    profile,
    repair_basis,
    search_basis,
    select_cusp_basis,
)
from divconv.verify import DISCREPANCY, PASS, check_substitution_claims


def test_profile_published_dimensions():
    assert (profile(33).dim_E4, profile(33).dim_S4) == (4, 10)
    assert (profile(40).dim_E4, profile(40).dim_S4) == (8, 14)
    assert (profile(56).dim_E4, profile(56).dim_S4) == (8, 20)
    assert profile(24).dim_S4 == 8
    assert profile(12).dim_S4 == 3
    assert profile(10).dim_S4 == 3
    assert profile(11).dim_S4 == 2
    assert profile(15).dim_S4 == 4
    assert profile(1).dim_S4 == 0
    assert profile(4).dim_S4 == 0


def test_profile_consistency():
    for N in range(1, 201):
        p = profile(N)
        assert p.dim_M4 == p.dim_E4 + p.dim_S4
        assert p.genus >= 0
        if classify_level(N).in_class:
            assert p.dim_E4 == num_divisors(N)


def test_genus_integral_to_10000():
    for N in range(1, 10001):
        assert profile(N).genus >= 0


def test_load_fixture_all_levels():
    for N in fixtures.FIXTURE_LEVELS:
        b = load_fixture_basis(N)
        assert b.dim_cusp == profile(N).dim_S4
        k = b.dim_cusp
        m = [[b.coefficient(j, n) for j in range(k)] for n in range(1, k + 1)]
        assert rank(m) == k, f"level {N} sample matrix singular"
    with pytest.raises(UnsupportedLevelError):
        load_fixture_basis(7)


def test_fixture_defects_recorded():
    assert load_fixture_basis(10).defects == []
    assert any("not cuspidal" in d for d in load_fixture_basis(24).defects)
    assert any("not cuspidal" in d for d in load_fixture_basis(15).defects)
    d33 = load_fixture_basis(33).defects
    assert sum("not cuspidal" in x for x in d33) == 2
    d11 = load_fixture_basis(11).defects
    assert any("weight-2" in x for x in d11)


def test_fixture_level11_declared_generator():
    b = load_fixture_basis(11)
    assert b.cusp[0].kind == "declared-fixture"
    assert b.cusp[0].eta.exponent_map == {1: 2, 11: 2}
    assert b.cusp[1].eta.exponent_map == {1: 4, 11: 4}


def test_substitution_claims():
    # the published b_t(n) = b_s(n/k), read off the fixture exponents
    items = {r.item: (r.status, r.detail) for r in check_substitution_claims()}
    assert items == {
        "substitution relations level 10": (PASS, "b_10,2=b_10,1(n/2)"),
        # published as q^2 substitutions; actually q^3
        "substitution relations level 15": (
            DISCREPANCY,
            "b_15,3(n) = b_15,1(n/3) but published n/2",
        ),
        "substitution relations level 24": (
            PASS,
            "b_24,2=b_24,1(n/2); b_24,4=b_24,1(n/4); b_24,6=b_24,3(n/2)",
        ),
        "substitution relations level 33": (
            DISCREPANCY,
            "b_33,6(n) = b_33,2(n/3) but published n/2",
        ),
    }


@pytest.mark.parametrize(
    "build",
    [
        search_basis,
        repair_basis,
        lambda N: select_cusp_basis(N, [eta_generator(N, {1: 24})]),
        lambda N: build_basis(N, [eta_generator(N, {1: 24})]),
    ],
)
@pytest.mark.parametrize("level", [BASIS_LEVEL_CEILING + 1, 1000000007])
def test_builders_refuse_a_level_above_the_ceiling_first(monkeypatch, build, level):
    # no search runs and no series is expanded before the refusal
    def never(*args, **kwargs):
        raise AssertionError("searched or expanded above the level ceiling")

    monkeypatch.setattr(spaces, "search_cusp_forms", never)
    monkeypatch.setattr(spaces, "expand", never)
    with pytest.raises(UnsupportedLevelError, match="above the basis ceiling"):
        build(level)


def test_select_case1_level_12():
    basis = search_basis(12)
    assert basis.dim_cusp == 3
    assert [g.order() for g in basis.cusp] == [1, 2, 3]


def test_select_case2_level_10():
    basis = search_basis(10)
    assert basis.dim_cusp == 3
    k = basis.dim_cusp
    m = [[basis.coefficient(j, n) for j in range(k)] for n in range(1, k + 1)]
    assert rank(m) == k


def test_select_insufficient_candidates_reports_missing_orders():
    # level 11 has a single weight-4 eta quotient (order 2); order 1 is missing
    cands = [eta_generator(11, {1: 4, 11: 4})]
    with pytest.raises(UnsupportedLevelError) as err:
        select_cusp_basis(11, cands)
    assert str(err.value).endswith("orders not represented: [1]")


def test_select_missing_orders_message_stays_short():
    # dim S4(9973) = 2493: the message names the first 10 missing orders and
    # counts the rest instead of listing all 2493
    with pytest.raises(UnsupportedLevelError) as err:
        select_cusp_basis(9973, [])
    msg = str(err.value)
    assert len(msg.encode()) < 300
    assert "2493" in msg
    assert msg.endswith("orders not represented: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10] and 2483 more")


def test_repair_basis_level_11():
    b = repair_basis(11)
    assert b.dim_cusp == 2
    kinds = sorted(g.kind for g in b.cusp)
    assert kinds == ["eta-eisenstein-product", "eta-quotient"]
    assert [g.order() for g in b.cusp] == [1, 2]
    assert b.defects == []


def test_repair_basis_level_33():
    b = repair_basis(33)
    assert b.dim_cusp == 10
    k = b.dim_cusp
    m = [[b.coefficient(j, n) for j in range(k)] for n in range(1, 2 * k + 1)]
    assert rank(m) == k


@pytest.mark.parametrize(
    "level, count, sha256",
    [
        (30, 98, "1ab328230edef7457e6cec0906a1711e5e8212f981122cb94097b4b78a4e75b3"),
        (33, 11, "b451dd1632162068f48d568e2f662a43de86a56ecd3f1a39f98fce42a19da93e"),
        (42, 96, "bd0d48dd279138eecf6efb00b44564731dccd7344e31f852c1cc94580140bf88"),
        (70, 198, "83935bb28db98810b01d94b543276db1159a877065517e9717aa094cb5f9c1c0"),
    ],
)
def test_repair_candidates_pinned(level, count, sha256):
    # the dedup keeps the first of equal generators, so these rest on how
    # generators and eta quotients compare and hash
    rows = [(g.kind, g.eta.vector(), g.e2_scale) for g in spaces.repair_candidates(level)]
    assert len(rows) == count
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == sha256


def test_basis_at_precision_extends():
    b = load_fixture_basis(10)
    b2 = b.at_precision(250)
    assert b2.precision == 250 and b.precision == 200
    assert b.at_precision(150) is b
    assert b2.checksum == b.checksum
    for j in range(b.dim_cusp):
        for n in range(201):
            assert b.coefficient(j, n) == b2.coefficient(j, n)
        assert b2.coefficient(j, 250) == next(expand([b.cusp[j]], 250)).coefficient(250)


@pytest.mark.parametrize("level", [24, 56])
def test_basis_at_precision_keeps_defects_and_checksum(level):
    b = load_fixture_basis(level)
    assert b.defects
    for T in (220, 240):
        b2 = b.at_precision(T)
        assert b2.defects == b.defects
        assert b2.checksum == b.checksum
        b = b2


def generator_series(g: CuspGenerator, T: int):
    """One generator's series on its own, with its own eta expansion and its
    own L(q) and L(q^t): the per-generator expansion build_basis replaced."""
    s = eta_quotient_series(g.eta.exponent_map, T)
    if g.kind == KIND_PRODUCT:
        t = g.e2_scale
        L, Lt = eisenstein_L(1, T).coeffs, eisenstein_L(t, T).coeffs
        return s * QSeries(x - t * y for x, y in zip(L, Lt))
    return s


@pytest.mark.parametrize(
    "build, expansions",
    [(lambda: repair_basis(33), 3), (lambda: repair_basis(42), 4), (lambda: load_fixture_basis(56), 13)],
    ids=["33-repaired", "42-repaired", "56-fixture"],
)
def test_build_basis_expands_each_series_once(monkeypatch, build, expansions):
    basis = build()
    gens, N, T = basis.cusp, basis.level, basis.precision
    oracle = [generator_series(g, T) for g in gens]
    calls = {spaces.eta_quotient_series: 0, spaces.eisenstein_L: 0}

    def counted(f):
        def call(*args):
            calls[f] += 1
            return f(*args)

        return call

    for name in ("eta_quotient_series", "eisenstein_L"):
        monkeypatch.setattr(spaces, name, counted(getattr(spaces, name)))
    rebuilt = build_basis(N, gens)
    # one expansion per reduced product, its q^k images read off it (the
    # 20 level-56 fixture generators have 13), and L(q) once when any
    # product needs it
    products = any(g.kind == KIND_PRODUCT for g in gens)
    assert list(calls.values()) == [expansions, int(products)]
    assert products == (N != 56)
    assert rebuilt.cusp_series == oracle
    assert rebuilt.checksum == basis.checksum == spaces._matrix_checksum(oracle, len(gens))


CLASS_LEVELS = [N for N in range(1, 121) if classify_level(N).in_class]


@st.composite
def quotient_and_image(draw):
    # a quotient over the divisors of N/k, at a class level N, and its image
    # under q -> q^k; exponents of at most 3 but at delta = 1, which takes
    # sum delta*r to a multiple of 24, and all signs flip if it is negative
    N = draw(st.sampled_from(CLASS_LEVELS))
    k = draw(st.sampled_from(divisors(N)))
    exps = {d: draw(st.integers(-3, 3)) for d in divisors(N // k)}
    exps[1] += -sum(d * r for d, r in exps.items()) % 24
    if sum(d * r for d, r in exps.items()) < 0:
        exps = {d: -r for d, r in exps.items()}
    q = EtaQuotient.make(N, exps)
    return q, q.substitute(k, level=N)


@given(quotient_and_image(), st.integers(0, 150), st.booleans())
def test_expand_reads_each_image_off_one_product(pair, T, image_first):
    gens = [CuspGenerator(kind=KIND_ETA, eta=q) for q in pair]
    if image_first:
        gens.reverse()
    assert list(expand(gens, T)) == [eta_quotient_series(g.eta.exponent_map, T) for g in gens]


def test_generator_series_product_kind():
    g = CuspGenerator(
        kind="eta-eisenstein-product",
        eta=EtaQuotient.make(11, {1: 2, 11: 2}),
        e2_scale=11,
    )
    s = next(expand([g], 20))
    assert s.coefficient(0) == 0
    assert s.coefficient(1) == -10  # q * (1 - 11)
    assert g.order() == 1


def test_checksum_distinguishes_bases():
    a = load_fixture_basis(10)
    c = repair_basis(12)
    assert a.checksum != c.checksum
