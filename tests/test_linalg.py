from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from divconv.linalg import Echelon, InconsistentSystem, UnderdeterminedSystem, rank, solve


def gauss_jordan(rows, rhs):
    """Reference: Gauss-Jordan over Fractions on [rows | rhs].

    Returns (rank, inconsistent, solution); solution is None unless the
    coefficient matrix has full column rank.
    """
    nr = len(rows)
    nc = len(rows[0])
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    piv_r = 0
    for c in range(nc):
        p = next((r for r in range(piv_r, nr) if m[r][c] != 0), None)
        if p is None:
            continue
        if p != piv_r:
            m[piv_r], m[p] = m[p], m[piv_r]
        pv = m[piv_r][c]
        m[piv_r] = [x / pv for x in m[piv_r]]
        for r in range(nr):
            if r != piv_r and m[r][c] != 0:
                f = m[r][c]
                mp = m[piv_r]
                m[r] = [x - f * y for x, y in zip(m[r], mp)]
        piv_r += 1
    inconsistent = any(m[r][nc] != 0 for r in range(piv_r, nr))
    solution = [m[c][nc] for c in range(nc)] if piv_r == nc else None
    return piv_r, inconsistent, solution


@st.composite
def systems(draw):
    """Small integer systems [rows | rhs]: some rows are integer combinations
    of earlier rows (rank-deficient), and the rhs of some rows is perturbed
    away from a hidden solution (inconsistent)."""
    nc = draw(st.integers(1, 5))
    nr = draw(st.integers(1, 8))
    entry = st.integers(-6, 6)
    hidden = draw(st.lists(entry, min_size=nc, max_size=nc))
    rows = []
    for _ in range(nr):
        if rows and draw(st.booleans()):
            picks = draw(st.lists(st.tuples(st.sampled_from(rows), entry), min_size=1, max_size=3))
            row = [sum(k * r[j] for r, k in picks) for j in range(nc)]
        else:
            row = draw(st.lists(entry, min_size=nc, max_size=nc))
        rows.append(row)
    rhs = [sum(a * x for a, x in zip(row, hidden)) for row in rows]
    for i in draw(st.sets(st.integers(0, nr - 1), max_size=2)):
        rhs[i] += draw(st.integers(1, 3))
    return rows, rhs


@given(systems())
def test_echelon_matches_reference_row_by_row(system):
    rows, rhs = system
    ech = Echelon(len(rows[0]))
    for k, (row, b) in enumerate(zip(rows, rhs), start=1):
        before = ech.rank
        rose = ech.add(row, b)
        want_rank, want_inconsistent, _ = gauss_jordan(rows[:k], rhs[:k])
        assert ech.rank == want_rank
        assert rose == (want_rank > before)
        assert ech.inconsistent == want_inconsistent


F = Fraction


# Fraction rows: a square system, and an overdetermined one whose third row
# is the sum of the first two
@example(([[F(1, 2), F(-2, 3), 3], [F(5, 7), 1, F(1, 4)], [2, F(3, 5), -1]], [F(1, 3), -2, F(7, 6)]))
@example(([[F(1, 2), F(1, 3)], [2, F(-1, 5)], [F(5, 2), F(2, 15)]], [F(1, 6), 3, F(19, 6)]))
@given(systems())
def test_solve_matches_reference(system):
    rows, rhs = system
    want_rank, want_inconsistent, want = gauss_jordan(rows, rhs)
    if want is None:
        with pytest.raises(UnderdeterminedSystem, match=f"^rank {want_rank} < "):
            solve(rows, rhs)
    elif want_inconsistent:
        with pytest.raises(InconsistentSystem):
            solve(rows, rhs)
    else:
        assert solve(rows, rhs) == want
    assert rank(rows) == want_rank


@given(systems(), st.randoms(use_true_random=False))
def test_rank_does_not_depend_on_row_order(system, rnd):
    rows, _ = system
    shuffled = rows[:]
    rnd.shuffle(shuffled)
    assert rank(shuffled) == rank(rows)


def test_fraction_rows_and_edge_cases():
    assert rank([[Fraction(1, 2), Fraction(1, 3)], [3, 2]]) == 1
    assert solve([[Fraction(1, 2), 0], [0, 3]], [1, Fraction(1, 2)]) == [2, Fraction(1, 6)]
    assert rank([]) == 0
    with pytest.raises(UnderdeterminedSystem, match="no equations"):
        solve([], [])


@given(systems(), st.randoms(use_true_random=False))
def test_column_order_changes_neither_rank_nor_solution(system, rnd):
    # a column permutation keeps the rank after every row and the
    # inconsistency flag, and permutes the unique solution the same way
    rows, rhs = system
    perm = list(range(len(rows[0])))
    rnd.shuffle(perm)
    ech, permuted = Echelon(len(perm)), Echelon(len(perm))
    for row, b in zip(rows, rhs):
        assert ech.add(row, b) == permuted.add([row[j] for j in perm], b)
        assert (ech.rank, ech.inconsistent) == (permuted.rank, permuted.inconsistent)
    if ech.rank == len(perm) and not ech.inconsistent:
        (y, D), (py, pD) = ech.solution(), permuted.solution()
        assert [Fraction(py[k], pD) for k in range(len(perm))] == [Fraction(y[j], D) for j in perm]


def test_add_refuses_fraction_entries():
    # rows are integers only; a Fraction would otherwise be floored by //
    ech = Echelon(2)
    with pytest.raises(TypeError):
        ech.add([1, Fraction(1, 2)])
    with pytest.raises(TypeError):
        ech.add([1, 2], Fraction(1, 2))
    assert ech.rank == 0
