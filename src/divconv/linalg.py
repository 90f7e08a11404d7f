"""Exact linear algebra: one incremental fraction-free elimination.

`Echelon` holds integer rows [coeffs | rhs...] in fraction-free (Bareiss)
echelon form and takes one row at a time: each row is reduced once against
the stored pivot rows, reports whether the rank rose, and flags an
inconsistent system when its coefficients reduce to 0 and a right-hand side
does not.  Every reduced entry is a minor of the rows added so far
(Sylvester's identity, Bareiss 1968), so the divisions are exact and the
entries stay bounded.  Rows are integers only: a Fraction entry is a
TypeError, never floored.  `solution` gives the unique solution of each
right-hand side as integer numerators over the last pivot D, back-substituted
in integers.  `rank` and `solve` are one-shot loops over it that scale
Fraction rows to integers first; `solve` divides out into Fractions and
rejects underdetermined or inconsistent systems instead of guessing.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import index


class UnderdeterminedSystem(ValueError):
    pass


class InconsistentSystem(ValueError):
    pass


def over_common_denominator(values) -> tuple[list[int], int]:
    """(numerators, den) for int or Fraction values: den is the lcm of their
    denominators and numerators[i] = values[i] * den, exactly."""
    den = 1
    for x in values:
        if isinstance(x, Fraction):
            den = lcm(den, x.denominator)
    return [int(x * den) for x in values], den


class Echelon:
    """Fraction-free row echelon of a system with `ncols` unknowns."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.inconsistent = False
        # pivot rows (length ncols + 1) in insertion order, with their pivot
        # columns; row k is zero in the pivot columns of rows 0..k-1
        self._rows: list[list[int]] = []
        self._pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def add(self, coeffs, *rhs) -> bool:
        """Reduce the integer row [coeffs | rhs...]; True when it raised the rank.
        Every row has the same number of right-hand sides, one 0 when none is given."""
        row = [*map(index, coeffs), *map(index, rhs or (0,))]
        prev = 1
        for pivot_row, c in zip(self._rows, self._pivots):
            pivot = pivot_row[c]
            factor = row[c]
            if factor:
                row = [(pivot * x - factor * y) // prev for x, y in zip(row, pivot_row)]
            elif pivot != prev:
                row = [pivot * x // prev for x in row]
            prev = pivot
        c = next((j for j in range(self.ncols) if row[j]), None)
        if c is None:
            if any(row[self.ncols :]):
                self.inconsistent = True
            return False
        self._rows.append(row)
        self._pivots.append(c)
        return True

    def solution(self) -> tuple[list[list[int]], int]:
        """(ys, D): ys[b] / D solves right-hand side b, D the last pivot; needs full rank, no inconsistency."""
        if self.rank < self.ncols:
            raise UnderdeterminedSystem(f"rank {self.rank} < {self.ncols} unknowns")
        if self.inconsistent:
            raise InconsistentSystem("no exact solution satisfies every sampled equation")
        # the last pivot D is a minor of the selected rows, so y = D*x is
        # integral (Cramer) and each y_c divides out exactly
        D = self._rows[-1][self._pivots[-1]] if self._rows else 1
        ys = []
        for b in range(self.ncols, len(self._rows[0]) if self._rows else self.ncols + 1):
            y = [0] * self.ncols
            for row, c in zip(reversed(self._rows), reversed(self._pivots)):
                acc = D * row[b] - sum(row[j] * y[j] for j in self._pivots if j != c and row[j])
                y[c] = acc // row[c]
            ys.append(y)
        return ys, D


def rank(rows) -> int:
    """Exact rank of a matrix given as a list of int or Fraction rows."""
    if not rows:
        return 0
    ech = Echelon(len(rows[0]))
    for row in rows:
        ech.add(over_common_denominator(row)[0])
    return ech.rank


def solve(rows, rhs) -> list[Fraction]:
    """Unique exact solution of rows * x = rhs, int or Fraction entries.

    The system may be overdetermined; every extra equation must be
    consistent with the unique solution or InconsistentSystem is raised.
    Raises UnderdeterminedSystem when column rank < number of unknowns.
    """
    if not rows:
        raise UnderdeterminedSystem("no equations")
    ech = Echelon(len(rows[0]))
    for row, b in zip(rows, rhs):
        *scaled, b = over_common_denominator([*row, b])[0]
        ech.add(scaled, b)
    (y,), D = ech.solution()
    return [Fraction(v, D) for v in y]
