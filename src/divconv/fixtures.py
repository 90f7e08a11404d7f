"""Embedded fixture bases: the published eta-exponent tables.

BASIS_TABLES holds the published eta-exponent tables for the supported
levels, verbatim, and the library loads them as fixture bases
(spaces.load_fixture_basis).  Some published rows are provably not cusp
forms; they are kept verbatim, and published.NONCUSPIDAL_ROWS flags them.
The level-11 entry carries the published weight-2 auxiliary generator
eta(z)^2 eta(11z)^2 as a declared fixture (DECLARED_WEIGHT2).

The printed closed-form values that verify-paper compares against are in
published.py, which only verify and the tests import.
"""

from __future__ import annotations

# --- eta exponent tables (divisor -> exponent), row order as published ---

_TABLE_33 = [
    {3: 8},
    {1: 4, 11: 4},
    {1: 3, 3: 1, 11: 3, 33: 1},
    {1: 2, 3: 2, 11: 2, 33: 2},
    {1: 1, 3: 3, 11: 1, 33: 3},
    {3: 4, 33: 4},
    {1: -1, 3: 5, 11: -1, 33: 5},
    {1: -2, 3: 6, 11: -2, 33: 6},
    {1: 6, 33: 2},
    {1: 4, 3: -2, 11: -2, 33: 8},
]

_TABLE_40 = [
    {1: 4, 5: 4},
    {2: 4, 10: 4},
    {1: 2, 5: -2, 10: 8},
    {4: 4, 20: 4},
    {10: 4, 20: 4},
    {2: 2, 10: -2, 20: 8},
    {1: 2, 2: -2, 5: -2, 10: 2, 20: 8},
    {8: 4, 40: 4},
    {8: 2, 10: 4, 20: -4, 40: 6},
    {1: 2, 2: -2, 4: 2, 5: 2, 8: -2, 40: 6},
    {1: 1, 5: -1, 8: 1, 10: 2, 20: -2, 40: 7},
    {4: 2, 20: -2, 40: 8},
    {2: 4, 8: -2, 20: -4, 40: 10},
    {2: 2, 4: -2, 10: -2, 20: 2, 40: 8},
]

_TABLE_56 = [
    {1: 5, 2: -1, 7: 5, 14: -1},
    {1: 2, 2: 2, 7: 2, 14: 2},
    {1: 6, 2: -2, 7: -2, 14: 6},
    {2: 2, 4: 2, 14: 2, 28: 2},
    {4: 2, 14: 4, 28: 2},
    {2: 6, 4: -2, 14: -2, 28: 6},
    {2: 4, 4: -2, 28: 6},
    {1: 1, 2: 1, 7: 1, 14: -3, 28: 8},
    {2: 1, 4: 1, 14: -3, 28: 9},
    {8: 2, 28: 4, 56: 2},
    {2: -2, 4: 8, 8: -2, 14: 2, 28: -4, 56: 6},
    {4: 6, 8: -2, 28: -2, 56: 6},
    {4: 3, 8: -1, 14: 4, 28: -5, 56: 7},
    {4: 4, 8: -2, 56: 6},
    {2: 2, 4: 2, 8: -2, 14: -2, 28: 2, 56: 6},
    {2: 1, 4: 1, 14: 1, 28: -3, 56: 8},
    {2: 3, 4: -1, 14: -1, 28: -1, 56: 8},
    {4: 1, 8: 1, 28: -3, 56: 9},
    {2: 1, 8: -1, 14: -3, 28: 4, 56: 7},
    {1: -2, 2: 5, 4: -3, 7: 2, 14: -5, 28: 7, 56: 4},
]

_LIST_24 = [
    {1: 2, 2: 2, 3: 2, 6: 2},
    {2: 2, 4: 2, 6: 2, 12: 2},
    {2: 4, 4: -2, 12: 6},
    {4: 2, 8: 2, 12: 2, 24: 2},
    {2: 2, 4: -2, 6: -2, 8: 2, 12: 6, 24: 2},
    {4: 4, 8: -2, 24: 6},
    {2: 2, 6: -2, 8: -2, 12: 4, 24: 6},
    {1: -1, 2: -1, 3: 3, 4: 3, 6: -1, 8: -3, 12: -1, 24: 9},
]

_LIST_15 = [
    {1: 4, 5: 4},
    {1: 2, 3: 2, 5: 2, 15: 2},
    {3: 4, 15: 4},
    {1: 3, 3: 1, 5: -3, 15: 7},
]

# level 10 reuses the first three level-40 rows (they are level-10 quotients)
_LIST_10 = [
    {1: 4, 5: 4},
    {2: 4, 10: 4},
    {1: 2, 5: -2, 10: 8},
]

# level 12 reuses the first three level-24 quotients
_LIST_12 = _LIST_24[:3]

# level 11: the published pairing of a weight-2 auxiliary with the unique
# weight-4 quotient; the weight-2 row is flagged declared_weight2
_LIST_11 = [
    {1: 2, 11: 2},
    {1: 4, 11: 4},
]

BASIS_TABLES: dict[int, list[dict[int, int]]] = {
    10: _LIST_10,
    11: _LIST_11,
    12: _LIST_12,
    15: _LIST_15,
    24: _LIST_24,
    33: _TABLE_33,
    40: _TABLE_40,
    56: _TABLE_56,
}
FIXTURE_LEVELS = tuple(sorted(BASIS_TABLES))

# generator index (1-based) of rows that are declared weight-2 auxiliaries
DECLARED_WEIGHT2: dict[int, tuple[int, ...]] = {11: (1,)}
