"""The two cusp-form searches behind `eta.search_cusp_forms`, which imports
this module on its first call, so a process that runs no search never
compiles it.  Each returns exponent vectors over ascending divisors;
(i)-(iv) are the membership conditions of `eta`.

Both searches work with the integer cusp sums S_d = sum_delta A[d][delta] *
r_delta, A[d][delta] = gcd(d, delta)^2 * N/delta, so S_d > 0 is the cusp
condition at d and S_N = 24*N*(order at infinity), and with the valence
identity, taken times N so that every weight is an integer (g_d * d | N),

    sum_{d | N} N*phi(g_d)/(g_d * d) * S_d = k2 * N * mu(N),   g_d = gcd(d, N/d),

k2 = sum r_delta, which bounds every S_d above once all are positive.

The search under the published criterion assigns exponents depth-first,
from delta = N down, and keeps each S_d in one window floor_d <= S_d <=
cap_d.  The floor is 1, or 24*N at d = N (order at infinity >= 1); the cap
is what the valence identity leaves with every other S_d at its floor, and
at d = N at most 24*N*max_order.  At each depth a branch is pruned unless
every S_d can still reach its window: the exact minimum and maximum of what
the remaining exponents add to S_d, given their sum, come from a greedy
assignment.  The last three exponents, at the three smallest divisors (all
but the first if N has fewer), are not searched but looked up: a table built
before the walk holds every such tail with |r| <= bound, keyed by (sum r,
sum delta*r mod 24, the parity mask of sum v_p(delta)*r_delta over the
primes p | N).  A prefix admits only the tails whose key completes
sum r = k2, (i) and (ii), and of those exactly the ones that put every S_d
in its window; each is a cusp quotient of order at infinity <= max_order.
The window tests see every cusp at once: the vector (S_d) travels as one
integer, pack(v) = sum_d v_d * 2^(W*d) with W-bit slots (the Kronecker
substitution of `qseries`), and with G the integer that has the top bit of
every slot set, each slot of pack(v) + G keeps its top bit iff v_d >= 0,
as long as every |v_d| < 2^(W-1).  So a branch or a tail passes when
(pack(S - floor) + G) & (pack(cap - S) + G) & G == G, one add, one subtract
and one mask (the guard-bit test of SIMD within a register, Lamport,
CACM 18(8), 1975).  Every depth of the DFS reads its children from one
table, filled on first visit, indexed by depth and the prefix's exponent sum,
each entry with its window bounds folded into its step.  Whether a child
has any tails depends only on the prefix's key (sum r, sum delta*r mod 24,
parity mask), so a second table, filled the first time the walk meets a
key, keeps for it only the children whose tail bucket is non-empty, and a
child without tails is never tested.  Each kept child is a scan entry with
its bucket attached: one window test, then the tails one at a time.  Both
tables are local to one search.  Bounds above SEARCH_BOUND_CEILING raise
SearchCeilingError at once.

The strict search runs in cusp-order space instead (Ligozat's criterion
read as in Kilford (2007), "Generating spaces of modular forms with
eta-quotients", and Rouse & Webb (2015), "On spaces of modular forms spanned
by eta-quotients").  With (ii), even weight and both congruences a quotient
lies in S_k for the trivial character, so its order v_d at each cusp 1/d
is a positive integer, S_d = 24 * g_d * d * v_d, and the valence identity
reads sum phi(g_d) * v_d = k2 * mu / 24.  The search enumerates those
weighted compositions, maps each v back to r = A^-1 * S and keeps it when r
is integral, |r_delta| <= bound, v_N <= max_order and (ii) holds; (i) and
the companion congruence are v_N and v_1 being integers.  It works with
D * r = (D * A^-1) * S: A^-1 comes as integer numerators over one pivot den,
and D is |den| over its gcd with every numerator.  There are at most
C(k2*mu/24 - 1, #divisors - 1) compositions; above
STRICT_COMPOSITION_CEILING the search raises SearchCeilingError at once.
"""

from __future__ import annotations

from functools import reduce
from math import comb, gcd, lcm

from .arith import divisors, euler_phi, factorize, index_mu, prime_factors
from .eta import SEARCH_BOUND_CEILING, STRICT_COMPOSITION_CEILING, SearchCeilingError, is_square_product
from .linalg import Echelon


# --- exhaustive search -----------------------------------------------------


def _window_extremes(asc: list[int], B: int) -> dict[int, tuple[int, int]]:
    """t -> (min, max) of sum w_j r_j over |r_j| <= B with sum r_j = t, for
    each feasible t, by running sums: every r_j starts at -B, and each unit
    of t + m*B goes to the smallest weight (min) or the largest (max) still
    below B.  asc holds the m weights in ascending order or, packing being
    linear, packed columns, column k packing every slot's k-th smallest.
    """
    m, run = len(asc), 2 * B
    lo = hi = -B * sum(asc)
    out = {-m * B: (lo, hi)}
    for k in range(m * run):
        lo += asc[k // run]
        hi += asc[m - 1 - k // run]
        out[k + 1 - m * B] = (lo, hi)
    return out


def _windows(N: int, k2: int, max_order: int) -> tuple[list[int], list[int]]:
    """(floors, caps) of the cusp sums S_d over ascending d | N; see the module docstring."""
    divs = divisors(N)
    coefs = [N * euler_phi(gcd(c, N // c)) // (gcd(c, N // c) * c) for c in divs]
    floors = [1] * (len(divs) - 1) + [24 * N]
    slack = k2 * index_mu(N) * N - sum(c * f for c, f in zip(coefs, floors))
    caps = [f + slack // c for c, f in zip(coefs, floors)]
    caps[-1] = min(caps[-1], 24 * N * max_order)
    return floors, caps


def _search_range(N: int, k2: int, B: int, max_order: int) -> list[tuple[int, ...]]:
    """Exponent vectors of the cusp quotients, over ascending divisors and
    in no particular order; see the module docstring.

    The DFS assigns the first max(#divisors - 3, 1) exponents; the rest
    come from `tails`, which maps each key (sum r, sum delta*r mod 24,
    parity mask) to the tails with |r| <= B that have it, each with the
    packed sums `add` it adds and its exponents over ascending divisors.
    At every depth i, `rows[i][sr]` holds the children of a prefix whose
    exponents sum to sr, each with the window bounds (lo, hi) of its later
    exponents folded into its step, so a child of a prefix with packed sums
    P passes iff (P + step + lo) & (hi - step - P) & G == G.  With
    Q = P + step, a tail passes iff (add + xl) & (xh - add) & G == G,
    xl = Q - pack(floors) + G and xh = pack(caps) - Q + G.  At the last
    prefix level, `kept`, filled on the first visit to each prefix key
    (sr, sd mod 24, parity mask), holds the children of its rows[sr] whose
    tail bucket is non-empty, in order, each with its bucket, so only those
    are tested.  A hit is the tail's exponents followed by the child's
    r and the prefix reversed, so every hit is already a vector over
    ascending divisors.
    """
    if B > SEARCH_BOUND_CEILING:
        raise SearchCeilingError(
            f"search at level {N}, bound {B}: the bound exceeds the ceiling "
            f"of {SEARCH_BOUND_CEILING}"
        )
    divs = divisors(N)
    nd = len(divs)
    proc = divs[::-1]  # exponents are assigned from delta = N down to delta = 1
    head = max(nd - 3, 1)  # exponents the DFS assigns; the table holds the rest
    w = [[gcd(c, d) ** 2 * (N // d) for d in proc] for c in divs]
    floors, caps = _windows(N, k2, max_order)
    # Slot bound: every tested slot value is S_d + add_d - floor_d or
    # cap_d - S_d - add_d, or the same with the extreme of the later
    # exponents in place of add_d.  All exponents together move S_d by at
    # most B * sum_j w[d][j] and every floor is at most 24N, so each value
    # is at most M = max|cap| + 24N + B * max_d sum_j w[d][j] in absolute
    # value, and W-bit slots hold every value in [-2^(W-1), 2^(W-1)).
    M = max(map(abs, caps)) + 24 * N + B * max(map(sum, w))
    W = M.bit_length() + 1
    assert M < 1 << (W - 1), "cusp-sum slot too narrow"

    def pack(v):
        return sum(x << (W * d) for d, x in enumerate(v))

    # X + G has the top bit of every slot set iff every slot of X is >= 0
    G = pack([1 << (W - 1)] * nd)
    # packing is linear: col[j] packs what r = 1 at proc[j] adds to every S_d
    col = [pack([w[ci][j] for ci in range(nd)]) for j in range(nd)]
    # masks[j]: the primes p | N with v_p(proc[j]) odd, one bit each; an odd
    # r at proc[j] flips them in the parity of prod delta^r
    bit = {p: 1 << b for b, p in enumerate(prime_factors(N))}
    masks = [sum(bit[p] for p, k in factorize(d) if k % 2) for d in proc]
    # the tails grow one exponent at a time, from delta = 1 up, each entry
    # (sum r, sum delta*r mod 24, parity mask, packed sums, exponents); every
    # step is a generator, so only the finished table is ever held whole
    def grow(prev, j):
        opts = [(r, proc[j] * r, masks[j] if r & 1 else 0, r * col[j]) for r in range(-B, B + 1)]
        return (
            (sr + r, (sd + dr) % 24, pm ^ m, add + step, rs + (r,))
            for sr, sd, pm, add, rs in prev
            for r, dr, m, step in opts
        )

    tails: dict[tuple[int, int, int], list] = {}
    for sr, sd, pm, add, rs in reduce(grow, range(nd - 1, head - 1, -1), [(0, 0, 0, 0, ())]):
        tails.setdefault((sr, sd, pm), []).append((add, rs))
    low, high = G - pack(floors), G + pack(caps)
    # bounds[i][t]: the window test of a child at depth i whose later
    # exponents i+1.. sum to t, each slot's later weights sorted once
    bounds = []
    for i in range(head):
        ext = _window_extremes([pack(ws) for ws in zip(*(sorted(row[i + 1 :]) for row in w))], B)
        bounds.append({t: (low + hi, high - lo) for t, (lo, hi) in ext.items()})
    # kids[i]: each r at depth i with what it adds to the packed sums, to
    # sum delta*r and to the parity mask
    kids = [
        [(r, r * col[i], proc[i] * r, masks[i] if r & 1 else 0) for r in range(-B, B + 1)]
        for i in range(head)
    ]
    # rows[i][sr], filled on first visit: the children at depth i of a
    # prefix whose exponents sum to sr, with the window test of each folded
    # into its step: (r, t, step, step + lo_t, hi_t - step, delta*r, flip)
    # for the r whose later sum t = k2 - sr - r has window bounds.  Each r
    # pairs with at most 2B * min(i, nd - i - 1) + 1 sums sr: those that i
    # exponents reach and that leave t within reach of the later ones.
    rows = [{} for _ in range(head)]

    def children(i, sr):
        if (got := rows[i].get(sr)) is None:
            bnds = bounds[i]
            got = rows[i][sr] = [
                (r, t, step, step + bnds[t][0], bnds[t][1] - step, dr, flip)
                for r, step, dr, flip in kids[i]
                if (t := k2 - sr - r) in bnds
            ]
        return got

    # kept[(sr, sd % 24, pm)]: one entry (r, step, step + lo_t, hi_t - step,
    # bucket) for each child of the last prefix level's rows[sr] whose tail
    # bucket is non-empty for a prefix with that key, in order; filled on
    # first visit.  sr is within 4B of k2, so at most (8B + 1) * 24 *
    # 2^omega(N) keys, each with at most 2B + 1 entries.
    kept = {}
    out = []
    last = head - 1  # the last prefix level, whose children have tails
    path = [0] * last

    def fill(sr, sd, pm):
        return [
            (r, step, lo, hi, bucket)
            for r, t, step, lo, hi, dr, flip in children(last, sr)
            if (bucket := tails.get((t, -(sd + dr) % 24, pm ^ flip)))
        ]

    def dfs(i, P, sr, sd, pm):
        # P packs the cusp sums, sd = sum delta*r, over the exponents so far
        if i < last:
            for r, t, step, lo, hi, dr, flip in children(i, sr):
                if (P + lo) & (hi - P) & G == G:
                    path[i] = r
                    dfs(i + 1, P + step, sr + r, sd + dr, pm ^ flip)
            return
        # the last prefix level: only children that have tails are tested
        key = (sr, sd % 24, pm)
        if (scan := kept.get(key)) is None:
            scan = kept[key] = fill(sr, sd, pm)
        prefix = None  # the prefix over ascending divisors, built on the first hit
        for r, step, lo, hi, bucket in scan:
            if (P + lo) & (hi - P) & G == G:
                Q = P + step
                xl, xh = Q + low, high - Q
                for add, rs in bucket:
                    if (add + xl) & (xh - add) & G == G:
                        if prefix is None:
                            prefix = tuple(path[::-1])
                        out.append(rs + (r,) + prefix)

    dfs(0, 0, 0, 0, 0)
    # dfs refers to itself, so without this the tables and the other cells it
    # closes over would stay allocated until the cyclic collector runs
    del dfs
    return out


# --- strict search in cusp-order space ---------------------------------------


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b = g = gcd(a, b)."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _column_hermite(M: list[list[int]]) -> list[list[int]]:
    """Lower-triangular H = M * U, U unimodular, by integer column operations."""
    H = [row[:] for row in M]
    n = len(H)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = H[i][i], H[i][j]
            if b:
                g, x, y = _xgcd(a, b)
                p, q = a // g, b // g
                for row in H:
                    row[i], row[j] = x * row[i] + y * row[j], p * row[j] - q * row[i]
        if H[i][i] < 0:
            for row in H:
                row[i] = -row[i]
    return H


def _scaled_inverse(A: list[list[int]]) -> tuple[list[list[int]], int]:
    """(columns of D * A^-1, D), D > 0 least with them integral.  Column j
    solves A * x = e_j over the last pivot den, the same for every j: the
    same rows go in in the same order."""
    cols = []
    for j in range(len(A)):
        ech = Echelon(len(A))
        for i, row in enumerate(A):
            ech.add(row, int(i == j))
        ys, den = ech.solution()
        cols.append(ys)
    D = abs(den) // gcd(den, *(y for col in cols for y in col))
    return [[y // (den // D) for y in col] for col in cols], D


def _search_strict(N: int, k2: int, B: int, max_order: int) -> list[tuple[int, ...]]:
    """Exponent vectors of the strict quotients, over ascending divisors,
    from their cusp orders; see the module docstring.

    Orders are assigned depth-first.  At each depth the next order is
    confined to an interval, from the extremes each r_delta can still reach
    over the remaining simplex, and to one residue class, from the Hermite
    form H = A*U: S lies in A*Z^n, i.e. r is integral, iff S = H*c for an
    integer c, solved row by row as the orders are assigned.
    """
    mu = index_mu(N)
    if k2 * mu % 24:
        return []
    n = k2 * mu // 24
    divs = divisors(N)
    nd = len(divs)
    count = comb(n - 1, nd - 1)
    if count > STRICT_COMPOSITION_CEILING:
        raise SearchCeilingError(
            f"strict search at level {N}, weight {k2 // 2}: {count} cusp-order "
            f"compositions exceed the ceiling of {STRICT_COMPOSITION_CEILING}"
        )
    A = [[gcd(d, e) ** 2 * (N // e) for e in divs] for d in divs]
    # r = A^-1 * S = C * v / D with C = D * A^-1 * diag(s) integral
    inv_cols, D = _scaled_inverse(A)
    g = [gcd(d, N // d) for d in divs]
    s = [24 * gd * d for gd, d in zip(g, divs)]  # S_d = s_d * v_d
    cols = [[y * sd for y in col] for sd, col in zip(s, inv_cols)]
    # the cusps with the largest columns go first (then the larger d), so
    # that the columns left bound each later r_delta tightly
    order = sorted(range(nd), key=lambda j: (-max(map(abs, cols[j])), -j))
    iN = order.index(nd - 1)
    cols = [cols[j] for j in order]
    s = [s[j] for j in order]
    ph = [euler_phi(g[j]) for j in order]
    H = _column_hermite([A[j] for j in order])
    L = lcm(*ph)
    BD = B * D
    BDL = BD * L
    # at depth i, with slack = what the budget leaves above 1 per later
    # order, L * D * r_delta is at least al * x + L * (P + base) + slack * lo
    # and at most the same with (ah, hi), where lo/hi are the extreme ratios
    # C/phi over the later orders (times L, integral since phi | L)
    phi_suf = [sum(ph[i:]) for i in range(nd + 1)]
    bnd = []
    for i in range(nd - 1):
        rows = []
        for e in range(nd):
            later = [cols[j][e] * L // ph[j] for j in range(i + 1, nd)]
            lo, hi = min(later), max(later)
            base = sum(cols[j][e] for j in range(i + 1, nd))
            ce = L * cols[i][e]
            rows.append((base, lo, hi, ce - ph[i] * lo, ce - ph[i] * hi))
        bnd.append(rows)
    # s_i * v_i + rem_i == 0 (mod H_ii): v_i == (rem_i / gg) * inv (mod step)
    lattice = []
    for i in range(nd):
        gg = gcd(s[i], H[i][i])
        step = H[i][i] // gg
        lattice.append((gg, step, pow(-s[i] // gg, -1, step)))
    hcols = [[row[i] for row in H] for i in range(nd)]
    out = []

    def interval(i, R, P):
        # orders x at depth i that keep every r_delta within bounds: the
        # lower extreme must stay <= BDL and the upper >= -BDL
        slack = R - phi_suf[i + 1]
        lo_x, hi_x = 1, slack // ph[i]
        if i == iN:
            hi_x = min(hi_x, max_order)
        for p, (base, lo, hi, al, ah) in zip(P, bnd[i]):
            q = L * (p + base)
            b = BDL - q - slack * lo  # al * x <= b
            if al > 0:
                hi_x = min(hi_x, b // al)
            elif al < 0:
                lo_x = max(lo_x, -(b // -al))
            elif b < 0:
                return 1, 0
            b = BDL + q + slack * hi  # ah * x >= -b
            if ah < 0:
                hi_x = min(hi_x, b // -ah)
            elif ah > 0:
                lo_x = max(lo_x, -(b // ah))
            elif b < 0:
                return 1, 0
            if lo_x > hi_x:
                return 1, 0
        return lo_x, hi_x

    def dfs(i, R, P, rem):
        # P = D * r and rem = -sum_k H[.][k] * c_k over the orders so far
        gg, step, inv = lattice[i]
        if rem[i] % gg:
            return
        x0 = (rem[i] // gg) * inv % step
        if i == nd - 1:
            # the last order takes what is left of the budget
            x = R // ph[i]
            if R % ph[i] or x % step != x0 or (i == iN and x > max_order):
                return
            v = []
            for e in range(nd):
                t = P[e] + cols[i][e] * x
                if not -BD <= t <= BD:
                    return
                v.append(t // D)
            if is_square_product(dict(zip(divs, v))):
                out.append(tuple(v))
            return
        lo_x, hi_x = interval(i, R, P)
        col, hcol = cols[i], hcols[i]
        for x in range(lo_x + (x0 - lo_x) % step, hi_x + 1, step):
            c = (s[i] * x + rem[i]) // H[i][i]
            dfs(
                i + 1,
                R - ph[i] * x,
                [p + a * x for p, a in zip(P, col)],
                [r - h * c for r, h in zip(rem, hcol)],
            )

    dfs(0, n, [0] * nd, [0] * nd)
    del dfs  # as in _search_range: dfs refers to itself
    return out
