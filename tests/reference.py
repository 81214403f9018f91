"""Oracles the tests compare the engine against: exact linear algebra over
the rationals, seeded sampling, and words of generators on Verma vectors.

No command of the engine runs any of these; they check it.  `ket_action`
is the generator action in the form the engine first had: the four odd
formulas on single kets (`odd_image`), each even generator composed from
them ket by ket through its bracket; the engine's one action table,
`verma._action_table`, writes the same formulas on columns and composes the
even generators a level at a time.  The linear
algebra is built on `echelon`, a dense fraction-free elimination with its
own pivot choice, apart from the engine's one reduction loop,
`linalg.sparse_echelon`; `det` and `char_poly` are independent of both.
`nullspace` is a dense kernel, read off the echelon form of the matrix with
its columns reversed; the engine reads its one kernel, that of the lowering
pair, off `linalg.sparse_echelon` instead, and the tests' Fraction quotient
check and the paper's recurrence systems use this one.  W is stored one
piece per level, sparse rows on the columns of that level keyed on their
leading columns: `sector_pieces` splits a level's piece into its Z2xZ2
sectors, on the columns of each sector's kets, and `dense_piece` reads a
piece as the dense rows and pivot columns these oracles take.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from z2rep.graded_algebra import DEGREE, Degree, Element
from z2rep.linalg import Piece, _int_row, _primitive, echelon_to_rref
from z2rep.singular_solver import sectors_for_level
from z2rep.graded_algebra import SIGN, STRUCTURE_TABLE
from z2rep.verma import (ConsistencyError, Ket, VermaModule, Vector, _sector_kets, act,
                         enumerate_level)

DensePiece = tuple[list[list[int]], list[int]]  # integer echelon rows, pivot columns


def _int_rows(rows) -> list[list[int]]:
    """Integer rows with the same row space as the given rational rows."""
    return [_int_row(row)[0] for row in rows]


def dense_piece(piece: Piece, width: int) -> DensePiece:
    """The rows of a sparse echelon piece as dense rows of `width` entries,
    with their pivot columns, in increasing order of pivot."""
    pivots = sorted(piece)
    return [[piece[pc].get(j, 0) for j in range(width)] for pc in pivots], pivots


def sector_pieces(module: VermaModule, n: int, piece: Piece) -> dict[Degree, Piece]:
    """A piece on the columns of level n, split by Z2xZ2 sector, each row
    moved onto the columns of _sector_kets(module.kind, n, sector) for the
    sector it lies in.

    Every sector of the level gets a piece, perhaps empty.  Asserts that
    each row lies in one sector and that the split holds every row.
    """
    column = {ket: j for j, ket in enumerate(enumerate_level(module, n))}
    out = {}
    for sector in sectors_for_level(n):
        place = {column[ket]: t for t, ket in enumerate(_sector_kets(module.kind, n, sector))}
        out[sector] = {place[lead]: {place[j]: x for j, x in row.items()}
                       for lead, row in piece.items() if lead in place}
    assert sum(map(len, out.values())) == len(piece), f"level {n}: a row of W is in no sector"
    return out


def echelon(rows_int: list[list[int]]) -> DensePiece:
    """Integer row echelon form; returns (nonzero rows, pivot columns).

    Pivot choice: smallest nonzero |entry| in the column, first row on ties.
    """
    rows = [list(r) for r in rows_int]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    pr = 0
    for pc in range(ncols):
        best = -1
        for i in range(pr, nrows):
            v = rows[i][pc]
            if v != 0 and (best < 0 or abs(v) < abs(rows[best][pc])):
                best = i
        if best < 0:
            continue
        rows[pr], rows[best] = rows[best], rows[pr]
        piv = rows[pr][pc]
        for i in range(pr + 1, nrows):
            v = rows[i][pc]
            if v == 0:
                continue
            rows[i] = _primitive([piv * a - v * b for a, b in zip(rows[i], rows[pr])])
        pivots.append(pc)
        pr += 1
        if pr == nrows:
            break
    return rows[:pr], pivots


def rank(rows) -> int:
    return len(echelon(_int_rows(rows))[1])


def rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form (leading ones, zeros above pivots)."""
    ech, pivots = echelon(_int_rows(rows))
    return echelon_to_rref(ech, pivots), pivots


def nullspace(rows, ncols: int) -> list[list[Fraction]]:
    """RREF basis of the right kernel of the matrix.

    The integer rows are eliminated with their columns reversed, so each
    pivot lies as far right as it can.  The vector read off a free column f
    is then 1 on f, 0 on every other free column and on every column left of
    f: the basis is already its own reduced row echelon form.
    """
    ech, pivots = echelon([row[::-1] for row in _int_rows(rows)])
    rr = echelon_to_rref(ech, pivots)
    pivset = {ncols - 1 - c: i for i, c in enumerate(pivots)}
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for c, i in pivset.items():
            v[c] = -rr[i][ncols - 1 - f]
        basis.append(v)
    return basis


def reduce_mod_span(rr_rows: list[list[Fraction]], pivots: list[int], vec) -> list[Fraction]:
    """Remainder of vec after eliminating with an RREF basis of a subspace."""
    v = [Fraction(x) for x in vec]
    for i, pc in enumerate(pivots):
        f = v[pc]
        if f:
            v = [a - f * b for a, b in zip(v, rr_rows[i])]
    return v


def solve_unique(a_rows, b) -> list[Fraction]:
    """Solve A x = b exactly; raises ValueError unless the solution is unique."""
    ncols = len(a_rows[0])
    rr, pivots = rref([[*row, bi] for row, bi in zip(a_rows, b)])
    if ncols in pivots:
        raise ValueError("inconsistent linear system")
    if len(pivots) < ncols:
        raise ValueError("solution not unique")
    x = [Fraction(0)] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = rr[i][ncols]
    return x


def _det_int(m: list[list[int]]) -> int:
    """Bareiss fraction-free determinant of an integer matrix."""
    n = len(m)
    if n == 0:
        return 1
    m = [list(r) for r in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def det(a_rows) -> Fraction:
    scale = 1
    ints = []
    for row in a_rows:
        int_row, den = _int_row(row)
        ints.append(int_row)
        scale *= den
    return Fraction(_det_int(ints), scale)


def poly_mul(p, q) -> list[Fraction]:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def char_poly(a_rows) -> list[Fraction]:
    """Coefficients of det(x*I - A), ascending degree, computed exactly.

    Uses determinant interpolation at n+1 integer points.
    """
    n = len(a_rows)
    if n == 0:
        return [Fraction(1)]
    xs = [Fraction(i) for i in range(n + 1)]
    ys = []
    for x in xs:
        m = [[(x if i == j else Fraction(0)) - Fraction(a_rows[i][j])
              for j in range(n)] for i in range(n)]
        ys.append(det(m))
    coeffs = [Fraction(0)] * (n + 1)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            basis = poly_mul(basis, [-xj, Fraction(1)])
            denom *= xi - xj
        w = yi / denom
        for p, c in enumerate(basis):
            coeffs[p] += w * c
    return coeffs


def sample_rationals(count: int, seed: int, lo: int = -50, hi: int = 50,
                     predicate=None) -> list[Fraction]:
    """Reproducible nonzero rationals, numerator in [lo, hi], denominator in [1, hi].

    An optional predicate filters the stream (rejection sampling), so the
    result is still fully determined by the seed.
    """
    rng = random.Random(seed)
    out: list[Fraction] = []
    while len(out) < count:
        num = rng.randint(lo, hi)
        den = rng.randint(1, hi)
        if num == 0:
            continue
        x = Fraction(num, den)
        if predicate is None or predicate(x):
            out.append(x)
    return out


def homogeneous_degree(elem: Element) -> Degree | None:
    """The common degree of all terms of an algebra element, or None if
    mixed or zero."""
    degs = {DEGREE[g] for g in elem.terms}
    return degs.pop() if len(degs) == 1 else None


def zero_vector(module: VermaModule) -> Vector:
    return Vector(module, {})


def act_word(word: tuple[str, ...], vec: Vector) -> Vector:
    """Apply a product of generators, rightmost factor first."""
    for gen in reversed(word):
        vec = act(gen, vec)
    return vec


def odd_image(kind: str, gen: str, ket: Ket) -> dict[Ket, tuple[int, int, int]]:
    """One odd generator on one basis ket, by its explicit formula: each
    target ket mapped to its doubled coefficient (c1, cr, cl), that is
    (c1 + cr*r + cl*lambda) / 2."""
    a, k, m, b = ket
    kb = k % 2
    sgn = -1 if kb else 1  # (-1)^k
    mrl = kind == "MrLambda"
    out: dict[Ket, tuple[int, int, int]] = {}

    def put(a2, k2, m2, b2, c1, cr=0, cl=0):
        # the target kets of one image are distinct
        if (c1 or cr or cl) and k2 >= 0 and m2 >= 0:
            out[Ket(a2, k2, m2, b2)] = (2 * c1, 2 * cr, 2 * cl)

    def put_lam(a2, k2, m2, b2, c):
        # c * lambda**b
        put(a2, k2, m2, b2, 0 if b else c, 0, c if b else 0)

    if gen == "atp":
        put(1 - a, k + 2 * a, m, b, -1 if a else 1)
    elif gen == "ap":
        put(a, k + 1, m, b, 1)
        if a == 1:
            put(0, k, m + 1, b, -sgn * 4)
    elif gen == "atm":
        if a == 0:
            put(1, k - 2, m, b, -(k - kb))
            put(0, k + 1, m - 1, b, sgn * m)
            if mrl:
                put_lam(0, k - 1, m, 1 - b, -2 * kb)
        else:
            put(0, k, m, b, k + kb + 4 * m, 2)
            put(1, k + 1, m - 1, b, -sgn * m)
            if mrl:
                put_lam(1, k - 1, m, 1 - b, 2 * kb)
    elif gen == "am":
        if a == 0:
            put(0, k - 1, m, b, k - kb, 2 * kb)
            put(1, k, m - 1, b, -sgn * m)
        else:
            put(1, k - 1, m, b, k - 3 * kb, 2 * kb)
            put(0, k + 2, m - 1, b, -sgn * m)
            put(0, k - 2, m + 1, b, -sgn * 4 * (k - kb))
            if mrl:
                put_lam(0, k, m, 1 - b, -sgn * 2)
    else:
        raise ValueError(f"unknown generator {gen!r}")
    return out


# each even generator X as its bracket [[g1, g2]] = c X of two odd ones
_EVEN = {"R": ("ap", "am"), "Rt": ("ap", "atm"), "Lp": ("atp", "atp"),
         "Lm": ("am", "am"), "Ltp": ("ap", "atp"), "Ltm": ("am", "atm")}


@lru_cache(maxsize=None)
def ket_action(kind: str, gen: str, ket: Ket) -> dict[Ket, tuple[int, int, int]]:
    """Image of one basis ket under one generator, for every r and lambda,
    each target mapped to its doubled coefficient (c1, cr, cl) as in
    `odd_image`.  An even X = (g1 g2 - s g2 g1) / c is composed ket by ket
    from the odd images; its r**2, r*lambda and lambda**2 parts must cancel,
    leaving halves, else ConsistencyError.  Callers must not update the
    cached dicts."""
    if gen not in _EVEN:
        return odd_image(kind, gen, ket)
    g1, g2 = _EVEN[gen]
    c = int(STRUCTURE_TABLE[(g1, g2)].terms[gen])
    # the parts in 1, r, lambda, r**2, r*lambda and lambda**2 of the doubled
    # products, which are four times the products
    sums: dict[Ket, list[int]] = {}
    for first, then, sign in ((g2, g1, 1), (g1, g2, -SIGN[g1, g2])):
        for mid, (p1, pr, pl) in ket_action(kind, first, ket).items():
            for fin, (q1, qr, ql) in ket_action(kind, then, mid).items():
                acc = sums.setdefault(fin, [0] * 6)
                for i, x in enumerate((p1 * q1, p1 * qr + pr * q1, p1 * ql + pl * q1,
                                       pr * qr, pr * ql + pl * qr, pl * ql)):
                    acc[i] += sign * x
    out = {}
    for fin, acc in sums.items():
        (c1, e1), (cr, er), (cl, el) = (divmod(x, 2 * c) for x in acc[:3])
        if e1 or er or el or any(acc[3:]):
            raise ConsistencyError(f"{gen} on {kind} {ket} is not integer halves: {acc}")
        if c1 or cr or cl:
            out[fin] = (c1, cr, cl)
    return out
