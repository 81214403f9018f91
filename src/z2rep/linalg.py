"""Exact linear algebra over the rationals.

Matrices are dense lists of lists at desk scale (up to a few hundred
entries), except for `sparse_rank`, whose rows map a column to its nonzero
entry.  Elimination is fraction-free (Bareiss 1968): rows are rescaled to
integers once, every cross-multiplied row is divided by the gcd of its
entries, and `echelon` picks the pivot of smallest absolute value, which keeps
intermediate integers small.  `echelon_to_rref` back-substitutes in integers
too and builds one Fraction per entry at the end.  No floating point anywhere.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm


def _int_row(row) -> tuple[list[int], int]:
    """The row times the lcm of its denominators, and that lcm.

    A row of ints passes through as it is, without building a Fraction.
    """
    if all(type(x) is int for x in row):
        return row, 1
    row = [Fraction(x) for x in row]
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row], den


def _int_rows(rows) -> list[list[int]]:
    """Integer rows with the same row space as the given rational rows."""
    return [_int_row(row)[0] for row in rows]


Piece = tuple[list[list[int]], list[int]]  # integer echelon rows, pivot columns


def echelon(rows_int: list[list[int]]) -> Piece:
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


def echelon_to_rref(ech: list[list[int]], pivots: list[int]) -> list[list[Fraction]]:
    """The reduced row echelon form of the span of integer echelon rows.

    Back-substitution cross-multiplies integer rows, each kept primitive, and
    divides each row by its pivot only at the end.
    """
    out = [list(r) for r in ech]
    for i in range(len(pivots) - 1, -1, -1):
        pc = pivots[i]
        row = out[i]
        piv = row[pc]
        for j in range(i):
            f = out[j][pc]
            if f:
                g = gcd(piv, f)
                a, b = piv // g, f // g
                out[j] = _primitive([a * x - b * y for x, y in zip(out[j], row)])
    return [[Fraction(x, row[pc]) for x in row] for row, pc in zip(out, pivots)]


def sparse_rank(rows: list[dict[int, int]],
                ready: list[tuple[Sequence[int], Piece]] = ()) -> int:
    """Rank of sparse integer rows stacked on integer echelon pieces.

    Each row maps a column to its nonzero entry.  `ready` holds pieces of
    integer echelon rows, each with the increasing list of the columns its
    entries lie on; together their rows must be independent with distinct
    pivot columns, as pieces on disjoint columns are.  A table keyed on each
    row's leading column starts with the ready rows at their pivot columns,
    each made sparse only when a row reaches its pivot.  Each row, sparsest
    first, is reduced against the table until it is zero or its leading
    column is new, and every remainder is kept primitive.  The rank is the
    size of the table.
    """
    table: dict[int, dict[int, int] | tuple[Sequence[int], list[int]]] = {}
    for columns, (ech, pivots) in ready:
        for row, pc in zip(ech, pivots):
            table[columns[pc]] = (columns, row)
    for row in sorted(rows, key=len):
        while row:
            lead = min(row)
            piv = table.get(lead)
            if piv is None:
                table[lead] = row
                break
            if type(piv) is tuple:
                columns, dense = piv
                piv = table[lead] = {c: x for c, x in zip(columns, dense) if x}
            g = gcd(piv[lead], row[lead])
            a, b = piv[lead] // g, row[lead] // g
            out = {c: a * x for c, x in row.items()}
            for c, x in piv.items():
                out[c] = out.get(c, 0) - b * x
            out = {c: x for c, x in out.items() if x}
            g = gcd(*out.values())
            row = {c: x // g for c, x in out.items()} if g > 1 else out
    return len(table)


def reduce_mod_span(rr_rows: list[list[Fraction]], pivots: list[int], vec) -> list[Fraction]:
    """Remainder of vec after eliminating with an RREF basis of a subspace."""
    v = [Fraction(x) for x in vec]
    for i, pc in enumerate(pivots):
        f = v[pc]
        if f:
            v = [a - f * b for a, b in zip(v, rr_rows[i])]
    return v


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


def poly_eval(coeffs, x: Fraction) -> Fraction:
    """The polynomial at x, by Horner's rule; an integer polynomial at an
    integer point stays in ints."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


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


def _primitive(p: list[int]) -> list[int]:
    """The integer row or polynomial divided by the gcd of its entries."""
    g = gcd(*p)
    return [x // g for x in p] if g > 1 else p


def _neg_prem(a: list[int], b: list[int]) -> list[int]:
    """A positive multiple of -(a mod b), primitive; [] when b divides a.

    Each step scales by |lc(b)| only, so every sign is that of the true
    remainder, as a Sturm sequence needs.
    """
    r = list(a)
    lb, db = b[-1], len(b) - 1
    scale, sign = abs(lb), (1 if lb > 0 else -1)
    while len(r) > db:
        f, shift = sign * r[-1], len(r) - 1 - db
        r = [scale * x for x in r]
        for i, y in enumerate(b):
            r[shift + i] -= f * y
        while r and r[-1] == 0:
            r.pop()
    return _primitive([-x for x in r])


def _derivative(p: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(p)][1:]


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer polynomials that b divides, b primitive."""
    r = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = r[k + len(b) - 1] // b[-1]
        for i, y in enumerate(b):
            r[k + i] -= q[k] * y
    return q


def rational_roots(coeffs) -> list[Fraction]:
    """All rational roots of the polynomial, ascending (multiplicity collapsed).

    The cost grows with the bit size of the coefficients.  The square-free
    part h = p / gcd(p, p') of the integer polynomial, with leading
    coefficient a, becomes the monic integer polynomial q(y) = a^(d-1) h(y/a),
    whose rational roots are integers.  A Sturm sequence isolates the real
    roots of q, bisecting on integers down to width 1, and the right end y of
    each such interval is a root only if p(y/a) is exactly 0.
    """
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise ValueError("zero polynomial has every root")
    roots: set[Fraction] = set()
    while cs[0] == 0:
        cs.pop(0)
        roots.add(Fraction(0))
    if len(cs) == 1:
        return sorted(roots)
    p = _primitive(_int_row(cs)[0])
    g, rem = p, _derivative(p)
    while rem:  # Euclid's algorithm: g ends as gcd(p, p')
        g, rem = rem, _neg_prem(g, rem)
    h = _exact_quotient(p, _primitive(g)) if len(g) > 1 else p
    if h[-1] < 0:
        h = [-x for x in h]
    a, d = h[-1], len(h) - 1
    q = [c * a ** (d - 1 - i) for i, c in enumerate(h[:-1])] + [1]
    chain = [q, _derivative(q)]
    while len(chain[-1]) > 1:
        chain.append(_neg_prem(chain[-2], chain[-1]))

    def sign_changes(x: int) -> int:
        signs = [v > 0 for v in (poly_eval(s, x) for s in chain) if v]
        return sum(u != v for u, v in zip(signs, signs[1:]))

    # Fujiwara: every root y of q has |y| <= 2 max_i |q_(d-i)|^(1/i)
    bound = 2 << max((abs(c).bit_length() + d - i - 1) // (d - i)
                     for i, c in enumerate(q[:-1]))
    # V(lo) - V(hi) counts the distinct real roots in (lo, hi]
    todo = [(-bound - 1, sign_changes(-bound - 1), bound, sign_changes(bound))]
    while todo:
        lo, v_lo, hi, v_hi = todo.pop()
        if v_lo == v_hi:
            continue
        if hi - lo == 1:
            cand = Fraction(hi, a)
            if poly_eval(cs, cand) == 0:
                roots.add(cand)
            continue
        mid = (lo + hi) // 2
        v_mid = sign_changes(mid)
        todo += [(lo, v_lo, mid, v_mid), (mid, v_mid, hi, v_hi)]
    return sorted(roots)
