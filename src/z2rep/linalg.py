"""Exact linear algebra over the rationals.

Everything is dense list-of-list arithmetic at desk scale (matrices up to a
few hundred entries).  The elimination core is fraction-free: rows are
rescaled to integers once, pivots are chosen by smallest absolute value
(which keeps intermediate integers small), and cross-multiplication updates
are reduced by their gcd.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _fracs(rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def _scaled_int_rows(rows: list[list[Fraction]]) -> list[list[int]]:
    out = []
    for row in rows:
        den = 1
        for x in row:
            den = den // gcd(den, x.denominator) * x.denominator
        out.append([int(x.numerator * (den // x.denominator)) for x in row])
    return out


def echelon(rows_int: list[list[int]]) -> tuple[list[list[int]], list[int]]:
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
            new = [piv * a - v * b for a, b in zip(rows[i], rows[pr])]
            g = 0
            for a in new:
                g = gcd(g, abs(a))
            if g > 1:
                new = [a // g for a in new]
            rows[i] = new
        pivots.append(pc)
        pr += 1
        if pr == nrows:
            break
    return rows[:pr], pivots


def rank(rows) -> int:
    fr = _fracs(rows)
    if not fr:
        return 0
    return len(echelon(_scaled_int_rows(fr))[1])


def rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form (leading ones, zeros above pivots)."""
    fr = _fracs(rows)
    if not fr:
        return [], []
    ech, pivots = echelon(_scaled_int_rows(fr))
    return echelon_to_rref(ech, pivots), pivots


def echelon_to_rref(ech: list[list[int]], pivots: list[int]) -> list[list[Fraction]]:
    """The reduced row echelon form of the span of integer echelon rows."""
    out = [[Fraction(x) for x in r] for r in ech]
    for i in range(len(pivots) - 1, -1, -1):
        pc = pivots[i]
        piv = out[i][pc]
        out[i] = [x / piv for x in out[i]]
        for j in range(i):
            f = out[j][pc]
            if f:
                out[j] = [a - f * b for a, b in zip(out[j], out[i])]
    return out


def reduce_mod_echelon(ech: list[list[int]], pivots: list[int], vec: list[int]) -> list[int]:
    """A nonzero integer multiple of the remainder of vec modulo the span of
    integer echelon rows: zero on every pivot column."""
    v = list(vec)
    for row, pc in zip(ech, pivots):
        f = v[pc]
        if f:
            g = gcd(row[pc], f)
            a, b = row[pc] // g, f // g
            v = [a * x - b * y for x, y in zip(v, row)]
    return v


def reduce_mod_span(rr_rows: list[list[Fraction]], pivots: list[int], vec) -> list[Fraction]:
    """Remainder of vec after eliminating with an RREF basis of a subspace."""
    v = [Fraction(x) for x in vec]
    for i, pc in enumerate(pivots):
        f = v[pc]
        if f:
            v = [a - f * b for a, b in zip(v, rr_rows[i])]
    return v


def nullspace(rows, ncols: int) -> list[list[Fraction]]:
    """RREF-normalized basis of the right kernel of the matrix."""
    rr, pivots = rref(rows)
    pivset = {c: i for i, c in enumerate(pivots)}
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for c, i in pivset.items():
            v[c] = -rr[i][f]
        basis.append(v)
    if not basis:
        return []
    norm, _ = rref(basis)
    return norm


def solve_unique(a_rows, b) -> list[Fraction]:
    """Solve A x = b exactly; raises ValueError unless the solution is unique."""
    fr = _fracs(a_rows)
    ncols = len(fr[0])
    aug = [row + [Fraction(bi)] for row, bi in zip(fr, b)]
    rr, pivots = rref(aug)
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
    fr = _fracs(a_rows)
    if not fr:
        return Fraction(1)
    scale = Fraction(1)
    ints = []
    for row in fr:
        den = 1
        for x in row:
            den = den // gcd(den, x.denominator) * x.denominator
        scale *= den
        ints.append([int(x.numerator * (den // x.denominator)) for x in row])
    return Fraction(_det_int(ints)) / scale


def poly_mul(p, q) -> list[Fraction]:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_eval(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
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


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def rational_roots(coeffs) -> list[Fraction]:
    """All rational roots of the polynomial, ascending (multiplicity collapsed)."""
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise ValueError("zero polynomial has every root")
    roots: set[Fraction] = set()
    while cs[0] == 0:
        cs.pop(0)
        roots.add(Fraction(0))
    if len(cs) > 1:
        den = 1
        for c in cs:
            den = den // gcd(den, c.denominator) * c.denominator
        ints = [int(c * den) for c in cs]
        a0, an = abs(ints[0]), abs(ints[-1])
        for p in _divisors(a0):
            for q in _divisors(an):
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    if poly_eval(cs, cand) == 0:
                        roots.add(cand)
    return sorted(roots)
