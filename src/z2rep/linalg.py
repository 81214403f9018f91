"""Exact linear algebra over the rationals.

The engine has one reduction loop, `sparse_echelon`, whose rows map a column
to its nonzero entry: W is built by it, and the lowering kernel is decided
and read off by it.  Elimination is fraction-free (Bareiss 1968): rows are
rescaled to integers once, and every cross-multiplied row is divided by the
gcd of its entries, which keeps intermediate integers small.  An echelon
piece (`Piece`) holds sparse integer rows keyed on their leading columns:
`sparse_echelon` takes its ready rows and returns its new ones in that one
form.  W is stored as one piece per level, on the columns of that level's
kets, and the lowering kernel takes it as its ready rows as it is stored.
`echelon_to_rref` back-substitutes dense integer echelon rows, in integers
too, and builds one Fraction per entry at the end.  No floating point
anywhere.  The routines that only tests use (a dense echelon form, rank,
rref, nullspace, det, char_poly and the like) are in tests/reference.py.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _int_row(row) -> tuple[list[int], int]:
    """The row times the lcm of its denominators, and that lcm."""
    row = [Fraction(x) for x in row]
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row], den


Piece = dict[int, dict[int, int]]  # echelon rows keyed on their leads; W has one per level


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


def sparse_echelon(rows: list[dict[int, int]], ready: Piece) -> Piece:
    """Sparse integer rows reduced to echelon form on a ready piece.

    Each row maps a column to its nonzero entry.  `ready` holds integer
    echelon rows on the same columns, keyed on their leading columns.  A
    table keyed on each row's leading column starts as a copy of `ready`.
    Each row, sparsest first, is reduced against the table until it is zero
    or its leading column is new, and every remainder is kept primitive (a
    row that takes a new leading column unreduced is kept as it is given).
    No row is updated in place, so the rows of `ready` and `rows` may be
    shared.  Returns the rows that took a new leading column, keyed on that
    column: the rank of the stack is their number plus that of `ready`.
    """
    table = dict(ready)
    found: Piece = {}
    for row in sorted(rows, key=len):
        while row:
            lead = min(row)
            piv = table.get(lead)
            if piv is None:
                table[lead] = found[lead] = row
                break
            g = gcd(piv[lead], row[lead])
            a, b = piv[lead] // g, row[lead] // g
            out = {c: a * x for c, x in row.items()}
            for c, x in piv.items():
                out[c] = out.get(c, 0) - b * x
            out = {c: x for c, x in out.items() if x}
            g = gcd(*out.values())
            row = {c: x // g for c, x in out.items()} if g > 1 else out
    return found


def poly_eval(coeffs, x: Fraction) -> Fraction:
    """The polynomial at x, by Horner's rule; an integer polynomial at an
    integer point stays in ints."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _primitive(p: list[int]) -> list[int]:
    """The integer row or polynomial divided by the gcd of its entries."""
    g = gcd(*p)
    return [x // g for x in p] if g > 1 else p


def _derivative(p: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(p)][1:]


def _bracket_roots(p: list[int], lo: int, hi: int) -> list[int]:
    """Integers that bracket every real root of p in [lo, hi], ascending.

    The list holds lo and hi.  Each real root of p in [lo, hi] is a member,
    or lies between two consecutive members t and t + 1.  The list starts
    from that of p', or from [lo, hi] when p is linear (Collins and Loos
    1976).  On a stretch of length >= 2 between consecutive members, p' has
    no root: it would be a member, or lie between two members one apart, and
    neither fits inside the stretch.  So p is strictly monotone there, and
    one bisection on its sign brackets its one possible root to width 1.
    """
    out = set(_bracket_roots(_derivative(p), lo, hi)) if len(p) > 2 else {lo, hi}
    marks = sorted(out)
    vals = [poly_eval(p, t) for t in marks]
    for a, b, pa, pb in zip(marks, marks[1:], vals, vals[1:]):
        if b - a < 2 or pa * pb >= 0:
            continue  # no root inside, or it is an end
        while b - a > 1:
            mid = (a + b) // 2
            pm = poly_eval(p, mid)
            if pm == 0:
                a = b = mid
            elif (pm > 0) == (pa > 0):
                a = mid
            else:
                b = mid
        out |= {a, b}
    return sorted(out)


def rational_roots(coeffs) -> list[Fraction]:
    """All rational roots of the polynomial, ascending (multiplicity collapsed).

    The cost grows with the bit size of the coefficients.  The integer
    polynomial p, with leading coefficient a, becomes the monic integer
    polynomial q(y) = a^(d-1) p(y/a), whose rational roots are integers.
    `_bracket_roots` brackets the real roots of q within Fujiwara's bound:
    between consecutive roots of q' it bisects q, which is monotone there,
    so each integer root of q is one of the integers it lists.  A multiple
    root is a root of q' as well, so it is listed too, and no square-free
    part is needed.  A listed y gives the root y/a only if q(y) is exactly 0.
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
    a, d = p[-1], len(p) - 1
    q = [c * a ** (d - 1 - i) for i, c in enumerate(p[:-1])] + [1]
    # Fujiwara: every root y of q has |y| <= 2 max_i |q_(d-i)|^(1/i)
    bound = 2 << max((abs(c).bit_length() + d - i - 1) // (d - i)
                     for i, c in enumerate(q[:-1]))
    roots.update(Fraction(y, a) for y in _bracket_roots(q, -bound, bound)
                 if poly_eval(q, y) == 0)
    return sorted(roots)
