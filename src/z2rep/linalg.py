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
    roots of q, bisecting on integers.  Once an interval holds one root, that
    root is simple, and the bisection goes on by the sign of q alone, until q
    vanishes at the right end or the width is 1.  The right end y of each
    final interval is a root only if p(y/a) is exactly 0.
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
        if v_lo - v_hi == 1:
            # one root in (lo, hi], simple since q is square-free: q changes
            # sign across it, so bisect on the sign of q alone
            q_hi = poly_eval(q, hi)
            while q_hi and hi - lo > 1:
                mid = (lo + hi) // 2
                q_mid = poly_eval(q, mid)
                if q_mid == 0 or (q_mid > 0) == (q_hi > 0):
                    hi, q_hi = mid, q_mid
                else:
                    lo = mid
        elif hi - lo > 1:
            mid = (lo + hi) // 2
            v_mid = sign_changes(mid)
            todo += [(lo, v_lo, mid, v_mid), (mid, v_mid, hi, v_hi)]
            continue
        # hi is the one integer left that can be a root
        cand = Fraction(hi, a)
        if poly_eval(cs, cand) == 0:
            roots.add(cand)
    return sorted(roots)
