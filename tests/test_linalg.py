from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z2rep import linalg


def F(x):
    return Fraction(x)


def test_rref_identity_like():
    rows = [[F(2), F(0)], [F(0), F(3)]]
    rr, pivots = linalg.rref(rows)
    assert rr == [[F(1), F(0)], [F(0), F(1)]]
    assert pivots == [0, 1]


def test_rank_and_nullspace_consistency():
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    assert linalg.rank(rows) == 2
    kernel = linalg.nullspace(rows, 3)
    assert len(kernel) == 1
    for vec in kernel:
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0


def test_nullspace_of_zero_map_is_identity_basis():
    kernel = linalg.nullspace([], 3)
    assert kernel == [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]]


def test_solve_unique():
    a = [[F(2), F(1)], [F(1), F(3)]]
    x = linalg.solve_unique(a, [F(5), F(10)])
    assert x == [F(1), F(3)]
    with pytest.raises(ValueError):
        linalg.solve_unique([[F(1), F(1)]], [F(1)])  # underdetermined
    with pytest.raises(ValueError):
        linalg.solve_unique([[F(1), F(1)], [F(1), F(1)]], [F(1), F(2)])


def test_det_matches_cofactor_expansion():
    a = [[F(1), F(2), F(3)], [F(4), F(5), F(6)], [F(7), F(8), F(10)]]
    # brute-force 3x3 cofactor expansion as independent oracle
    def det3(m):
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    assert linalg.det(a) == det3(a)


def test_char_poly_of_diagonal():
    a = [[F(2), F(0)], [F(0), F(-3)]]
    # (x-2)(x+3) = x^2 + x - 6
    assert linalg.char_poly(a) == [F(-6), F(1), F(1)]
    # an integer polynomial at an integer point stays in ints
    value = linalg.poly_eval([1, 2, 3], 5)
    assert value == 86 and type(value) is int


def test_rational_roots():
    # (t-1)(t+2/3) scaled: 3t^2 - t - 2
    assert linalg.rational_roots([F(-2), F(-1), F(3)]) == [Fraction(-2, 3), F(1)]
    assert linalg.rational_roots([F(0), F(0), F(1)]) == [F(0)]
    # t^2 - 2 has no rational root
    assert linalg.rational_roots([F(-2), F(0), F(1)]) == []


def test_rational_roots_of_a_repeated_root():
    # (t-1)^2 (t-3): the bisection evaluates at the double root 1 before it
    # reaches 3, and a Sturm sequence counts right there only when square-free
    assert linalg.rational_roots(linalg.poly_mul([1, -2, 1], [-3, 1])) == [F(1), F(3)]


def test_rational_roots_of_61_bit_coefficients():
    # (3t - 2^61 - 1)(t + 2^40 + 5)(t^2 + 7): exact roots, nothing sampled
    coeffs = linalg.poly_mul(linalg.poly_mul([-(2 ** 61) - 1, 3], [2 ** 40 + 5, 1]),
                             [7, 0, 1])
    assert linalg.rational_roots(coeffs) == [-(2 ** 40) - 5, Fraction(2 ** 61 + 1, 3)]
    assert linalg.rational_roots(linalg.poly_mul(coeffs, coeffs)) == \
        [-(2 ** 40) - 5, Fraction(2 ** 61 + 1, 3)]
    assert linalg.rational_roots([-(2 ** 61) - 1, 0, 3]) == []


small = st.integers(min_value=-6, max_value=6)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(small, min_size=4, max_size=4), min_size=2, max_size=5))
def test_nullspace_vectors_annihilate(rows_int):
    rows = [[F(x) for x in row] for row in rows_int]
    kernel = linalg.nullspace(rows, 4)
    assert len(kernel) == 4 - linalg.rank(rows)
    for vec in kernel:
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(small, min_size=3, max_size=3), min_size=3, max_size=3))
def test_char_poly_roots_are_eigenvalues(rows_int):
    a = [[F(x) for x in row] for row in rows_int]
    coeffs = linalg.char_poly(a)
    for t in linalg.rational_roots(coeffs):
        shifted = [[a[i][j] - (t if i == j else 0) for j in range(3)]
                   for i in range(3)]
        assert linalg.rank(shifted) < 3


def _oracle_rref(rows, ncols):
    """Gauss-Jordan elimination in Fractions: (RREF rows, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        hit = next((i for i in range(r, len(m)) if m[i][c]), None)
        if hit is None:
            continue
        m[r], m[hit] = m[hit], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = [a - m[i][c] * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m[:len(pivots)], pivots


def _oracle_nullspace(rows, ncols):
    """The Fraction null space: RREF, the free-column basis, then RREF again."""
    rr, pivots = _oracle_rref(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -rr[i][f]
        basis.append(v)
    return _oracle_rref(basis, ncols)[0] if basis else []


@st.composite
def int_matrices(draw):
    ncols = draw(st.integers(min_value=1, max_value=6))
    shape = draw(st.sampled_from(["zero-row", "all-zero", "full-rank", "deficient",
                                  "any"]))
    if shape == "zero-row":
        return [], ncols
    nrows = draw(st.integers(min_value=1, max_value=7))
    if shape == "all-zero":
        return [[0] * ncols for _ in range(nrows)], ncols
    rows = draw(st.lists(st.lists(small, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    if shape == "full-rank":
        # a unit upper-triangular block under random rows has rank ncols
        rows += [[0] * j + [1] + draw(st.lists(small, min_size=ncols - j - 1,
                                               max_size=ncols - j - 1))
                 for j in range(ncols)]
    elif shape == "deficient" and ncols > 1:
        # the last column repeats the first: (1, 0, ..., 0, -1) is in the kernel
        rows = [row[:-1] + [row[0]] for row in rows]
    return rows, ncols


@settings(max_examples=150, deadline=None)
@given(int_matrices(), st.lists(st.fractions(min_value=-5, max_value=5,
                                             max_denominator=6)
                                .filter(lambda x: x != 0), min_size=20, max_size=20))
def test_nullspace_matches_fraction_oracle(matrix, row_scales):
    rows, ncols = matrix
    expected = _oracle_nullspace(rows, ncols)
    fractions = [[Fraction(x) for x in row] for row in rows]
    scaled = [[s * x for x in row] for s, row in zip(row_scales, rows)]
    for form in (rows, fractions, scaled):
        kernel = linalg.nullspace(form, ncols)
        assert kernel == expected
        assert linalg.rref(form) == _oracle_rref(form, ncols)
        assert all(type(x) is Fraction for vec in kernel for x in vec)


@st.composite
def rows_on_echelon_pieces(draw):
    """Integer rows stacked on two echelon pieces on interleaved columns, as
    `lowering_kernel` stacks its rows on W: (pieces, dense piece rows, rows).
    Some rows are integer combinations of the piece rows, or of those and an
    earlier row, so they depend on the stack."""
    widths = draw(st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=2))
    width = 2 * max(widths)
    pieces, block = [], []
    for b, w in enumerate(widths):
        columns = range(b, 2 * w, 2)
        piece = linalg.echelon(draw(st.lists(st.lists(small, min_size=w, max_size=w),
                                             max_size=w)))
        pieces.append((columns, piece))
        for ech_row in piece[0]:
            dense = [0] * width
            for c, x in zip(columns, ech_row):
                dense[c] = x
            block.append(dense)
    rows = draw(st.lists(st.lists(small, min_size=width, max_size=width), max_size=6))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        basis = block + rows[:1]
        coeffs = draw(st.lists(small, min_size=len(basis), max_size=len(basis)))
        rows.append([sum(c * row[j] for c, row in zip(coeffs, basis)) for j in range(width)])
    return pieces, block, draw(st.permutations(rows))


@settings(max_examples=150, deadline=None)
@given(rows_on_echelon_pieces())
def test_sparse_rank_matches_echelon(case):
    pieces, block, rows = case
    sparse = [{c: x for c, x in enumerate(row) if x} for row in rows]
    assert linalg.sparse_rank(sparse, pieces) == len(linalg.echelon(block + rows)[1])


@pytest.mark.parametrize("rows, ncols, dim", [
    ([], 3, 3),
    ([[0, 0, 0], [0, 0, 0]], 3, 3),
    ([[1, 2], [3, 4], [5, 6]], 2, 0),
    ([[2, 4, 6], [1, 2, 3]], 3, 2),
])
def test_nullspace_shapes(rows, ncols, dim):
    kernel = linalg.nullspace(rows, ncols)
    assert len(kernel) == dim
    assert kernel == _oracle_nullspace(rows, ncols)


def _oracle_divisors(n):
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


def _oracle_rational_roots(coeffs):
    """Rational roots by the rational root theorem: try every p/q, p | a_0, q | a_n."""
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    roots = set()
    while cs[0] == 0:
        cs.pop(0)
        roots.add(Fraction(0))
    if len(cs) > 1:
        den = 1
        for c in cs:
            den = den * c.denominator // gcd(den, c.denominator)
        a0, an = abs(cs[0] * den), abs(cs[-1] * den)
        qs = _oracle_divisors(int(an))
        for p in _oracle_divisors(int(a0)):
            for q in qs:
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    if linalg.poly_eval(cs, cand) == 0:
                        roots.add(cand)
    return sorted(roots)


small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@st.composite
def polynomials(draw):
    """Degree <= 6, ascending coefficients: products of rational linear factors
    (repeats and 0 allowed) and quadratics without real roots, or random."""
    if draw(st.booleans()):
        coeffs = draw(st.lists(small_fractions, min_size=1, max_size=7))
        return coeffs if any(coeffs) else coeffs + [Fraction(1)]
    lead = draw(small_fractions.filter(lambda x: x != 0))
    poly = [lead]
    degree = 0
    while degree < 6 and draw(st.booleans()):
        if degree <= 4 and draw(st.booleans()):
            # t^2 + b t + c with b^2 < 4c has no real root
            b = draw(small_fractions)
            c = b * b / 4 + draw(st.fractions(min_value=Fraction(1, 5), max_value=5,
                                              max_denominator=5))
            poly = linalg.poly_mul(poly, [c, b, Fraction(1)])
            degree += 2
        else:
            poly = linalg.poly_mul(poly, [-draw(small_fractions), Fraction(1)])
            degree += 1
    return poly


@settings(max_examples=200, deadline=None)
@given(polynomials())
def test_rational_roots_match_trial_division(coeffs):
    roots = linalg.rational_roots(coeffs)
    assert roots == _oracle_rational_roots(coeffs)
    assert all(type(t) is Fraction for t in roots)
    scale = -7
    for c in coeffs:
        scale = scale * c.denominator // gcd(scale, c.denominator)
    # a nonzero integer multiple has the same roots
    assert linalg.rational_roots([int(c * scale) for c in coeffs]) == roots


def test_rational_roots_of_zero_polynomial():
    with pytest.raises(ValueError):
        linalg.rational_roots([F(0), F(0)])
