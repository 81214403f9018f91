import random
from collections import Counter
from fractions import Fraction

import pytest

from z2rep import linalg
from z2rep.cartan_modules import (HModule, build_h_module, classify, expected_c_length,
                                  find_invariant_subspace, t_polynomial)


def F(x):
    return Fraction(x)


def mat_vec(mat, vec):
    return [sum((mat[i][j] * vec[j] for j in range(len(vec))), F(0))
            for i in range(len(mat))]


def is_invariant(hm: HModule, rows) -> bool:
    rr, pivots = linalg.rref(rows)
    for row in rr:
        red = linalg.reduce_mod_span(rr, pivots, mat_vec(hm.mat_rt, row))
        if any(red):
            return False
    return True


def test_c_length_rule():
    assert expected_c_length(1) == 0
    assert expected_c_length(2) == 1
    assert expected_c_length(3) == 1
    assert expected_c_length(4) == 2
    assert expected_c_length(7) == 3
    with pytest.raises(ValueError):
        build_h_module(3, 0, [])
    with pytest.raises(ValueError):
        build_h_module(2, 0, [1, 2])
    with pytest.raises(ValueError):
        build_h_module(20, 0, [0] * 10)  # above the dimension cap


def test_build_examples():
    hm = build_h_module(1, 3, [])
    assert hm.mat_rt == ((F(0),),)
    hm = build_h_module(2, 0, [5])
    assert hm.mat_rt == ((F(0), F(5)), (F(1), F(0)))
    hm = build_h_module(4, 0, [0, 1])
    # closing image of the last chain vector lands on even positions only
    assert [hm.mat_rt[i][3] for i in range(4)] == [F(0), F(0), F(1), F(0)]


def test_r_central():
    hm = build_h_module(4, Fraction(2, 3), [1, 2])
    n = hm.n
    mat_r = [[hm.r if i == j else F(0) for j in range(n)] for i in range(n)]
    rt_r = [[sum(hm.mat_rt[i][t] * mat_r[t][j] for t in range(n))
             for j in range(n)] for i in range(n)]
    r_rt = [[sum(mat_r[i][t] * hm.mat_rt[t][j] for t in range(n))
             for j in range(n)] for i in range(n)]
    assert rt_r == r_rt


def test_parity_structure():
    hm = build_h_module(5, 0, [1, 2])
    # Rt flips parity: column k supports only rows of the opposite parity
    for k in range(hm.n):
        for i in range(hm.n):
            if hm.mat_rt[i][k]:
                assert i % 2 != k % 2


def test_irreducible_cases_have_no_invariant_subspace():
    assert find_invariant_subspace(build_h_module(1, 7, [])) is None
    assert find_invariant_subspace(build_h_module(2, 0, [5])) is None
    assert find_invariant_subspace(build_h_module(2, 1, [Fraction(-3, 4)])) is None


def test_odd_chain_tail_subspace():
    hm = build_h_module(3, 1, [Fraction(2, 3)])
    rows = find_invariant_subspace(hm)
    assert rows is not None and len(rows) == 2
    # exactly the span of the two tail vectors
    assert rows == [[F(0), F(1), F(0)], [F(0), F(0), F(1)]]
    assert is_invariant(hm, rows)


def test_even_chain_closing_scalar_route():
    hm = build_h_module(4, 0, [0, 1])
    assert t_polynomial(4, [0, 1]) == [F(0), F(-1), F(1)]  # t^2 - t
    rows = find_invariant_subspace(hm)
    assert rows is not None and len(rows) == 2
    assert is_invariant(hm, rows)


def test_parity_blocks_of_rt_squared_have_closing_polynomial():
    # both parity blocks of Rt^2 have the closing polynomial q as their
    # characteristic polynomial; classify and find_invariant_subspace rest on
    # this identity
    rng = random.Random(11)
    for n in range(2, 13, 2):
        grid = [[F(0)] * (n // 2)]
        for _ in range(12):
            c = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n // 2)]
            c[0] *= rng.randint(0, 1)  # c_0 = 0 puts t = 0 among the roots
            grid.append(c)
        for c in grid:
            hm = build_h_module(n, Fraction(rng.randint(-5, 5), 3), c)
            sq = [[sum((hm.mat_rt[i][t] * hm.mat_rt[t][j] for t in range(n)), F(0))
                   for j in range(n)] for i in range(n)]
            for p in (0, 1):
                idx = [i for i in range(n) if i % 2 == p]
                assert all(sq[i][j] == 0 for i in idx for j in range(n) if j % 2 != p)
                block = [[sq[i][j] for j in idx] for i in idx]
                assert linalg.char_poly(block) == t_polynomial(n, c)


def test_even_chain_all_zero_closing():
    hm = build_h_module(4, 0, [0, 0])
    rows = find_invariant_subspace(hm)
    assert rows is not None and len(rows) == 1
    assert is_invariant(hm, rows)


def test_classify_leaf_cases():
    rep = classify(build_h_module(1, 5, []))
    assert [(c.kind, c.dim) for c in rep.constituents] == [("nu_r", 1)]
    rep = classify(build_h_module(2, 0, [5]))
    assert [(c.kind, c.dim, c.lam) for c in rep.constituents] == \
        [("nu_r_lambda", 2, F(5))]
    assert all(c.kind != "unresolved" for c in rep.constituents)


def test_classify_chain_decomposition():
    rep = classify(build_h_module(4, 0, [0, 1]))
    assert sum(c.dim for c in rep.constituents) == 4
    assert all(c.dim <= 2 for c in rep.constituents)
    assert all(c.kind in ("nu_r", "nu_r_lambda") for c in rep.constituents)
    assert all(c.r == 0 for c in rep.constituents)
    assert all(c.kind != "unresolved" for c in rep.constituents)


def test_classify_pieces_pass_irreducibility_oracle():
    # closing polynomial (t-1)(t-2)(t-3): c makes every reduction rational
    rep = classify(build_h_module(6, 2, [Fraction(6), Fraction(-11), Fraction(6)]))
    assert sum(c.dim for c in rep.constituents) == 6
    for c in rep.constituents:
        assert c.kind in ("nu_r", "nu_r_lambda")
        if c.kind == "nu_r_lambda":
            assert c.lam != 0
            again = build_h_module(2, c.r, [c.lam])
            assert find_invariant_subspace(again) is None


def test_unresolved_over_q():
    # closing polynomial t^2 - 2: no rational root, kernel trivial
    rep = classify(build_h_module(4, 0, [2, 0]))
    assert [c.kind for c in rep.constituents] == ["unresolved"]
    assert find_invariant_subspace(build_h_module(4, 0, [2, 0])) is None


def test_nu_r_lambda_squares_to_lambda():
    lam = Fraction(-7, 3)
    hm = build_h_module(2, 1, [lam])
    sq = [[sum(hm.mat_rt[i][t] * hm.mat_rt[t][j] for t in range(2))
           for j in range(2)] for i in range(2)]
    assert sq == [[lam, F(0)], [F(0), lam]]


# irreducible over Q: quadratics and cubics without a rational root
IRREDUCIBLE = ([-2, 0, 1], [1, 0, 1], [2, -1, 1], [-2, 0, 0, 1], [1, -1, 0, 1])


def _chain_from_factors(rng):
    """A seeded chain whose q is a product of t^a, (t - lam)^m and irreducible
    quadratics or cubics, some of them repeated.

    Returns the chain, the nonzero roots with multiplicity, the degree of the
    irreducible part and whether t divides q.
    """
    n = rng.randint(1, 12)
    deg = expected_c_length(n)
    q, lams, irreducible, has_t = [F(1)], [], 0, False
    while len(q) - 1 < deg:
        room = deg - (len(q) - 1)
        pick = rng.random()
        if pick < 0.2:
            f = [F(0), F(1)]
        elif pick < 0.6 or room < 2:
            lam = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
            f = [-lam, F(1)]
        else:
            f = [F(x) for x in rng.choice([g for g in IRREDUCIBLE if len(g) <= room + 1])]
        for _ in range(rng.randint(1, room // (len(f) - 1))):
            q = linalg.poly_mul(q, f)
            if len(f) > 2:
                irreducible += len(f) - 1
            elif f[0]:
                lams.append(-f[0])
            else:
                has_t = True
    c = [-x for x in q[:-1]]
    return build_h_module(n, Fraction(rng.randint(-5, 5), 3), c), lams, irreducible, has_t


def test_constituents_follow_the_factors_of_q():
    rng = random.Random(17)
    for _ in range(400):
        hm, lams, irreducible, has_t = _chain_from_factors(rng)
        n, rest = hm.n, 2 * irreducible
        rep = classify(hm)
        expected = Counter([("nu_r_lambda", 2, lam) for lam in lams]
                           + [("nu_r", 1, None)] * (n - 2 * len(lams) - rest)
                           + [("unresolved", rest, None)] * bool(rest))
        assert Counter((p.kind, p.dim, p.lam) for p in rep.constituents) == expected
        assert all(p.r == hm.r for p in rep.constituents)
        assert any(p.kind == "unresolved" for p in rep.constituents) == bool(rest)
        if n % 2:
            want = n - 1 if n > 1 else None
        elif lams and n > 2:
            want = 2
        else:
            want = 1 if has_t else None
        rows = find_invariant_subspace(hm)
        if want is None:
            assert rows is None
        else:
            assert len(rows) == want and is_invariant(hm, rows)
        if want == 2 and n % 2 == 0:  # the pair {w, Rt w} of the least lambda
            lam = min(lams)
            for row in rows:
                assert mat_vec(hm.mat_rt, mat_vec(hm.mat_rt, row)) == [lam * x for x in row]


def test_even_chain_subspace_is_the_first_constituent():
    rng = random.Random(23)
    for _ in range(400):
        hm = _chain_from_factors(rng)[0]
        if hm.n % 2:
            continue
        rows = find_invariant_subspace(hm)
        first = classify(hm).constituents[0]
        if first.kind == "unresolved" or first.dim == hm.n:
            assert rows is None
        else:
            assert len(rows) == first.dim and is_invariant(hm, rows)


def test_odd_chain_image_is_not_the_bottom_piece():
    # q = (t - 2)(t - 3): the series starts with a nu_r_lambda, yet the
    # image of Rt has dimension n - 1
    hm = build_h_module(5, 0, [-6, 5])
    assert [(c.kind, c.dim) for c in classify(hm).constituents] == \
        [("nu_r_lambda", 2), ("nu_r_lambda", 2), ("nu_r", 1)]
    rows = find_invariant_subspace(hm)
    assert len(rows) == 4 and is_invariant(hm, rows)


def test_classify_builds_no_matrix():
    # classification reads q alone; Rt is built when a subspace is asked for
    hm = build_h_module(12, 0, [1, 0, 2, 0, 3, 0])
    classify(hm)
    assert "mat_rt" not in vars(hm)
    find_invariant_subspace(hm)
    assert "mat_rt" in vars(hm)


def test_t_polynomial_checks_the_length_of_c():
    assert t_polynomial(5, [1, 2]) == [F(-1), F(-2), F(1)]
    assert t_polynomial(1, []) == [F(1)]
    for n, c in ((4, [0, 1, 2]), (4, [0]), (5, [1]), (1, [0]), (12, [1] * 5)):
        with pytest.raises(ValueError):
            t_polynomial(n, c)
