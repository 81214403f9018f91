import random
from fractions import Fraction

import pytest

from z2rep import linalg
from z2rep.cartan_modules import (HModule, build_h_module, classify,
                                  expected_c_length, find_invariant_subspace,
                                  t_polynomial)


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
    rt_r = [[sum(hm.mat_rt[i][t] * hm.mat_r[t][j] for t in range(n))
             for j in range(n)] for i in range(n)]
    r_rt = [[sum(hm.mat_r[i][t] * hm.mat_rt[t][j] for t in range(n))
             for j in range(n)] for i in range(n)]
    assert rt_r == r_rt


def test_parity_structure():
    hm = build_h_module(5, 0, [1, 2])
    assert hm.parity == (0, 1, 0, 1, 0)
    # Rt flips parity: column k supports only opposite-parity rows
    for k in range(hm.n):
        for i in range(hm.n):
            if hm.mat_rt[i][k]:
                assert hm.parity[i] != hm.parity[k]


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
    # the even-chain search takes its eigen pairs from the even block alone;
    # that is complete because both blocks share the closing polynomial
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
                idx = [i for i in range(n) if hm.parity[i] == p]
                assert all(sq[i][j] == 0 for i in idx for j in range(n)
                           if hm.parity[j] != p)
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
    assert rep.certified


def test_classify_chain_decomposition():
    rep = classify(build_h_module(4, 0, [0, 1]))
    assert sum(c.dim for c in rep.constituents) == 4
    assert all(c.dim <= 2 for c in rep.constituents)
    assert all(c.kind in ("nu_r", "nu_r_lambda") for c in rep.constituents)
    assert all(c.r == 0 for c in rep.constituents)
    assert rep.certified


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
    assert not rep.certified
    assert find_invariant_subspace(build_h_module(4, 0, [2, 0])) is None


def test_nu_r_lambda_squares_to_lambda():
    lam = Fraction(-7, 3)
    hm = build_h_module(2, 1, [lam])
    sq = [[sum(hm.mat_rt[i][t] * hm.mat_rt[t][j] for t in range(2))
           for j in range(2)] for i in range(2)]
    assert sq == [[lam, F(0)], [F(0), lam]]
