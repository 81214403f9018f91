from fractions import Fraction

import pytest

from z2rep import linalg
from z2rep.singular_solver import closed_form, find_singular, sectors_for_level
from z2rep.submodule_quotient import (chi11_membership, classify_module,
                                      detect_singular_orders, membership_matrix,
                                      quotient_dims, singular_pair,
                                      submodule_basis, submodule_span_dims,
                                      verma_dim, wbasis_words)
from z2rep.verma import VermaModule, Vector, act, enumerate_level


def mr(r):
    return VermaModule("Mr", Fraction(r))


def mrl(r, lam):
    return VermaModule("MrLambda", Fraction(r), Fraction(lam))


def test_wbasis_word_counts():
    for q in range(9):
        assert len(wbasis_words(q)) == q + 1


def test_detect_singular_orders():
    assert detect_singular_orders(mr(-4)) == [2]
    assert detect_singular_orders(mr(Fraction(1, 3))) == []
    assert detect_singular_orders(mr(3)) == []
    assert detect_singular_orders(mrl(0, 16)) == [2]
    # integer r can satisfy the constraint at two orders
    assert detect_singular_orders(mrl(-3, 1)) == [1, 2]


def test_submodule_basis_examples():
    mod = mr(-2)
    sl = submodule_basis(mod, 1, 0)
    chi01, chi10 = singular_pair(mod, 1)
    assert sl.basis == [chi01, chi10]
    assert submodule_basis(mr(-4), 2, 3).dim == 8
    sl = submodule_basis(mod, 1, 2)
    assert sl.dim == 6
    kets = list(enumerate_level(mod, 5).kets)
    assert linalg.rank([v.coords(kets) for v in sl.basis]) == 6


def test_submodule_basis_rejects_saturated_offsets():
    with pytest.raises(ValueError):
        submodule_basis(mr(0), 0, 1)  # beyond 2M = 0
    with pytest.raises(ValueError):
        submodule_basis(mr(-2), 1, 3)


def test_mrl_submodule_basis_beyond_mr_bound():
    mod = mrl(Fraction(1, 5), (Fraction(1, 5) + 2) ** 2)
    for q in range(6):
        assert submodule_basis(mod, 1, q).dim == 2 * (q + 1)


def test_span_dims_match_formula_and_saturate():
    mod = mr(-2)  # M=1
    spans = submodule_span_dims(mod, 10)
    dims = {n: len(spans[n][0]) for n in spans}
    assert dims == {3: 2, 4: 4, 5: 6, 6: 7, 7: 8, 8: 9, 9: 10, 10: 11}
    # 2(q+1) during the window, then the whole weight space


def test_submodule_closure_under_raising():
    mod = mr(-4)
    spans = submodule_span_dims(mod, 9)
    for n in range(5, 9):
        rr, pivots, kets = spans[n]
        vecs = [Vector(mod, dict(zip(kets, row))) for row in rr]
        for v in vecs:
            for gen, shift in (("ap", 1), ("atp", 1), ("Lp", 2), ("Ltp", 2)):
                target = spans.get(n + shift)
                if target is None:
                    continue
                rr_t, piv_t, kets_t = target
                image = act(gen, v)
                red = linalg.reduce_mod_span(rr_t, piv_t, image.coords(kets_t))
                assert not any(red)


def test_submodule_lowering_consistency():
    mod = mr(-4)
    spans = submodule_span_dims(mod, 8)
    # offset 0 vectors are singular; deeper levels lower back into W
    rr, pivots, kets = spans[5]
    for row in rr:
        v = Vector(mod, dict(zip(kets, row)))
        for gen in ("am", "atm"):
            assert act(gen, v).is_zero()
    for n in (6, 7, 8):
        rr, pivots, kets = spans[n]
        rr_b, piv_b, kets_b = spans[n - 1]
        for row in rr:
            v = Vector(mod, dict(zip(kets, row)))
            for gen in ("am", "atm"):
                red = linalg.reduce_mod_span(rr_b, piv_b,
                                             act(gen, v).coords(kets_b))
                assert not any(red)


def test_membership_m0():
    rep = chi11_membership(0)
    assert rep.coefficients == [Fraction(1, 2)]
    assert rep.residual_zero
    assert rep.matrix == [[2]]


def test_membership_matrix_m4_m5():
    assert membership_matrix(4) == [
        [2, 0, 0, 0, 0],
        [48, 16, 2, 0, 0],
        [32, 64, 48, 16, 2],
        [0, 0, 32, 64, 48],
        [0, 0, 0, 0, 32],
    ]
    assert membership_matrix(5) == [
        [2, 0, 0, 0, 0, 0],
        [80, 20, 2, 0, 0, 0],
        [160, 160, 80, 20, 2, 0],
        [0, 64, 160, 160, 80, 20],
        [0, 0, 0, 64, 160, 160],
        [0, 0, 0, 0, 0, 64],
    ]


def test_membership_reconstruction():
    for M in range(4):
        rep = chi11_membership(M)
        assert rep.residual_zero
        assert rep.determinant != 0
        assert len(rep.coefficients) == M + 1


def test_quotient_dims_case_ii():
    table = quotient_dims(mr(-2), 7)
    assert [row["quotient_dim"] for row in table] == [1, 2, 3, 2, 1, 0, 0, 0]
    assert sum(row["quotient_dim"] for row in table) == 9


def test_quotient_dims_irreducible_verma():
    table = quotient_dims(mr(Fraction(1, 3)), 5)
    assert [row["quotient_dim"] for row in table] == [1, 2, 3, 4, 5, 6]
    table = quotient_dims(mrl(1, 2), 4)
    assert [row["quotient_dim"] for row in table] == [2, 4, 6, 8, 10]


def test_quotient_dims_case_iv():
    table = quotient_dims(mrl(1, 1), 6)
    assert [row["quotient_dim"] for row in table] == [2, 2, 2, 2, 2, 2, 2]


def test_quotient_dims_formula_agrees_with_exact():
    # closed formula: dim W = min(2(q+1), weight-space dim) at offset
    # q = n - (2M+1) >= 0 above the singular level, zero below it
    for mod in (mr(-4), mrl(1, 1), mrl(Fraction(1, 5), (Fraction(1, 5) + 4) ** 2)):
        M = detect_singular_orders(mod)[0]
        formula = []
        for n in range(12):
            total, q = verma_dim(mod, n), n - (2 * M + 1)
            w = min(2 * (q + 1), total) if q >= 0 else 0
            formula.append({"level": n, "verma_dim": total, "submodule_dim": w,
                            "quotient_dim": total - w})
        assert quotient_dims(mod, 11) == formula


def test_classify_case_ii():
    verdict = classify_module(mr(-4))
    assert verdict.case == "ii" and verdict.M == 2
    assert verdict.dimension == 25
    assert verdict.quotient_irreducible_checked
    quots = [row["quotient_dim"] for row in verdict.per_level]
    assert quots[:10] == [1, 2, 3, 4, 5, 4, 3, 2, 1, 0]


def test_classify_case_i_and_iii():
    verdict = classify_module(mr(Fraction(7, 2)))
    assert verdict.case == "i" and verdict.dimension is None
    assert all(row["quotient_dim"] == row["verma_dim"] for row in verdict.per_level)
    verdict = classify_module(mrl(1, 3))
    assert verdict.case == "iii" and verdict.dimension is None


def test_classify_case_iv():
    verdict = classify_module(mrl(0, 16))
    assert verdict.case == "iv" and verdict.M == 2
    assert verdict.dimension is None
    for row in verdict.per_level:
        if row["level"] >= 5:
            assert row["quotient_dim"] == 10  # 4M + 2


def _lowest_singular_level(mod, cap):
    for level in range(1, cap + 1):
        for sector in sectors_for_level(level):
            if find_singular(mod, level, sector).nullspace:
                return level
    return None


@pytest.mark.parametrize("mod", [mr(Fraction(-k, 2)) for k in range(25)] + [
    mrl(Fraction(1, 3), Fraction(49, 9)), mrl(Fraction(-5, 2), Fraction(9, 4)),
    mrl(Fraction(1, 2), Fraction(1, 4)), mrl(0, 16), mrl(1, 1),
    # two orders: integer r with (r + 2M)^2 = lambda at two M
    mrl(-5, 9), mrl(-3, 1), mrl(-1, 1), mrl(-2, 4),
    # lambda not a square, or r off the lattice: case iii
    mrl(1, 3), mrl(0, 2), mrl(-3, 5), mrl(2, -1), mrl(Fraction(1, 3), 1),
], ids=lambda mod: f"{mod.kind}-r{mod.r}-l{mod.lam}")
def test_classify_matches_brute_force_sweep(mod):
    # cases ii/iv: M is fixed by the lowest level 2M+1 holding a singular
    # vector; cases i/iii: no singular vector up to the sweep cap
    cap = 16
    lowest = _lowest_singular_level(mod, cap)
    verdict = classify_module(mod)
    if verdict.case in ("i", "iii"):
        assert lowest is None and verdict.M is None
    else:
        assert verdict.case == ("ii" if mod.kind == "Mr" else "iv")
        assert lowest == 2 * verdict.M + 1


def test_classify_two_order_parameters():
    # integer r meeting the constraint at two orders: the submodule is seeded
    # at both singular levels and the quotient terminates
    verdict = classify_module(mrl(-3, 1), max_level=9)
    assert verdict.case == "iv" and verdict.M == 1
    assert verdict.dimension == 30
    assert verdict.quotient_irreducible_checked
    quots = [row["quotient_dim"] for row in verdict.per_level]
    assert quots == [2, 4, 6, 6, 6, 4, 2, 0, 0, 0]


def test_classify_json():
    data = classify_module(mr(-2)).to_json()
    assert data["kind"] == "Mr" and data["case"] == "ii"
    assert data["dimension"] == 9 and data["M"] == 1
    assert data["per_level"][0] == {"level": 0, "verma_dim": 1,
                                    "submodule_dim": 0, "quotient_dim": 1}
    data = classify_module(mrl(1, 3)).to_json()
    assert data["dimension"] == "infinite"


def test_verma_dim_helper():
    assert verma_dim(mr(0), 4) == 5
    assert verma_dim(mrl(1, 1), 4) == 10


def test_chi11_inside_submodule_span():
    # the (1,1)-sector singular vector generates no new submodule
    for M in (0, 1, 2):
        mod = mr(-2 * M)
        level = 2 * (2 * M + 1)
        spans = submodule_span_dims(mod, level)
        rr, pivots, kets = spans[level]
        chi11 = closed_form(mod, "chi11", M)
        red = linalg.reduce_mod_span(rr, pivots, chi11.coords(kets))
        assert not any(red)


def test_detect_singular_orders_beyond_old_scan():
    # the orders are solved in closed form, not scanned up to a cap
    assert detect_singular_orders(mr(-66)) == [33]
    assert detect_singular_orders(mrl(-70, 4)) == [34, 36]
    assert detect_singular_orders(mrl(Fraction(-7, 2), Fraction(9, 4))) == [1]
    assert detect_singular_orders(mrl(0, -4)) == []
    assert detect_singular_orders(mrl(0, 8)) == []  # not a rational square
    assert detect_singular_orders(mr(-3)) == []


def test_detect_singular_orders_matches_a_scan():
    for num in range(-90, 12):
        for den in (1, 2):
            r = Fraction(num, den)
            scan = [M for M in range(60) if r + 2 * M == 0]
            assert detect_singular_orders(mr(r)) == scan
            for lam in (Fraction(1), Fraction(4), Fraction(9, 4), Fraction(49), Fraction(2)):
                scan = [M for M in range(60) if (r + 2 * M) ** 2 == lam]
                assert detect_singular_orders(mrl(r, lam)) == scan
