from fractions import Fraction

import pytest

from paper_routes import chi11_membership, membership_matrix, submodule_basis, wbasis_words
from reference import dense_piece, rank, sector_pieces
from z2rep import submodule_quotient
from z2rep.singular_solver import closed_form, find_singular, sectors_for_level
from z2rep.submodule_quotient import (ConsistencyError, build_submodule,
                                      classify_module, detect_singular_orders,
                                      quotient_dims, singular_pair, verma_dim)
from z2rep.verma import VermaModule, Vector, _sector_kets, act, enumerate_level


def mr(r):
    return VermaModule("Mr", Fraction(r))


def mrl(r, lam):
    return VermaModule("MrLambda", Fraction(r), Fraction(lam))


def w_vectors(module, w, n):
    """The echelon rows of W at level n, one sector piece after another."""
    out = []
    for sector, piece in sector_pieces(module, n, w[n]).items():
        kets = _sector_kets(module.kind, n, sector)
        out += [Vector(module, dict(zip(kets, row)))
                for row in dense_piece(piece, len(kets))[0]]
    return out


def in_w(w, vec, n):
    """vec lies in W: appending it to its sector piece at level n keeps the rank."""
    if vec.is_zero():
        return True
    kets = _sector_kets(vec.module.kind, n, vec.degree())
    rows = dense_piece(sector_pieces(vec.module, n, w.get(n, {}))[vec.degree()],
                       len(kets))[0]
    return rank(rows + [vec.coords(kets)]) == len(rows)


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
    basis = submodule_basis(mod, 1, 0)
    chi01, chi10 = singular_pair(mod, 1)
    assert basis == [chi01, chi10]
    assert len(submodule_basis(mr(-4), 2, 3)) == 8
    basis = submodule_basis(mod, 1, 2)
    assert len(basis) == 6
    kets = list(enumerate_level(mod, 5))
    assert rank([v.coords(kets) for v in basis]) == 6


def test_submodule_basis_rejects_saturated_offsets():
    with pytest.raises(ValueError):
        submodule_basis(mr(0), 0, 1)  # beyond 2M = 0
    with pytest.raises(ValueError):
        submodule_basis(mr(-2), 1, 3)


def test_mrl_submodule_basis_beyond_mr_bound():
    mod = mrl(Fraction(1, 5), (Fraction(1, 5) + 2) ** 2)
    for q in range(6):
        assert len(submodule_basis(mod, 1, q)) == 2 * (q + 1)


def test_span_dims_match_formula_and_saturate():
    mod = mr(-2)  # M=1
    w = build_submodule(mod, 10)
    dims = {n: len(piece) for n, piece in w.items()}
    assert dims == {3: 2, 4: 4, 5: 6, 6: 7, 7: 8, 8: 9, 9: 10, 10: 11}
    # 2(q+1) during the window, then the whole weight space


def test_submodule_closure_under_raising():
    mod = mr(-4)
    w = build_submodule(mod, 9)
    for n in range(5, 9):
        for v in w_vectors(mod, w, n):
            for gen, shift in (("ap", 1), ("atp", 1), ("Lp", 2), ("Ltp", 2)):
                if n + shift not in w:
                    continue
                assert in_w(w, act(gen, v), n + shift)


def test_submodule_lowering_consistency():
    mod = mr(-4)
    w = build_submodule(mod, 8)
    # offset 0 vectors are singular; deeper levels lower back into W
    for v in w_vectors(mod, w, 5):
        for gen in ("am", "atm"):
            assert act(gen, v).is_zero()
    for n in (6, 7, 8):
        for v in w_vectors(mod, w, n):
            for gen in ("am", "atm"):
                assert in_w(w, act(gen, v), n - 1)


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
    quots = [row["quotient_dim"] for row in verdict.per_level]
    assert quots == [2, 4, 6, 6, 6, 4, 2, 0, 0, 0]


@pytest.mark.parametrize("s", range(1, 5))
@pytest.mark.parametrize("m1", range(5))
def test_two_order_quotient_is_finite(m1, s):
    # lambda = s^2 and r = -s - 2 M1 meet (r + 2M)^2 = lambda at M1 and at
    # M2 = M1 + s.  The quotient then ends at level 2(M1 + M2) with total
    # dimension 2(2M1+1)(2M2+1), whatever level cap is asked for.
    m2 = m1 + s
    module = mrl(-s - 2 * m1, s * s)
    assert detect_singular_orders(module) == [m1, m2]
    for cap in (None, 0, 2 * m1 + 1):
        verdict = classify_module(module, max_level=cap)
        assert verdict.case == "iv" and verdict.M == m1
        assert verdict.dimension == 2 * (2 * m1 + 1) * (2 * m2 + 1)
        top = max(row["level"] for row in verdict.per_level if row["quotient_dim"])
        assert top == 2 * (m1 + m2)
        assert sum(row["quotient_dim"] for row in verdict.per_level) == verdict.dimension


def test_failed_quotient_check_raises_on_two_order_module(monkeypatch):
    # a finite verdict is never given without its irreducibility check: every
    # case-ii module Mr(-2M) and every two-order module at every cap
    monkeypatch.setattr(submodule_quotient, "_quotient_has_no_singular",
                        lambda module, w, n: False)
    cases = [(mrl(-5, 9), None), (mrl(-3, 1), 9)] + [(mr(-2 * M), None) for M in range(6)]
    cases += [(mrl(-s - 2 * m1, s * s), cap) for m1 in range(5) for s in range(1, 5)
              for cap in (None, 0, 2 * m1 + 1)]
    for module, cap in cases:
        with pytest.raises(ConsistencyError, match="unexpected singular vector"):
            classify_module(module, max_level=cap)


@pytest.mark.parametrize("module", [
    mr(Fraction(1, 3)), mr(Fraction(-7, 5)), mr(5),
    mrl(Fraction(1, 3), Fraction(5, 7)), mrl(Fraction(-7, 5), 2), mrl(1, 3),
    mrl(Fraction(-1, 3), -4),
    mrl(Fraction(1, 3), Fraction(49, 9)), mrl(Fraction(-5, 2), Fraction(9, 4)),
    mrl(Fraction(2, 5), Fraction(1024, 25)),
], ids=lambda m: f"{m.kind}-r{m.r}-l{m.lam}")
def test_infinite_verdict_tables_are_the_irreducible_quotient(module):
    # cases i, iii and single-order iv: V/W has no singular vector at any
    # level of the table, so W is the maximal submodule through the cap
    verdict = classify_module(module)
    assert verdict.dimension is None
    top = max(row["level"] for row in verdict.per_level)
    w = build_submodule(module, top)
    assert all(submodule_quotient._quotient_has_no_singular(module, w, n)
               for n in range(1, top + 1))


def test_single_order_cap_reaches_past_the_singular_level():
    verdict = classify_module(mrl(1, 1), max_level=0)
    assert verdict.case == "iv" and verdict.M == 0 and verdict.dimension is None
    assert [row["quotient_dim"] for row in verdict.per_level] == [2, 2, 2]


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
        w = build_submodule(mod, level)
        chi11 = closed_form(mod, "chi11", M)
        assert in_w(w, chi11, level)


def test_detect_singular_orders_returns_a_new_list():
    module = mrl(-3, 1)
    orders = detect_singular_orders(module)
    orders[0] = 0
    orders.append(7)
    assert detect_singular_orders(module) == [1, 2]
    assert detect_singular_orders(mrl(-3, 1)) == [1, 2]


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
