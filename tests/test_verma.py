import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z2rep.graded_algebra import AD_WEIGHT, DEGREE, GENERATORS, degree_add
from z2rep.verma import (Ket, VermaModule, Vector, act, act_element,
                         act_word, action_rows, enumerate_level,
                         representation_residual, sector_kets, vector_to_json,
                         zero_vector)
from z2rep.graded_algebra import Element

MR = VermaModule("Mr", Fraction(1))
MRL = VermaModule("MrLambda", Fraction(1), Fraction(1))


def test_module_validation():
    with pytest.raises(ValueError):
        VermaModule("MrLambda", Fraction(1))  # missing lambda
    with pytest.raises(ValueError):
        VermaModule("MrLambda", Fraction(1), Fraction(0))  # lambda must be nonzero
    with pytest.raises(ValueError):
        VermaModule("Mr", Fraction(1), Fraction(2))  # stray lambda
    with pytest.raises(ValueError):
        VermaModule("bogus", Fraction(1))


def test_enumerate_level_dims():
    assert enumerate_level(MR, 0) == (Ket(0, 0, 0),)
    ws = enumerate_level(MR, 2)
    assert set(ws) == {Ket(0, 2, 0), Ket(0, 0, 1), Ket(1, 1, 0)}
    assert len(ws) == 3
    for n in range(9):
        assert len(enumerate_level(MR, n)) == n + 1
        assert len(enumerate_level(MRL, n)) == 2 * (n + 1)
    ws1 = enumerate_level(MRL, 1)
    assert set(ws1) == {Ket(0, 1, 0, 0), Ket(0, 1, 0, 1),
                        Ket(1, 0, 0, 0), Ket(1, 0, 0, 1)}


def test_level_sector_split():
    # even levels split into (0,0)/(1,1), odd into (0,1)/(1,0)
    for mod in (MR, MRL):
        for n in range(7):
            ws = enumerate_level(mod, n)
            expect = {(0, 0), (1, 1)} if n % 2 == 0 else {(0, 1), (1, 0)}
            got = {mod.degree(k) for k in ws}
            assert got <= expect
            if n >= 1:
                assert got == expect


def test_r_acts_diagonally():
    r = Fraction(1)
    v = MR.basis_vector(0, 2, 1)
    assert act("R", v) == (r + 0 + 2 + 2) * v  # eigenvalue r + level


def test_lowest_weight_annihilation():
    for mod in (MR, MRL):
        beta = None if mod.kind == "Mr" else 0
        low = mod.basis_vector(0, 0, 0, beta)
        for gen in ("am", "atm", "Lm", "Ltm"):
            assert act(gen, low).is_zero()


def test_action_examples():
    r = MR.r
    assert act("am", MR.basis_vector(0, 1, 0)) == 2 * r * MR.basis_vector(0, 0, 0)
    assert act("atp", MR.basis_vector(0, 3, 2)) == MR.basis_vector(1, 3, 2)
    assert act("atp", MR.basis_vector(1, 1, 0)) == -1 * MR.basis_vector(0, 3, 0)


def test_rtilde_on_lowest_weight_mrl():
    low0 = MRL.basis_vector(0, 0, 0, 0)
    low1 = MRL.basis_vector(0, 0, 0, 1)
    assert act("Rt", low0) == low1
    assert act("Rt", low1) == MRL.lam * low0


def test_derived_even_actions_on_every_ket():
    # R, Ltp and Rt act through brackets of two odd generators; pin their
    # images on every ket of levels 0..10 at seeded parameters
    rng = random.Random(10)
    r = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
    lam = Fraction(rng.choice((-1, 1)) * rng.randint(1, 40), rng.randint(1, 9))
    for mod in (VermaModule("Mr", r), VermaModule("MrLambda", r, lam)):
        for n in range(11):
            for ket in enumerate_level(mod, n):
                v = Vector(mod, {ket: 1})
                assert act("R", v) == (r + n) * v
                raised = ket._replace(m=ket.m + 1)
                assert act("Ltp", v) == Vector(mod, {raised: (-1) ** (ket.alpha + ket.k)})
        if mod.kind == "MrLambda":
            for b in (0, 1):
                low = mod.basis_vector(0, 0, 0, b)
                assert act("Rt", low) == lam ** b * mod.basis_vector(0, 0, 0, 1 - b)


def test_act_element_linearity():
    m3 = VermaModule("Mr", Fraction(3))
    low = m3.basis_vector(0, 0, 0)
    assert act_element(Element({"R": 2}), low) == 6 * low
    v = MR.basis_vector(0, 0, 0)
    r = MR.r
    assert act_element(Element({"R": 2}), v) == 2 * r * v
    assert act_element(Element.zero(), v).is_zero()
    combo = act_element(Element({"Lp": 1, "Ltp": 1}), v)
    assert combo == act("Lp", v) + act("Ltp", v)


def test_act_element_rejects_mixed_modules():
    with pytest.raises(ValueError):
        MR.basis_vector(0, 0, 0) + MRL.basis_vector(0, 0, 0, 0)


def test_raising_relations_between_lp_and_ap():
    # 2*Lp = ap^2 and -2*Lp = atp^2, certified on a few kets
    for ket in enumerate_level(MR, 3):
        v = Vector(MR, {ket: Fraction(1)})
        assert 2 * act("Lp", v) == act_word(("ap", "ap"), v)
        assert -2 * act("Lp", v) == act_word(("atp", "atp"), v)


KETS_MR = [k for n in range(6) for k in enumerate_level(MR, n)]
KETS_MRL = [k for n in range(6) for k in enumerate_level(MRL, n)]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(GENERATORS), st.sampled_from(KETS_MR))
def test_level_and_degree_bookkeeping_mr(gen, ket):
    v = Vector(MR, {ket: Fraction(1)})
    out = act(gen, v)
    if not out.is_zero():
        assert out.level() == v.level() + AD_WEIGHT[gen]
        assert out.degree() == degree_add(v.degree(), DEGREE[gen])


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(GENERATORS), st.sampled_from(KETS_MRL))
def test_level_and_degree_bookkeeping_mrl(gen, ket):
    v = Vector(MRL, {ket: Fraction(1)})
    out = act(gen, v)
    if not out.is_zero():
        assert out.level() == v.level() + AD_WEIGHT[gen]
        assert out.degree() == degree_add(v.degree(), DEGREE[gen])


def test_rtilde_preserves_level_and_swaps_sector():
    for mod in (MR, MRL):
        for n in range(5):
            for ket in enumerate_level(mod, n):
                out = act("Rt", Vector(mod, {ket: Fraction(1)}))
                if out.is_zero():
                    continue
                assert out.level() == n
                assert out.degree() == degree_add(mod.degree(ket), (1, 1))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["R", "Rt", "ap", "am", "atp", "atm", "Lp", "Lm", "Ltp", "Ltm"]),
       st.sampled_from(["ap", "am", "atm", "Rt", "Ltm"]),
       st.sampled_from(KETS_MRL[:30]))
def test_representation_residual_sampled(g1, g2, ket):
    assert representation_residual(g1, g2, Vector(MRL, {ket: Fraction(1)})).is_zero()


def test_representation_residual_examples():
    m2 = VermaModule("Mr", Fraction(2))
    assert representation_residual("ap", "am", m2.basis_vector(0, 0, 0)).is_zero()
    assert representation_residual("Rt", "R", MR.basis_vector(1, 2, 1)).is_zero()
    assert representation_residual("atp", "atp", MR.basis_vector(0, 1, 0)).is_zero()


def test_mixed_homogeneity_queries_raise():
    v = MR.basis_vector(0, 0, 0) + MR.basis_vector(0, 1, 0)
    with pytest.raises(ValueError):
        v.level()
    v2 = MR.basis_vector(0, 2, 0) + MR.basis_vector(0, 0, 1)  # same level, mixed sector
    with pytest.raises(ValueError):
        v2.degree()
    assert v2.level() == 2


def test_vector_json():
    vec = MRL.basis_vector(0, 1, 0, 0) - 2 * MRL.basis_vector(1, 0, 0, 1)
    data = vector_to_json(vec)
    assert data["kind"] == "MrLambda"
    assert data["r"] == "1/1" and data["lambda"] == "1/1"
    assert data["terms"] == [
        {"alpha": 1, "k": 0, "m": 0, "beta": 1, "coeff": "-2/1"},
        {"alpha": 0, "k": 1, "m": 0, "beta": 0, "coeff": "1/1"},
    ]


def test_sector_kets_canonical_order():
    kets = sector_kets(MR, 3, (0, 1))
    assert kets == sorted(kets, key=lambda k: (k.m, k.k, k.alpha, k.beta or 0))
    for mod in (MR, MRL):
        for n in range(13):
            kets = enumerate_level(mod, n)
            assert list(kets) == sorted(kets, key=lambda k: (k.m, k.k, k.alpha, k.beta or 0))
            for sector in ((0, 0), (0, 1), (1, 0), (1, 1)):
                assert sector_kets(mod, n, sector) == [k for k in kets
                                                       if mod.degree(k) == sector]


def test_sector_kets_cache_cannot_be_mutated():
    kets = sector_kets(MR, 5, (0, 1))
    expected = list(kets)
    kets.clear()
    other = VermaModule("Mr", Fraction(-7, 3))
    assert sector_kets(other, 5, (0, 1)) == expected
    assert expected == [k for k in enumerate_level(other, 5)
                        if other.degree(k) == (0, 1)]


def test_zero_vector():
    assert zero_vector(MR).is_zero()
    assert (MR.basis_vector(0, 1, 0) - MR.basis_vector(0, 1, 0)).is_zero()


@pytest.mark.parametrize("module, gen, good_scale, bad_scale", [
    (VermaModule("Mr", Fraction(1, 3)), "am", 3, 1),
    (VermaModule("Mr", Fraction(-5, 4)), "atm", 4, 1),
    (VermaModule("MrLambda", Fraction(2, 7), Fraction(-5, 3)), "am", 21, 7),
    (VermaModule("MrLambda", Fraction(2, 7), Fraction(-5, 3)), "atm", 21, 3),
])
def test_action_rows_scale_clears_denominators(module, gen, good_scale, bad_scale):
    kets = list(enumerate_level(module, 5))
    targets = list(enumerate_level(module, 4))
    rows = action_rows(module, gen, kets, targets, good_scale)
    for ket, row in zip(kets, rows):
        image = act(gen, Vector(module, {ket: 1}))
        assert all(type(c) is int for _, c in row)
        assert {targets[t]: Fraction(c, good_scale) for t, c in row} == image.terms
    with pytest.raises(ValueError, match=f"scale {bad_scale} leaves {gen}"):
        action_rows(module, gen, kets, targets, bad_scale)
