import inspect
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z2rep import verma
from z2rep.graded_algebra import (AD_WEIGHT, DEGREE, GENERATORS, STRUCTURE_TABLE, degree_add,
                                  degree_dot)
from z2rep.singular_solver import find_singular, sectors_for_level
from z2rep.submodule_quotient import classify_module
from reference import act_word, ket_action, zero_vector
from z2rep.verma import (ConsistencyError, Ket, VermaModule, Vector, act, act_element,
                         action_rows, enumerate_level, representation_residual,
                         vector_to_json)
from z2rep.graded_algebra import Element, mutated_table

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
    kets = verma._sector_kets("Mr", 3, (0, 1))
    assert list(kets) == sorted(kets, key=lambda k: (k.m, k.k, k.alpha, k.beta or 0))
    for mod in (MR, MRL):
        for n in range(13):
            kets = enumerate_level(mod, n)
            assert list(kets) == sorted(kets, key=lambda k: (k.m, k.k, k.alpha, k.beta or 0))
            for sector in ((0, 0), (0, 1), (1, 0), (1, 1)):
                assert verma._sector_kets(mod.kind, n, sector) == tuple(
                    k for k in kets if mod.degree(k) == sector)


def test_zero_vector():
    assert zero_vector(MR).is_zero()
    assert (MR.basis_vector(0, 1, 0) - MR.basis_vector(0, 1, 0)).is_zero()


@pytest.mark.parametrize("module, gen, good_scale, bad_scale", [
    (VermaModule("Mr", Fraction(1, 3)), "am", 3, 1),
    (VermaModule("Mr", Fraction(-5, 4)), "atm", 4, 1),
    (VermaModule("MrLambda", Fraction(2, 7), Fraction(-5, 3)), "am", 21, 7),
    (VermaModule("MrLambda", Fraction(2, 7), Fraction(-5, 3)), "atm", 21, 3),
    # den(r) and den(lambda) share a factor: the coefficients are 2r = 5/3
    # and 2*lambda = -7/2 plus integers, so 24 = den(r) * den(lambda) and
    # their lcm 6 clear them, and 3 and 2 do not
    (VermaModule("MrLambda", Fraction(5, 6), Fraction(-7, 4)), "am", 24, 3),
    (VermaModule("MrLambda", Fraction(5, 6), Fraction(-7, 4)), "atm", 6, 2),
    (VermaModule("MrLambda", Fraction(-3), Fraction(-2)), "am", 1, None),
    (VermaModule("MrLambda", Fraction(-3), Fraction(-2)), "atm", 1, None),
])
def test_action_rows_scale_clears_denominators(module, gen, good_scale, bad_scale):
    kets = list(enumerate_level(module, 5))
    targets = list(enumerate_level(module, 4))
    rows = action_rows(module, gen, 5, range(len(kets)), good_scale)
    for ket, row in zip(kets, rows):
        image = act(gen, Vector(module, {ket: 1}))
        assert all(type(c) is int for c in row.values())
        assert {targets[t]: Fraction(c, good_scale) for t, c in row.items()} == image.terms
    if bad_scale is not None:
        with pytest.raises(ValueError, match=f"scale {bad_scale} leaves {gen}"):
            action_rows(module, gen, 5, range(len(kets)), bad_scale)


def test_lowering_assembly_reads_one_table_per_kind():
    # the action table does not depend on r or lambda: a second module of a
    # kind adds no entry to a sweep
    verma._action_table.cache_clear()
    generic = {"Mr": [(Fraction(1, 3),), (Fraction(-7, 5),)],
               "MrLambda": [(Fraction(1, 3), Fraction(5, 7)), (Fraction(-7, 5), Fraction(2))]}
    for kind, params in generic.items():
        sizes = []
        for args in params:
            module = VermaModule(kind, *args)
            for n in range(1, 13):
                for sector in sectors_for_level(n):
                    assert not find_singular(module, n, sector).nullspace
            sizes.append(verma._action_table.cache_info().currsize)
        assert 0 < sizes[1] == sizes[0]


def test_raising_assembly_reads_one_table_per_kind():
    # a second single-order MrLambda with the same M and another r adds no
    # entry to the action table that W is raised from
    verma._action_table.cache_clear()
    sizes = []
    for r in (Fraction(1, 3), Fraction(-5, 7)):
        verdict = classify_module(VermaModule("MrLambda", r, (r + 4) ** 2))
        assert (verdict.case, verdict.M) == ("iv", 2)
        sizes.append(verma._action_table.cache_info().currsize)
    assert 0 < sizes[1] == sizes[0]


def test_filling_the_odd_table_calls_no_public_function(monkeypatch):
    # the table outlives a module, so its first fill must not show up as
    # extra calls of public engine functions to a per-call tracer, which
    # wraps every public z2rep function that verma binds, imported ones too
    def refuse(*args, **kwargs):
        raise AssertionError("public function called while filling the table")

    for name, obj in list(vars(verma).items()):
        if inspect.isfunction(obj) and obj.__module__.startswith("z2rep.") \
                and not name.startswith("_"):
            monkeypatch.setattr(verma, name, refuse)
    assert verma.format_rational is refuse
    verma._action_table.cache_clear()
    for kind in ("Mr", "MrLambda"):
        for n in range(8):
            for gen in GENERATORS:
                verma._action_table(kind, gen, n)


def test_action_table_is_the_reference_action():
    # the one table, read back onto kets, is the Ket-form oracle of
    # tests/reference.py (odd formulas ket by ket, even generators composed
    # ket by ket) on every ket of levels 0..40, for all ten generators
    for kind in ("Mr", "MrLambda"):
        for n in range(41):
            kets = verma._level_kets(kind, n)
            for gen in GENERATORS:
                targets = verma._level_kets(kind, n + AD_WEIGHT[gen])
                rows = verma._action_table(kind, gen, n)
                assert len(rows) == len(kets)
                for ket, row in zip(kets, rows):
                    image = {targets[t]: tuple(coeffs) for t, *coeffs in row}
                    assert len(image) == len(row)
                    assert image == ket_action(kind, gen, ket), (kind, gen, ket)


def test_raising_table_refuses_entries_that_are_not_integers(monkeypatch):
    # a bracket coefficient that 2c does not divide in the composed Ltp, and
    # an odd coefficient of ap that is a half or has an r or lambda part,
    # raise instead of filling the table
    g1, g2, s, c = verma._EVEN_FROM_ODD["Ltp"]
    monkeypatch.setitem(verma._EVEN_FROM_ODD, "Ltp", (g1, g2, s, 3 * c))
    verma._action_table.cache_clear()
    try:
        with pytest.raises(ConsistencyError, match="Ltp on Mr level 0 is not integer halves"):
            verma._action_table("Mr", "Ltp", 0)
        for entry in ((0, 1, 0, 0), (0, 2, 2, 0), (0, 2, 0, 2)):
            verma._action_table.cache_clear()
            monkeypatch.setattr(verma, "_odd_rows", lambda kind, gen, n: ((entry,),))
            with pytest.raises(ConsistencyError, match="ap on Mr level 0 is not an integer"):
                verma._action_table("Mr", "ap", 0)
    finally:
        verma._action_table.cache_clear()


def test_composition_refuses_parts_that_do_not_cancel(monkeypatch):
    # one more r in every coefficient of am leaves an r**2 part in
    # Lm = am**2 / 2, which the composition refuses
    real = verma._odd_rows

    def skewed(kind, gen, n):
        rows = real(kind, gen, n)
        if gen == "am":
            return tuple(tuple((t, c1, cr + 2, cl) for t, c1, cr, cl in row) for row in rows)
        return rows

    verma._action_table.cache_clear()
    monkeypatch.setattr(verma, "_odd_rows", skewed)
    try:
        with pytest.raises(ConsistencyError, match="Lm on Mr level 2 is not integer halves"):
            verma._action_table("Mr", "Lm", 2)
    finally:
        verma._action_table.cache_clear()


def test_action_table_fills_on_levels_0_to_40():
    # every entry is (c1 + cr*r + cl*lambda)/2 in integers, else the fill
    # raises ConsistencyError
    verma._action_table.cache_clear()
    for kind in ("Mr", "MrLambda"):
        for n in range(41):
            for gen in GENERATORS:
                for row in verma._action_table(kind, gen, n):
                    for _, *coeffs in row:
                        assert all(type(c) is int for c in coeffs) and any(coeffs)


def _poly_apply(kind, gen, vec):
    """gen on {(ket, (i, j)): n}, n the integer coefficient of r**i lambda**j,
    with every table coefficient doubled."""
    out = {}
    for (ket, (i, j)), n in vec.items():
        for tket, coeffs in ket_action(kind, gen, ket).items():
            for (di, dj), c in zip(((0, 0), (1, 0), (0, 1)), coeffs):
                key = (tket, (i + di, j + dj))
                out[key] = out.get(key, 0) + c * n
    return out


def test_representation_holds_for_every_r_and_lambda():
    # X Y - s Y X - [[X, Y]] = 0 on every ket of levels 0..8, all 100
    # ordered pairs, as polynomials in r and lambda read off the oracle: the
    # products carry the doubling twice, so the bracket term is doubled once
    for kind in ("Mr", "MrLambda"):
        for n in range(9):
            for ket in verma._level_kets(kind, n):
                once = {g: _poly_apply(kind, g, {(ket, (0, 0)): 1}) for g in GENERATORS}
                for x in GENERATORS:
                    for y in GENERATORS:
                        s = -1 if degree_dot(DEGREE[x], DEGREE[y]) else 1
                        terms = [(1, _poly_apply(kind, x, once[y])),
                                 (-s, _poly_apply(kind, y, once[x]))]
                        terms += [(-2 * c, once[g])
                                  for g, c in STRUCTURE_TABLE[(x, y)].terms.items()]
                        residual = {}
                        for factor, image in terms:
                            for key, c in image.items():
                                residual[key] = residual.get(key, 0) + factor * c
                        assert not any(residual.values()), (kind, ket, x, y)


@pytest.mark.parametrize("module", [MR, MRL], ids=["Mr", "MrLambda"])
def test_ap_leading_term_is_the_shifted_ket(module):
    # the leading-term lemma behind building W by leading terms: the lowest
    # ket of ap(alpha, k, m[, beta]) is (alpha, k+1, m[, beta]) with
    # coefficient 1 (stored doubled), for every r and lambda
    for n in range(31):
        shifted = []
        targets = enumerate_level(module, n + 1)
        for ket, row in zip(enumerate_level(module, n), verma._action_table(module.kind, "ap", n)):
            t, *coeffs = min(row)
            assert (targets[t], *coeffs) == (ket._replace(k=ket.k + 1), 2, 0, 0)
            shifted.append(targets[t])
        # the shift is an order-preserving injection of level n into n+1
        hit = set(shifted)
        assert shifted == [ket for ket in enumerate_level(module, n + 1) if ket in hit]


def _ref_act(module, gen, terms):
    """gen on {ket: Fraction} term by term in Fractions, each coefficient
    (c1 + cr*r + cl*lambda) / 2 read off the oracle `ket_action`; zeros dropped."""
    lam = module.lam if module.lam is not None else Fraction(0)
    out = {}
    for ket, c in terms.items():
        for tket, (c1, cr, cl) in ket_action(module.kind, gen, ket).items():
            out[tket] = out.get(tket, Fraction(0)) + c * (c1 + cr * module.r + cl * lam) / 2
    return {ket: c for ket, c in out.items() if c}


def _ref_combine(parts):
    """sum of scalar * {ket: c} over (scalar, terms) parts; zeros dropped."""
    out = {}
    for s, terms in parts:
        for ket, c in terms.items():
            out[ket] = out.get(ket, Fraction(0)) + s * c
    return {ket: c for ket, c in out.items() if c}


# mixed denominators: the integer accumulator must bring each one to the lcm
_MIXED = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def _vectors(draw):
    kind = draw(st.sampled_from(["Mr", "MrLambda"]))
    lam = draw(_MIXED.filter(bool)) if kind == "MrLambda" else None
    module = VermaModule(kind, draw(_MIXED), lam)
    kets = [ket for n in range(7) for ket in verma._level_kets(kind, n)]
    return Vector(module, draw(st.dictionaries(st.sampled_from(kets), _MIXED, max_size=6)))


@settings(max_examples=80, deadline=None)
@given(_vectors(), st.sampled_from(GENERATORS), st.sampled_from(GENERATORS),
       st.dictionaries(st.sampled_from(GENERATORS), _MIXED, max_size=4))
def test_integer_accumulator_matches_fraction_reference(vec, g1, g2, elem_terms):
    mod, v = vec.module, vec.terms
    image = act(g1, vec)
    assert image.terms == _ref_act(mod, g1, v)
    assert all(type(c) is Fraction for c in image.terms.values())
    elem = Element(elem_terms)
    assert act_element(elem, vec).terms == _ref_combine(
        [(c, _ref_act(mod, g, v)) for g, c in elem.terms.items()])
    sign = -1 if degree_dot(DEGREE[g1], DEGREE[g2]) else 1
    parts = [(1, _ref_act(mod, g1, _ref_act(mod, g2, v))),
             (-sign, _ref_act(mod, g2, _ref_act(mod, g1, v)))]
    parts += [(-c, _ref_act(mod, x, v)) for x, c in STRUCTURE_TABLE[(g1, g2)].terms.items()]
    assert representation_residual(g1, g2, vec).terms == _ref_combine(parts)


@pytest.mark.parametrize("module", [VermaModule("Mr", Fraction(-5, 3)),
                                    VermaModule("MrLambda", Fraction(2, 7), Fraction(-9, 4))],
                         ids=["Mr", "MrLambda"])
def test_integer_accumulator_on_zero_and_cancelling_vectors(module):
    # the zero vector has no denominators at all (their lcm is 1)
    zero = zero_vector(module)
    for g in GENERATORS:
        assert act(g, zero).is_zero()
        assert representation_residual(g, "am", zero).is_zero()
    assert act_element(STRUCTURE_TABLE[("ap", "am")], zero).is_zero()
    # am sends both kets to the target; weighted crosswise, that ket cancels
    beta = None if module.kind == "Mr" else 0
    a, b, target = Ket(0, 4, 0, beta), Ket(1, 1, 1, beta), Ket(0, 3, 0, beta)
    ca = _ref_act(module, "am", {a: Fraction(1)})[target]
    cb = _ref_act(module, "am", {b: Fraction(1)})[target]
    vec = Vector(module, {a: cb / 6, b: -ca / 6})
    image = act("am", vec)
    assert target not in image.terms and not image.is_zero()
    assert image.terms == _ref_act(module, "am", vec.terms)


@pytest.mark.parametrize("module", [VermaModule("Mr", Fraction(-5, 3)),
                                    VermaModule("MrLambda", Fraction(2, 7), Fraction(-9, 4))],
                         ids=["Mr", "MrLambda"])
def test_residual_of_a_wrong_bracket_is_nonzero(module, monkeypatch):
    # with [[ap, am]] = 2/3 R in place of 2 R, the composites still give 2 R,
    # so the residual on the two affected pairs is 4/3 R v: nonzero, and over
    # a bracket denominator of 3
    table = mutated_table({("ap", "am"): Element({"R": Fraction(2, 3)})})
    monkeypatch.setattr(verma, "STRUCTURE_TABLE", table)
    kets = [ket for n in range(4) for ket in verma._level_kets(module.kind, n)]
    vec = Vector(module, {ket: Fraction(i + 1, 2 * i + 3) for i, ket in enumerate(kets)})
    v = vec.terms
    for g1 in GENERATORS:
        for g2 in GENERATORS:
            sign = -1 if degree_dot(DEGREE[g1], DEGREE[g2]) else 1
            parts = [(1, _ref_act(module, g1, _ref_act(module, g2, v))),
                     (-sign, _ref_act(module, g2, _ref_act(module, g1, v)))]
            parts += [(-c, _ref_act(module, x, v)) for x, c in table[(g1, g2)].terms.items()]
            residual = representation_residual(g1, g2, vec)
            assert residual.terms == _ref_combine(parts), (g1, g2)
            assert residual.is_zero() == ((g1, g2) not in (("ap", "am"), ("am", "ap")))


def test_vector_coefficients_are_nonzero_fractions():
    vec = Vector(MR, {Ket(0, 0, 0): 3, Ket(0, 1, 0): "1/2", Ket(1, 0, 0): 0,
                      Ket(0, 2, 0): Fraction(0), Ket(0, 0, 1): "0", Ket(1, 1, 0): 0.0})
    assert vec.terms == {Ket(0, 0, 0): Fraction(3), Ket(0, 1, 0): Fraction(1, 2)}
    assert all(type(c) is Fraction for c in vec.terms.values())
    assert (vec - vec).terms == {} and (vec + (-1) * vec).terms == {}
    assert (vec + MR.basis_vector(0, 0, 0)).terms == {Ket(0, 0, 0): Fraction(4),
                                                      Ket(0, 1, 0): Fraction(1, 2)}
