from fractions import Fraction
from math import comb

import pytest

from paper_routes import closed_form_family_kets, recurrence_solve, verify_rtilde_relations
from z2rep.singular_solver import (ConstraintError, applicable_closed_form,
                                   closed_form, find_singular, proportionality,
                                   sectors_for_level)
from z2rep.verma import Ket, VermaModule, Vector, act


def mr(r):
    return VermaModule("Mr", Fraction(r))


def mrl(r, lam):
    return VermaModule("MrLambda", Fraction(r), Fraction(lam))


def test_sectors_for_level():
    assert sectors_for_level(3) == ((0, 1), (1, 0))
    assert sectors_for_level(4) == ((0, 0), (1, 1))


def test_closed_form_examples():
    mod = mr(-2)
    assert closed_form(mod, "chi01", 1) == \
        mod.basis_vector(0, 3, 0) - 2 * mod.basis_vector(1, 0, 1)
    mod0 = mr(0)
    assert closed_form(mod0, "chi11", 0) == \
        -2 * mod0.basis_vector(0, 0, 1) + mod0.basis_vector(1, 1, 0)
    ml = mrl(1, 1)
    assert closed_form(ml, "chi10", 0) == \
        ml.basis_vector(0, 1, 0, 1) + ml.basis_vector(1, 0, 0, 0)


def test_closed_form_preconditions():
    with pytest.raises(ConstraintError):
        closed_form(mr(-2), "chi01", 0)  # r + 0 != 0
    with pytest.raises(ConstraintError):
        closed_form(mrl(1, 2), "chi01", 0)  # 1^2 != 2
    with pytest.raises(ConstraintError):
        closed_form(mrl(1, 1), "chi11", 0)  # no (1,1) form in this family


def test_closed_forms_are_singular():
    for M in range(4):
        mod = mr(-2 * M)
        for which in ("chi01", "chi10", "chi11"):
            chi = closed_form(mod, which, M)
            for gen in ("am", "atm", "Lm", "Ltm"):
                assert act(gen, chi).is_zero()
    for M in range(3):
        mod = mrl(Fraction(1, 3), (Fraction(1, 3) + 2 * M) ** 2)
        for which in ("chi01", "chi10"):
            chi = closed_form(mod, which, M)
            for gen in ("am", "atm", "Lm", "Ltm"):
                assert act(gen, chi).is_zero()


def test_closed_forms_are_weight_vectors():
    for M in range(4):
        mod = mr(-2 * M)
        chi = closed_form(mod, "chi01", M)
        assert act("R", chi) == (mod.r + 2 * M + 1) * chi


def test_find_singular_examples():
    rep = find_singular(mr(0), 1, (0, 1))
    assert rep.nullspace == [mr(0).basis_vector(0, 1, 0)]
    assert rep.closed_form_match == "exact"

    rep = find_singular(mr(-2), 3, (0, 1))
    mod = mr(-2)
    assert rep.nullspace == [mod.basis_vector(0, 3, 0) - 2 * mod.basis_vector(1, 0, 1)]
    assert rep.closed_form_match == "exact"

    mod0 = mr(0)
    rep = find_singular(mod0, 2, (1, 1))
    assert rep.nullspace == [mod0.basis_vector(1, 1, 0) - 2 * mod0.basis_vector(0, 0, 1)]
    assert rep.closed_form_match == "exact"

    rep = find_singular(mod0, 2, (0, 0))
    assert rep.nullspace == []
    assert rep.closed_form_match == "no-closed-form"

    ml = mrl(1, 1)
    rep = find_singular(ml, 1, (0, 1))
    assert rep.nullspace == [ml.basis_vector(0, 1, 0, 0) + ml.basis_vector(1, 0, 0, 1)]
    assert rep.closed_form_match == "exact"


def test_find_singular_empty_for_generic_r():
    mod = mr(Fraction(1, 2))
    for n in (1, 3, 5, 7):
        for sector in sectors_for_level(n):
            assert find_singular(mod, n, sector).nullspace == []


def test_find_singular_sector_validation():
    with pytest.raises(ValueError):
        find_singular(mr(0), 1, (0, 0))
    with pytest.raises(ValueError):
        find_singular(mr(0), 2, (1, 0))
    with pytest.raises(ValueError):
        find_singular(mr(0), 0, (0, 0))


def test_nullspace_vectors_annihilated_by_all_lowering():
    mod = mr(-4)
    for level, sector in ((5, (0, 1)), (5, (1, 0)), (10, (1, 1))):
        rep = find_singular(mod, level, sector)
        assert len(rep.nullspace) == 1
        for gen in ("am", "atm", "Lm", "Ltm"):
            assert act(gen, rep.nullspace[0]).is_zero()


def test_applicable_closed_form_map():
    assert applicable_closed_form(mr(-2), 3, (0, 1)) == ("chi01", 1)
    assert applicable_closed_form(mr(-2), 3, (1, 0)) == ("chi10", 1)
    assert applicable_closed_form(mr(-2), 6, (1, 1)) == ("chi11", 1)
    assert applicable_closed_form(mr(-2), 6, (0, 0)) is None
    assert applicable_closed_form(mr(-2), 4, (1, 1)) is None
    assert applicable_closed_form(mr(1), 3, (0, 1)) is None
    assert applicable_closed_form(mrl(1, 1), 1, (0, 1)) == ("chi01", 0)
    assert applicable_closed_form(mrl(1, 1), 2, (1, 1)) is None


def test_scalar_multiple_match_for_mrl_chi10():
    # normalized null vector differs from the printed combination by 1/(r+2M)
    ml = mrl(2, 4)  # M=0, r+2M = 2
    rep = find_singular(ml, 1, (1, 0))
    assert rep.closed_form_match == "scalar-multiple"
    chi = closed_form(ml, "chi10", 0)
    assert proportionality(chi, rep.nullspace[0]) == 2


def test_rtilde_relations_mr():
    for M in range(4):
        checks = verify_rtilde_relations(mr(-2 * M), M)
        for check in checks:
            assert check.matches
            if check.which in ("chi01", "chi10"):
                assert check.stated == 2 * M + 1
            else:
                assert check.stated == 0


def test_rtilde_relations_mrl_reports_both():
    r = Fraction(3, 5)
    for M in range(3):
        lam = (r + 2 * M) ** 2
        checks = verify_rtilde_relations(mrl(r, lam), M)
        for check in checks:
            assert check.stated == 1 - r
            assert check.computed is not None  # the image is proportional


def test_proportionality():
    mod = mr(0)
    v = mod.basis_vector(0, 1, 0)
    assert proportionality(3 * v, v) == 3
    assert proportionality(Vector(mod, {}), v) == 0
    w = mod.basis_vector(1, 0, 0)
    assert proportionality(v + w, v) is None
    with pytest.raises(ValueError):
        proportionality(v, Vector(mod, {}))


def coefficient_lists(which, M, module):
    """Extract named coefficient families from the closed-form vector."""
    source = {"mu-nu": "chi01", "alpha-beta": "chi10",
              "gamma-delta": "chi11", "mu-nu-lambda": "chi01"}[which]
    chi = closed_form(module, source, M)
    return {fam: [chi.coeff(k) for k in kets]
            for fam, kets in closed_form_family_kets(which, M).items()}


def same_up_to_scale(sol, ref):
    flat_sol = [x for fam in sorted(sol) for x in sol[fam]]
    flat_ref = [x for fam in sorted(ref) for x in ref[fam]]
    pairs = [(a, b) for a, b in zip(flat_sol, flat_ref) if a or b]
    if not pairs:
        return True
    if any((a == 0) != (b == 0) for a, b in pairs):
        return False
    scale = pairs[0][1] / pairs[0][0]
    return all(b == scale * a for a, b in pairs)


def test_recurrence_examples():
    sols = recurrence_solve("mu-nu", 1, -2)
    assert sols == [{"mu": [Fraction(1)], "nu": [Fraction(-2)]}]
    assert recurrence_solve("mu-nu", 1, 0) == []
    for M in range(1, 5):
        assert recurrence_solve("rho-sigma", M, Fraction(7, 3)) == []
        assert recurrence_solve("rho-sigma", M, -2 * M) == []


def test_recurrence_matches_closed_forms():
    for M in range(4):
        mod = mr(-2 * M)
        for which in ("mu-nu", "alpha-beta"):
            sols = recurrence_solve(which, M, -2 * M)
            assert len(sols) == 1
            assert same_up_to_scale(sols[0], coefficient_lists(which, M, mod))
        # (1,1)-sector system lives at even level 2*(2M+1)
        sols = recurrence_solve("gamma-delta", 2 * M + 1, -2 * M)
        assert len(sols) == 1
        assert same_up_to_scale(sols[0], coefficient_lists("gamma-delta", M, mod))
    r = Fraction(1, 3)
    for M in range(4):
        lam = (r + 2 * M) ** 2
        sols = recurrence_solve("mu-nu-lambda", M, r, lam)
        assert len(sols) == 1
        ref = coefficient_lists("mu-nu-lambda", M, mrl(r, lam))
        assert same_up_to_scale(sols[0], ref)


def test_gamma_delta_zero_for_even_half_level():
    for half in (2, 4, 6):
        assert recurrence_solve("gamma-delta", half, Fraction(5, 7)) == []
        assert recurrence_solve("gamma-delta", half, -(half - 1)) == []


def test_mu_nu_lambda_zero_off_constraint():
    assert recurrence_solve("mu-nu-lambda", 2, Fraction(1), Fraction(3)) == []


def test_find_singular_populates_rtilde():
    rep = find_singular(mr(-2), 3, (0, 1))
    assert rep.rtilde.computed == 3 and rep.rtilde.stated == 3
    rep = find_singular(mr(-2), 6, (1, 1))
    assert rep.rtilde.computed == 0 and rep.rtilde.stated == 0
    rep = find_singular(mrl(1, 1), 1, (1, 0))
    assert rep.rtilde.stated == 0  # 1 - r with r = 1


def test_report_json_schema():
    rep = find_singular(mr(-2), 3, (0, 1))
    data = rep.to_json()
    assert data["kind"] == "Mr" and data["level"] == 3
    assert data["sector"] == [0, 1]
    assert data["closed_form_match"] == "exact"
    assert data["rtilde"] == {"computed": "3/1", "stated": "3/1"}
    assert data["nullspace"][0]["terms"][0]["coeff"] == "1/1"


def test_unknown_inputs_rejected():
    with pytest.raises(ValueError):
        closed_form(mr(0), "chi99", 0)
    with pytest.raises(ValueError):
        recurrence_solve("bogus", 1, 0)
    with pytest.raises(ValueError):
        recurrence_solve("mu-nu-lambda", 1, 0)  # lambda missing


# --- differential check against the closed forms as first written -----------
# _first_closed_form and _first_prediction are closed_form and
# applicable_closed_form as they were written before the orders and the ket
# layouts each got one home; the engine must agree with them exactly.

def _first_closed_form(module, which, M):
    if M < 0:
        raise ValueError("M must be nonnegative")
    r = module.r
    if module.kind == "Mr":
        if r + 2 * M != 0:
            raise ConstraintError("r + 2M != 0")
    else:
        if which == "chi11":
            raise ConstraintError("no (1,1)-sector closed form exists for MrLambda")
        if (r + 2 * M) ** 2 != module.lam:
            raise ConstraintError("(r + 2M)^2 != lambda")
    terms = {}
    if module.kind == "Mr":
        if which == "chi01":
            for j in range(M // 2 + 1):
                terms[Ket(0, 2 * (M - 2 * j) + 1, 2 * j)] = Fraction(4 ** j * comb(M, 2 * j))
            for j in range((M - 1) // 2 + 1):
                terms[Ket(1, 2 * (M - 2 * j - 1), 2 * j + 1)] = \
                    Fraction(-2 * 4 ** j * comb(M, 2 * j + 1))
        elif which == "chi10":
            for j in range((M - 1) // 2 + 1):
                terms[Ket(0, 2 * (M - 2 * j - 1) + 1, 2 * j + 1)] = \
                    Fraction(-2 * 4 ** j * comb(M, 2 * j + 1))
            for j in range(M // 2 + 1):
                terms[Ket(1, 2 * (M - 2 * j), 2 * j)] = Fraction(4 ** j * comb(M, 2 * j))
        elif which == "chi11":
            for j in range(M + 1):
                w = Fraction((-4) ** j * comb(M, j))
                terms[Ket(0, 4 * (M - j), 2 * j + 1)] = -2 * w
                terms[Ket(1, 4 * (M - j) + 1, 2 * j)] = w
        else:
            raise ValueError(f"unknown closed form {which!r}")
    else:
        s = r + 2 * M
        for j in range(M + 1):
            w = Fraction((-2) ** j * comb(M, j))
            if which == "chi01":
                terms[Ket(0, 2 * (M - j) + 1, j, j % 2)] = w * s ** ((j + 1) % 2)
                terms[Ket(1, 2 * (M - j), j, (j + 1) % 2)] = w * s ** (j % 2)
            elif which == "chi10":
                terms[Ket(0, 2 * (M - j) + 1, j, (j + 1) % 2)] = w * s ** (j % 2)
                terms[Ket(1, 2 * (M - j), j, j % 2)] = w * s ** ((j + 1) % 2)
            else:
                raise ValueError(f"unknown closed form {which!r}")
    return Vector(module, terms)


def _first_prediction(module, level, sector):
    if level % 2 == 1:
        M = (level - 1) // 2
        ok = (module.r + 2 * M == 0 if module.kind == "Mr"
              else (module.r + 2 * M) ** 2 == module.lam)
        if ok and sector == (0, 1):
            return "chi01", M
        if ok and sector == (1, 0):
            return "chi10", M
        return None
    if module.kind == "Mr" and sector == (1, 1) and level % 4 == 2:
        M = (level - 2) // 4
        if module.r + 2 * M == 0:
            return "chi11", M
    return None


NON_INTEGER_R = (Fraction(1, 3), Fraction(-7, 2), Fraction(5, 4), Fraction(-9, 5))


def _singular_modules():
    """(module, M) for Mr at M = 0..16, MrLambda at M = 0..12 and both orders
    of r = -5, lambda = 9."""
    out = [(mr(-2 * M), M) for M in range(17)]
    out += [(mrl(r, (r + 2 * M) ** 2), M) for r in NON_INTEGER_R for M in range(13)]
    out += [(mrl(-5, 9), 1), (mrl(-5, 9), 4)]
    return out


def _call(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


def test_closed_forms_match_the_first_written_ones():
    from z2rep.singular_solver import CLOSED_FORMS
    from z2rep.verma import sector_kets
    for module, M in _singular_modules():
        forms = ("chi01", "chi10", "chi11") if module.kind == "Mr" else ("chi01", "chi10")
        for which in forms:
            new, old = closed_form(module, which, M), _first_closed_form(module, which, M)
            assert new == old and not new.is_zero(), (module, which, M)
            multiple, sector, _ = CLOSED_FORMS[which]
            assert set(old.terms) == set(sector_kets(module, multiple * (2 * M + 1), sector))


def test_closed_form_errors_match_the_first_written_ones():
    modules = [m for m, _ in _singular_modules()]
    modules += [mr(Fraction(1, 3)), mr(3), mr(-3), mrl(Fraction(1, 3), 2), mrl(0, -4)]
    for module in modules:
        for which in ("chi01", "chi10", "chi11", "chi99"):
            for M in range(-1, 18):
                new = _call(closed_form, module, which, M)
                old = _call(_first_closed_form, module, which, M)
                assert new == old, (module, which, M)


def test_predictions_match_the_first_written_rule():
    modules = [m for m, _ in _singular_modules()]
    modules += [mr(Fraction(1, 3)), mr(3), mr(-3), mrl(Fraction(1, 3), 2), mrl(0, -4)]
    sectors = ((0, 0), (0, 1), (1, 0), (1, 1))
    for module in modules:
        for level in range(1, 41):
            for sector in sectors:
                assert (applicable_closed_form(module, level, sector)
                        == _first_prediction(module, level, sector)), (module, level, sector)


def test_singular_orders_are_solved_in_one_place():
    from z2rep import singular_solver, submodule_quotient
    assert (submodule_quotient.detect_singular_orders
            is singular_solver.detect_singular_orders)
    assert singular_solver.detect_singular_orders.__module__ == "z2rep.singular_solver"
