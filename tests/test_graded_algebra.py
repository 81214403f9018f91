from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from z2rep.graded_algebra import (AD_WEIGHT, DEGREE, GENERATORS, Element,
                                  STRUCTURE_TABLE, bracket,
                                  degree_add, degree_dot, mutated_table,
                                  table_to_json, verify_axioms)
from reference import homogeneous_degree


def el(name, coeff=1):
    return Element.gen(name, coeff)


def test_degree_add_examples():
    assert degree_add((1, 0), (1, 1)) == (0, 1)
    assert degree_add((0, 0), (1, 1)) == (1, 1)
    assert degree_add((1, 1), (1, 1)) == (0, 0)


def test_degree_dot_examples():
    assert degree_dot((1, 1), (1, 1)) == 0
    assert degree_dot((0, 1), (1, 1)) == 1
    assert degree_dot((0, 0), (1, 0)) == 0


def test_generator_degrees_and_weights():
    assert DEGREE["R"] == (0, 0) and DEGREE["Lp"] == (0, 0)
    assert DEGREE["ap"] == (0, 1) and DEGREE["atm"] == (1, 0)
    assert DEGREE["Rt"] == (1, 1) and DEGREE["Ltm"] == (1, 1)
    assert AD_WEIGHT["Ltp"] == 2 and AD_WEIGHT["am"] == -1
    # ad R weight is readable off the table itself
    for g in GENERATORS:
        expected = AD_WEIGHT[g] * el(g)
        assert STRUCTURE_TABLE[("R", g)] == expected


def test_bracket_examples():
    assert bracket(el("R"), el("Lp")) == 2 * el("Lp")
    assert bracket(el("ap"), el("am")) == 2 * el("R")
    assert bracket(el("R"), el("R")).is_zero()
    assert bracket(el("Lp"), el("Lm")) == -1 * el("R")


def test_bracket_anticommutator_symmetry():
    # odd-odd pairs anticommute, so both orderings agree
    assert STRUCTURE_TABLE[("ap", "atp")] == -1 * STRUCTURE_TABLE[("atp", "ap")]  # dot=0
    assert STRUCTURE_TABLE[("ap", "am")] == STRUCTURE_TABLE[("am", "ap")]  # dot=1


def test_structure_table_covers_all_pairs():
    assert len(STRUCTURE_TABLE) == 100
    for (x, y), entry in STRUCTURE_TABLE.items():
        want = degree_add(DEGREE[x], DEGREE[y])
        for g in entry.terms:
            assert DEGREE[g] == want


def test_verify_axioms_passes():
    report = verify_axioms()
    assert report.passed
    assert report.antisymmetry_pairs == 100
    assert report.degree_pairs == 100
    assert report.jacobi_triples == 1000
    assert report.failure is None


def test_verify_axioms_mutation_fails_jacobi():
    table = mutated_table({("R", "Lp"): el("Lp")})
    report = verify_axioms(table)
    assert not report.passed
    assert report.failure["check"] == "jacobi"
    x, y, z = report.failure["generators"]
    # the reported triple really violates the graded Jacobi identity
    s1 = -1 if degree_dot(DEGREE[x], DEGREE[z]) else 1
    s2 = -1 if degree_dot(DEGREE[y], DEGREE[x]) else 1
    s3 = -1 if degree_dot(DEGREE[z], DEGREE[y]) else 1
    residual = (s1 * bracket(el(x), table[(y, z)], table)
                + s2 * bracket(el(y), table[(z, x)], table)
                + s3 * bracket(el(z), table[(x, y)], table))
    assert not residual.is_zero()


def test_verify_axioms_mutation_without_antisymmetrize_fails_antisymmetry():
    table = {**STRUCTURE_TABLE, ("R", "Lp"): el("Lp")}
    report = verify_axioms(table)
    assert not report.passed
    assert report.failure["check"] == "antisymmetry"


rational = st.fractions(min_value=-10, max_value=10, max_denominator=12)
gen_name = st.sampled_from(GENERATORS)
element = st.dictionaries(gen_name, rational, max_size=4).map(Element)


def _reference_report(table):
    """verify_axioms(table).to_json(), written out with Element arithmetic
    and three bracket calls per Jacobi triple."""
    anti = deg = jac = 0
    for x in GENERATORS:
        for y in GENERATORS:
            sign = -1 if degree_dot(DEGREE[x], DEGREE[y]) else 1
            residual = table[(x, y)] + sign * table[(y, x)]
            if not residual.is_zero():
                return {"passed": False, "antisymmetry_pairs": anti,
                        "degree_pairs": deg, "jacobi_triples": jac, "failure": {
                            "check": "antisymmetry", "generators": [x, y],
                            "residual": repr(residual)}}
            anti += 1
    for x in GENERATORS:
        for y in GENERATORS:
            want = degree_add(DEGREE[x], DEGREE[y])
            if any(DEGREE[g] != want for g in table[(x, y)].terms):
                return {"passed": False, "antisymmetry_pairs": anti,
                        "degree_pairs": deg, "jacobi_triples": jac, "failure": {
                            "check": "degree-additivity", "generators": [x, y],
                            "residual": repr(table[(x, y)])}}
            deg += 1
    for x in GENERATORS:
        for y in GENERATORS:
            for z in GENERATORS:
                s1 = -1 if degree_dot(DEGREE[x], DEGREE[z]) else 1
                s2 = -1 if degree_dot(DEGREE[y], DEGREE[x]) else 1
                s3 = -1 if degree_dot(DEGREE[z], DEGREE[y]) else 1
                residual = (s1 * bracket(el(x), table[(y, z)], table)
                            + s2 * bracket(el(y), table[(z, x)], table)
                            + s3 * bracket(el(z), table[(x, y)], table))
                if not residual.is_zero():
                    return {"passed": False, "antisymmetry_pairs": anti,
                            "degree_pairs": deg, "jacobi_triples": jac, "failure": {
                                "check": "jacobi", "generators": [x, y, z],
                                "residual": repr(residual)}}
                jac += 1
    return {"passed": True, "antisymmetry_pairs": anti, "degree_pairs": deg,
            "jacobi_triples": jac}


@st.composite
def table_entry(draw):
    """One mutated entry ((x, y), value).  Most values are homogeneous of the
    degree the pair requires, so that most tables reach the Jacobi stage;
    some are of any degree, and some sit on a diagonal pair."""
    x = draw(gen_name)
    shape = draw(st.sampled_from(("graded",) * 6 + ("diagonal",) * 2 + ("any",) * 2))
    y = x if shape == "diagonal" else draw(gen_name)
    want = degree_add(DEGREE[x], DEGREE[y])
    names = gen_name if shape == "any" else st.sampled_from(
        [g for g in GENERATORS if DEGREE[g] == want])
    value = draw(st.dictionaries(names, rational, max_size=2).map(Element))
    return (x, y), value


@settings(max_examples=60, deadline=None)
@given(st.lists(table_entry(), max_size=2))
@example([])
def test_verify_axioms_matches_element_reference(entries):
    table = mutated_table(dict(entries))
    assert verify_axioms(table).to_json() == _reference_report(table)


@settings(max_examples=60, deadline=None)
@given(element, element, element)
def test_bracket_bilinear(x, xp, y):
    lhs = bracket(x + xp, y)
    rhs = bracket(x, y) + bracket(xp, y)
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(element, element, rational)
def test_bracket_scalar_linearity(x, y, c):
    assert bracket(c * x, y) == c * bracket(x, y)
    assert bracket(x, c * y) == c * bracket(x, y)


def test_homogeneous_degree_queries():
    assert homogeneous_degree(el("ap")) == (0, 1)
    assert homogeneous_degree(el("R") + el("Lp")) == (0, 0)
    assert homogeneous_degree(el("R") + el("ap")) is None
    assert homogeneous_degree(Element.zero()) is None


def test_table_json_schema_and_rationals():
    rows = table_to_json()
    assert len(rows) == 100
    by_pair = {(row["x"], row["y"]): row["result"] for row in rows}
    assert by_pair[("R", "Lp")] == [{"gen": "Lp", "coeff": "2/1"}]
    assert by_pair[("R", "Rt")] == []
    for row in rows:
        for term in row["result"]:
            num, den = term["coeff"].split("/")
            frac = Fraction(int(num), int(den))
            assert int(den) > 0
            assert Fraction(int(num), int(den)) == frac


def test_element_rejects_unknown_generator():
    with pytest.raises(ValueError):
        Element({"bogus": 1})


def test_element_coefficients_are_nonzero_fractions():
    elem = Element({"R": 3, "ap": "1/2", "am": 0, "Lp": Fraction(0), "Lm": "0", "Rt": 0.0})
    assert elem.terms == {"R": Fraction(3), "ap": Fraction(1, 2)}
    assert all(type(c) is Fraction for c in elem.terms.values())
    assert (elem - elem).terms == {}
