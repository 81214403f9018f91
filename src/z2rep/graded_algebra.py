"""The ten-generator Z2xZ2-graded colour superalgebra extending osp(1|2).

Generators: R, Rt (Cartan pair), Lp/Lm, Ltp/Ltm (weight +-2 raising/lowering),
ap/am (degree (0,1)), atp/atm (degree (1,0)).  The general Lie bracket on two
homogeneous elements is a commutator when the Z2 dot product of their degrees
is 0 and an anticommutator when it is 1.  The full table of structure
constants is stored explicitly for every ordered generator pair so that
antisymmetry is a checkable property rather than an assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rationals import format_rational

Degree = tuple[int, int]

GENERATORS: tuple[str, ...] = ("R", "Rt", "Lp", "Lm", "Ltp", "Ltm",
                               "ap", "am", "atp", "atm")

DEGREE: dict[str, Degree] = {
    "R": (0, 0), "Lp": (0, 0), "Lm": (0, 0),
    "ap": (0, 1), "am": (0, 1),
    "atp": (1, 0), "atm": (1, 0),
    "Rt": (1, 1), "Ltp": (1, 1), "Ltm": (1, 1),
}

# eigenvalue under ad R; fixes the triangular decomposition n- + h + n+
AD_WEIGHT: dict[str, int] = {
    "Lp": 2, "Ltp": 2, "ap": 1, "atp": 1, "R": 0, "Rt": 0,
    "am": -1, "atm": -1, "Lm": -2, "Ltm": -2,
}

SECTORS: tuple[Degree, ...] = ((0, 0), (0, 1), (1, 0), (1, 1))


def degree_add(a: Degree, b: Degree) -> Degree:
    return ((a[0] + b[0]) % 2, (a[1] + b[1]) % 2)


def degree_dot(a: Degree, b: Degree) -> int:
    return (a[0] * b[0] + a[1] * b[1]) % 2


class Element:
    """Finite rational linear combination of generators."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: dict[str, Fraction] = {}
        for g, c in (terms or {}).items():
            if g not in DEGREE:
                raise ValueError(f"unknown generator {g!r}")
            c = Fraction(c)
            if c:
                clean[g] = c
        self.terms = clean

    @classmethod
    def zero(cls) -> "Element":
        return cls()

    @classmethod
    def gen(cls, name: str, coeff=1) -> "Element":
        return cls({name: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def homogeneous_degree(self) -> Degree | None:
        """The common degree of all terms, or None if mixed or zero."""
        degs = {DEGREE[g] for g in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def sorted_terms(self) -> list[tuple[str, Fraction]]:
        order = {g: i for i, g in enumerate(GENERATORS)}
        return sorted(self.terms.items(), key=lambda it: order[it[0]])

    def __add__(self, other: "Element") -> "Element":
        out = dict(self.terms)
        for g, c in other.terms.items():
            out[g] = out.get(g, Fraction(0)) + c
        return Element(out)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-1) * other

    def __neg__(self) -> "Element":
        return (-1) * self

    def __rmul__(self, scalar) -> "Element":
        s = Fraction(scalar)
        return Element({g: s * c for g, c in self.terms.items()})

    __mul__ = __rmul__

    def __eq__(self, other) -> bool:
        return isinstance(other, Element) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = [f"{c}*{g}" for g, c in self.sorted_terms()]
        return " + ".join(parts).replace("+ -", "- ")


# Non-vanishing brackets, one orientation each; the reverse orientation is
# filled in from graded antisymmetry.  Diagonal anticommutators {X, X} are
# listed directly.
_BASE_RELATIONS: dict[tuple[str, str], dict[str, int]] = {
    ("R", "Lp"): {"Lp": 2}, ("R", "Lm"): {"Lm": -2},
    ("R", "Ltp"): {"Ltp": 2}, ("R", "Ltm"): {"Ltm": -2},
    ("R", "ap"): {"ap": 1}, ("R", "am"): {"am": -1},
    ("R", "atp"): {"atp": 1}, ("R", "atm"): {"atm": -1},
    ("Rt", "Lp"): {"Ltp": 2}, ("Rt", "Lm"): {"Ltm": -2},
    ("Rt", "Ltp"): {"Lp": 2}, ("Rt", "Ltm"): {"Lm": -2},
    ("Rt", "ap"): {"atp": 1}, ("Rt", "am"): {"atm": 1},
    ("Rt", "atp"): {"ap": 1}, ("Rt", "atm"): {"am": 1},
    ("Lp", "Lm"): {"R": -1},
    ("Lp", "Ltm"): {"Rt": -1}, ("Lm", "Ltp"): {"Rt": 1},
    ("Ltp", "Ltm"): {"R": -1},
    ("Lp", "atm"): {"atp": 1}, ("Lm", "atp"): {"atm": -1},
    ("Lp", "am"): {"ap": -1}, ("Lm", "ap"): {"am": 1},
    ("Ltp", "am"): {"atp": -1}, ("Ltm", "ap"): {"atm": -1},
    ("Ltp", "atm"): {"ap": 1}, ("Ltm", "atp"): {"am": 1},
    ("ap", "am"): {"R": 2},
    ("ap", "atm"): {"Rt": 2}, ("am", "atp"): {"Rt": -2},
    ("atm", "atp"): {"R": 2},
    ("ap", "atp"): {"Ltp": -4}, ("am", "atm"): {"Ltm": 4},
    ("ap", "ap"): {"Lp": 4}, ("am", "am"): {"Lm": 4},
    ("atp", "atp"): {"Lp": -4}, ("atm", "atm"): {"Lm": -4},
}

Table = dict[tuple[str, str], Element]


def _build_table() -> Table:
    table: Table = {(x, y): Element.zero() for x in GENERATORS for y in GENERATORS}
    for (x, y), terms in _BASE_RELATIONS.items():
        table[(x, y)] = Element(terms)
    for (x, y), _ in _BASE_RELATIONS.items():
        if x == y:
            continue
        # [[Y, X]] = -(-1)^{deg X . deg Y} [[X, Y]]
        sign = 1 if degree_dot(DEGREE[x], DEGREE[y]) else -1
        table[(y, x)] = sign * table[(x, y)]
    return table


STRUCTURE_TABLE: Table = _build_table()


def bracket(x: Element, y: Element, table: Table | None = None) -> Element:
    """General Lie bracket, extended bilinearly over the generator table."""
    tbl = STRUCTURE_TABLE if table is None else table
    out = Element.zero()
    for gx, cx in x.terms.items():
        for gy, cy in y.terms.items():
            out = out + (cx * cy) * tbl[(gx, gy)]
    return out


def bracket_gens(x: str, y: str, table: Table | None = None) -> Element:
    tbl = STRUCTURE_TABLE if table is None else table
    return tbl[(x, y)]


def mutated_table(overrides: dict[tuple[str, str], Element],
                  antisymmetrize: bool = True) -> Table:
    """Copy of the structure table with entries replaced (for failure-injection).

    With antisymmetrize=True the reverse orientation is kept consistent, so
    the damage shows up in the Jacobi identity rather than in antisymmetry.
    """
    table = dict(STRUCTURE_TABLE)
    for (x, y), elem in overrides.items():
        table[(x, y)] = elem
        if antisymmetrize and x != y:
            sign = 1 if degree_dot(DEGREE[x], DEGREE[y]) else -1
            table[(y, x)] = sign * elem
    return table


@dataclass
class AxiomReport:
    passed: bool
    antisymmetry_pairs: int
    degree_pairs: int
    jacobi_triples: int
    failure: dict | None = None

    def to_json(self) -> dict:
        out = {
            "passed": self.passed,
            "antisymmetry_pairs": self.antisymmetry_pairs,
            "degree_pairs": self.degree_pairs,
            "jacobi_triples": self.jacobi_triples,
        }
        if self.failure is not None:
            out["failure"] = self.failure
        return out


def verify_axioms(table: Table | None = None) -> AxiomReport:
    """Exhaustive check of graded antisymmetry, degree additivity and the
    graded Jacobi identity over all generator pairs/triples.

    Stops at the first counterexample and reports it.
    """
    tbl = STRUCTURE_TABLE if table is None else table
    anti = deg = jac = 0
    for x in GENERATORS:
        for y in GENERATORS:
            sign = 1 if degree_dot(DEGREE[x], DEGREE[y]) else -1
            residual = tbl[(x, y)] + (-sign) * tbl[(y, x)]
            # residual = [[X,Y]] + (-1)^{x.y} [[Y,X]]
            if not residual.is_zero():
                return AxiomReport(False, anti, deg, jac, {
                    "check": "antisymmetry", "generators": [x, y],
                    "residual": repr(residual)})
            anti += 1
    for x in GENERATORS:
        for y in GENERATORS:
            want = degree_add(DEGREE[x], DEGREE[y])
            bad = [g for g in tbl[(x, y)].terms if DEGREE[g] != want]
            if bad:
                return AxiomReport(False, anti, deg, jac, {
                    "check": "degree-additivity", "generators": [x, y],
                    "residual": repr(tbl[(x, y)])})
            deg += 1
    for x in GENERATORS:
        dx = DEGREE[x]
        ex = Element.gen(x)
        for y in GENERATORS:
            dy = DEGREE[y]
            ey = Element.gen(y)
            for z in GENERATORS:
                dz = DEGREE[z]
                ez = Element.gen(z)
                s1 = -1 if degree_dot(dx, dz) else 1
                s2 = -1 if degree_dot(dy, dx) else 1
                s3 = -1 if degree_dot(dz, dy) else 1
                residual = (s1 * bracket(ex, tbl[(y, z)], tbl)
                            + s2 * bracket(ey, tbl[(z, x)], tbl)
                            + s3 * bracket(ez, tbl[(x, y)], tbl))
                if not residual.is_zero():
                    return AxiomReport(False, anti, deg, jac, {
                        "check": "jacobi", "generators": [x, y, z],
                        "residual": repr(residual)})
                jac += 1
    return AxiomReport(True, anti, deg, jac)


def table_to_json(table: Table | None = None) -> list[dict]:
    """All 100 ordered pairs as {x, y, result: [{gen, coeff}]} rows."""
    tbl = STRUCTURE_TABLE if table is None else table
    rows = []
    for x in GENERATORS:
        for y in GENERATORS:
            rows.append({
                "x": x,
                "y": y,
                "result": [{"gen": g, "coeff": format_rational(c)}
                           for g, c in tbl[(x, y)].sorted_terms()],
            })
    return rows
