"""Singular vectors of the Verma modules.

A singular vector is a nonzero weight vector of positive level annihilated by
both lowering generators am and atm (annihilation by Lm and Ltm follows).
The existence condition, r + 2M = 0 (Mr) or (r + 2M)^2 = lambda (MrLambda),
is solved once per module (`VermaModule._orders`) and read through
`detect_singular_orders`: the closed forms, the predictions of `find_singular`
and the submodule W all read their orders from it.  Two routes run in the
engine, and `find_singular` compares them at every level and sector:

* `find_singular` — the null space of (am, atm) on one degree sector of one
  level, by fraction-free elimination in `lowering_kernel`, which the
  quotient check of `submodule_quotient` also calls, modulo a submodule W;
* `closed_form` — evaluate the explicit binomial-weighted combinations that
  exist at level 2M+1 (odd sectors) and at level 2(2M+1) in the (1,1) sector
  of the one-dimensional family.  `CLOSED_FORMS` is the one statement of
  where each form lives; its two coefficient families are the alpha = 0 and
  the alpha = 1 kets of that sector, in canonical order, and
  `applicable_closed_form` reads the same table.

The third route re-derives the closed forms instead of evaluating them: it
solves the raw linear recurrences that the annihilation conditions impose on
the ansatz coefficients, as an exact linear system.  No command runs it; it is
a cross-check in tests/paper_routes.py (`recurrence_solve`), which reads its
coefficient families off `CLOSED_FORMS` through `_families`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import linalg
from .graded_algebra import Degree
from .rationals import format_rational
from .verma import (Ket, VermaModule, Vector, _level_columns, _sector_kets, act,
                    lowering_rows, vector_to_json)

ODD_SECTORS: tuple[Degree, ...] = ((0, 1), (1, 0))
EVEN_SECTORS: tuple[Degree, ...] = ((0, 0), (1, 1))


class ConstraintError(ValueError):
    """A closed form was requested outside its existence constraint."""


def sectors_for_level(n: int) -> tuple[Degree, ...]:
    return EVEN_SECTORS if n % 2 == 0 else ODD_SECTORS


def detect_singular_orders(module: VermaModule) -> list[int]:
    """Every M >= 0 whose existence constraint the module parameters meet, ascending.

    The singular pair chi01, chi10 sits at level 2M+1 exactly when r + 2M = 0
    (Mr) or (r + 2M)^2 = lambda (MrLambda).  Solved in closed form: M = -r/2
    for Mr, and M = (+-sqrt(lambda) - r)/2 for MrLambda, where the square
    root is rational only when the numerator and the denominator of lambda
    are both perfect squares.  Kept on the module; a new list per call.
    """
    return list(module._orders)


# where each closed form of order M lives, stated once: level (2M+1) * multiple,
# one Z2xZ2 sector, and the module kinds that have it
CLOSED_FORMS = {"chi01": (1, (0, 1), ("Mr", "MrLambda")),
                "chi10": (1, (1, 0), ("Mr", "MrLambda")),
                "chi11": (2, (1, 1), ("Mr",))}


def _families(kind: str, which: str, M: int) -> tuple[list[Ket], list[Ket]]:
    """The alpha = 0 and the alpha = 1 kets of the sector a closed form fills."""
    multiple, sector, _ = CLOSED_FORMS[which]
    kets = _sector_kets(kind, multiple * (2 * M + 1), sector)
    return [k for k in kets if k.alpha == 0], [k for k in kets if k.alpha == 1]


def closed_form(module: VermaModule, which: str, M: int) -> Vector:
    """Explicit singular vector chi01/chi10 (level 2M+1) or chi11 (level 2(2M+1)).

    Its first coefficient list sits on the alpha = 0 kets of its sector, the
    second on the alpha = 1 kets.  chi01 and chi10 carry the same two lists
    on swapped families: binomials of even and of odd index for Mr, and
    binomials weighted by s = r + 2M on alternate terms for MrLambda.
    """
    if M < 0:
        raise ValueError("M must be nonnegative")
    if which in CLOSED_FORMS and module.kind not in CLOSED_FORMS[which][2]:
        raise ConstraintError(f"no {which} closed form exists for {module.kind}")
    if M not in detect_singular_orders(module):
        raise ConstraintError(f"constraint violated: the module has no singular "
                              f"pair of order {M}")
    if which not in CLOSED_FORMS:
        raise ValueError(f"unknown closed form {which!r}")
    if which == "chi11":
        w = [Fraction((-4) ** j * comb(M, j)) for j in range(M + 1)]
        lists = [[-2 * x for x in w], w]
    elif module.kind == "Mr":
        lists = [[Fraction(4 ** j * comb(M, 2 * j)) for j in range(M // 2 + 1)],
                 [Fraction(-2 * 4 ** j * comb(M, 2 * j + 1))
                  for j in range((M - 1) // 2 + 1)]]
    else:
        s = module.r + 2 * M
        w = [Fraction((-2) ** j * comb(M, j)) for j in range(M + 1)]
        lists = [[x * s ** ((j + 1) % 2) for j, x in enumerate(w)],
                 [x * s ** (j % 2) for j, x in enumerate(w)]]
    if which == "chi10":
        lists.reverse()
    families = _families(module.kind, which, M)
    return Vector(module, {ket: c for kets, coeffs in zip(families, lists)
                           for ket, c in zip(kets, coeffs)})


def applicable_closed_form(module: VermaModule, level: int,
                           sector: Degree) -> tuple[str, int] | None:
    """Which closed form (if any) the theory predicts at this level and sector."""
    for which, (multiple, place, kinds) in CLOSED_FORMS.items():
        odd, rest = divmod(level, multiple)
        if place == sector and module.kind in kinds and rest == 0 and odd % 2 == 1:
            M = odd // 2
            return (which, M) if M in detect_singular_orders(module) else None
    return None


def proportionality(w: Vector, v: Vector) -> Fraction | None:
    """c with w = c*v, or None if w is not a multiple of v (v nonzero)."""
    if v.is_zero():
        raise ValueError("reference vector is zero")
    if w.is_zero():
        return Fraction(0)
    lead = v.sorted_items()[0][0]
    if lead not in w.terms:
        return None
    c = w.coeff(lead) / v.coeff(lead)
    return c if (w - c * v).is_zero() else None


@dataclass
class RtildeCheck:
    which: str
    computed: Fraction | None  # None: image not proportional at all
    stated: Fraction

    @property
    def matches(self) -> bool:
        return self.computed == self.stated


@dataclass
class SingularReport:
    module: VermaModule
    level: int
    sector: Degree
    nullspace: list[Vector]
    closed_form_match: str  # exact | scalar-multiple | mismatch | no-closed-form
    rtilde: RtildeCheck | None = None  # None unless a closed form matched

    def to_json(self) -> dict:
        out = {
            "kind": self.module.kind,
            "level": self.level,
            "sector": list(self.sector),
            "nullspace": [vector_to_json(v) for v in self.nullspace],
            "closed_form_match": self.closed_form_match,
        }
        if self.rtilde is not None:  # computed is None when Rt's image is no multiple
            out["rtilde"] = {
                "computed": None if self.rtilde.computed is None
                else format_rational(self.rtilde.computed),
                "stated": format_rational(self.rtilde.stated),
            }
        return out


def lowering_kernel(module: VermaModule, level: int, sector: Degree,
                    w: dict[int, linalg.Piece]) -> tuple[list[Ket], list[list[Fraction]]]:
    """Kernel of the lowering pair (am, atm) on one sector of V_level / W_level.

    `w` holds a submodule W per level, as
    `submodule_quotient.build_submodule` returns it, on the columns
    `_level_columns` gives each level; `find_singular` passes {} for W = 0.
    The kets of the sector off W's pivots, the keys of its piece, span a
    complement of W.  Each gives one sparse integer row: its am and atm images
    on the columns of level-1, times 2qv for r = p/q and lambda = u/v, read
    by `verma.lowering_rows` off the action table in one pass.  am and atm
    take the sector to the two sectors of level-1, whose kets interleave in
    canonical order, so a row is the union of two disjoint halves and stays
    banded near the ket's own place.  W's echelon rows at level-1, as they
    are stored, are the one ready piece of `linalg.sparse_echelon`: the
    kernel is zero exactly when every ket's row takes a new leading column
    there.  Otherwise a second pass tags each row with a unit entry on column
    width + i, right of every column of level-1 (width is its number of
    kets); the remainders that lead on a tag column are zero on the map, and
    their tag parts are the kernel in echelon form (W's rows are independent,
    so none is lost).
    Returns the complement kets and the RREF basis of the kernel on them.
    """
    pivots = w.get(level, {})
    columns = _level_columns(module.kind, level)
    kets = [ket for ket in _sector_kets(module.kind, level, sector)
            if columns[ket] not in pivots]
    js = [columns[ket] for ket in kets]
    width = len(_level_columns(module.kind, level - 1))
    rows = lowering_rows(module, level, js)
    below = w.get(level - 1, {})
    if len(linalg.sparse_echelon(rows, below)) == len(kets):
        return kets, []
    tagged = [{**row, width + i: 1} for i, row in enumerate(rows)]
    found = linalg.sparse_echelon(tagged, below)
    leads = sorted(lead for lead in found if lead >= width)
    dense = [[found[lead].get(width + i, 0) for i in range(len(kets))] for lead in leads]
    return kets, linalg.echelon_to_rref(dense, [lead - width for lead in leads])


def find_singular(module: VermaModule, level: int, sector: Degree) -> SingularReport:
    """All singular vectors in one degree sector of one level, by exact null space."""
    if level < 1:
        raise ValueError("level must be positive")
    if sector not in sectors_for_level(level):
        raise ValueError(f"sector {sector} does not occur at level {level}")
    kets, kernel = lowering_kernel(module, level, sector, {})
    vectors = [Vector(module, dict(zip(kets, coords))) for coords in kernel]
    predicted = applicable_closed_form(module, level, sector)
    if predicted is None:
        match = "no-closed-form" if not vectors else "mismatch"
    else:
        which, M = predicted
        ref = closed_form(module, which, M)
        if len(vectors) != 1:
            match = "mismatch"
        else:
            c = proportionality(ref, vectors[0])
            if c is None or c == 0:
                match = "mismatch"
            else:
                match = "exact" if c == 1 else "scalar-multiple"
    rtilde = (rtilde_check(module, *predicted) if match in ("exact", "scalar-multiple")
              else None)
    return SingularReport(module, level, sector, vectors, match, rtilde)


def rtilde_check(module: VermaModule, which: str, M: int) -> RtildeCheck:
    """Exact action of Rt on one closed-form singular vector vs its stated coefficient.

    Rt maps chi01 to c*chi10 and chi10 to c*chi01, with c = 2M+1 for Mr and
    c = 1-r for MrLambda, and annihilates chi11.  A mismatch is reported, not
    raised: comparisons are findings.
    """
    image = act("Rt", closed_form(module, which, M))
    if which == "chi11":
        return RtildeCheck(which, Fraction(0) if image.is_zero() else None, Fraction(0))
    other = closed_form(module, "chi10" if which == "chi01" else "chi01", M)
    stated = Fraction(2 * M + 1) if module.kind == "Mr" else 1 - module.r
    return RtildeCheck(which, proportionality(image, other), stated)
