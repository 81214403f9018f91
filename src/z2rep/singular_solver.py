"""Singular vectors of the Verma modules.

A singular vector is a nonzero weight vector of positive level annihilated by
both lowering generators am and atm (annihilation by Lm and Ltm follows).
`detect_singular_orders` is the one place the existence condition is solved:
the orders M with r + 2M = 0 (Mr) or (r + 2M)^2 = lambda (MrLambda).  The
closed forms, the predictions of `find_singular` and the submodule W all read
their orders from it.  Three independent routes are implemented and
cross-checked:

* `find_singular` — the null space of (am, atm) on one degree sector of one
  level, by fraction-free elimination in `lowering_kernel`, which the
  quotient check of `submodule_quotient` also calls, modulo a submodule W;
* `closed_form` — evaluate the explicit binomial-weighted combinations that
  exist at level 2M+1 (odd sectors) and at level 2(2M+1) in the (1,1) sector
  of the one-dimensional family.  `CLOSED_FORMS` is the one statement of
  where each form lives; its two coefficient families are the alpha = 0 and
  the alpha = 1 kets of that sector, in canonical order, and
  `applicable_closed_form` and `closed_form_family_kets` read the same table;
* `recurrence_solve` — set up the raw linear recurrences the annihilation
  conditions impose on the ansatz coefficients and solve them as an exact
  linear system, re-deriving the closed forms instead of evaluating them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt

from . import linalg
from .graded_algebra import DEGREE, Degree, degree_add
from .rationals import format_rational
from .verma import (Ket, VermaModule, Vector, _sector_kets, act, action_rows,
                    sector_kets, vector_to_json)

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
    are both perfect squares.
    """
    if module.kind == "Mr":
        roots = [Fraction(0)]
    else:
        lam = module.lam
        if lam < 0:
            return []
        num, den = isqrt(lam.numerator), isqrt(lam.denominator)
        if num * num != lam.numerator or den * den != lam.denominator:
            return []
        roots = [Fraction(-num, den), Fraction(num, den)]
    out = []
    for root in roots:
        two_m = root - module.r
        if two_m >= 0 and two_m.denominator == 1 and two_m.numerator % 2 == 0:
            out.append(two_m.numerator // 2)
    return out


# where each closed form of order M lives, stated once: level (2M+1) * multiple,
# one Z2xZ2 sector, and the module kinds that have it
CLOSED_FORMS = {"chi01": (1, (0, 1), ("Mr", "MrLambda")),
                "chi10": (1, (1, 0), ("Mr", "MrLambda")),
                "chi11": (2, (1, 1), ("Mr",))}

# the closed form whose coefficient families each recurrence system is named
# after (MrLambda chi10 has no system of its own)
_SYSTEM_FORMS = {"mu-nu": ("Mr", "chi01"), "alpha-beta": ("Mr", "chi10"),
                 "gamma-delta": ("Mr", "chi11"), "mu-nu-lambda": ("MrLambda", "chi01"),
                 "alpha-beta-lambda": ("MrLambda", "chi10")}


def _families(kind: str, which: str, M: int) -> tuple[list[Ket], list[Ket]]:
    """The alpha = 0 and the alpha = 1 kets of the sector a closed form fills."""
    multiple, sector, _ = CLOSED_FORMS[which]
    kets = _sector_kets(kind, multiple * (2 * M + 1), sector)
    return [k for k in kets if k.alpha == 0], [k for k in kets if k.alpha == 1]


def closed_form_family_kets(which: str, M: int) -> dict[str, list[Ket]]:
    """Ket positions of each coefficient family of a closed form at order M."""
    if which not in _SYSTEM_FORMS:
        raise ValueError(f"no closed form backs {which!r}")
    return dict(zip(which.split("-"), _families(*_SYSTEM_FORMS[which], M)))


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
                    w: dict[int, dict[Degree, linalg.Piece]],
                    ) -> tuple[list[Ket], list[list[Fraction]]]:
    """Kernel of the lowering pair (am, atm) on one sector of V_level / W_level.

    `w` holds a submodule W per level and sector, as `Submodule.pieces` does;
    `find_singular` passes {} for W = 0.  The kets of the sector off W's
    pivots span a complement of W.  Each gives one sparse integer row, read
    straight off `action_rows`: its am image over the kets of its target
    sector of level-1 and its atm image over the kets of its own, scaled by
    den(r) * den(lambda).  Both images land near the ket's own place in
    canonical order, so the two blocks of columns are interleaved, the t-th
    target ket of am on column 2t and of atm on 2t+1, which keeps the rows
    banded.  W's echelon rows at level-1 lie on the same columns.  The kernel
    is zero exactly when `linalg.sparse_rank` of the rows stacked on W's rows
    counts every one of them.  Otherwise the kernel is the complement part of
    the left kernel of that stack, made dense; W's rows are independent, so
    that part is injective and holds every pivot of the RREF basis.  Returns
    the complement kets and an RREF basis of the kernel on them.
    """
    scale = module.r.denominator * (module.lam.denominator if module.lam is not None else 1)
    pivots = w.get(level, {}).get(sector, ([], []))[1]
    kets = [ket for j, ket in enumerate(sector_kets(module, level, sector))
            if j not in pivots]
    rows: list[dict[int, int]] = [{} for _ in kets]
    below: list[tuple[range, linalg.Piece]] = []  # W at level-1, on its columns
    for b, gen in enumerate(("am", "atm")):
        target = degree_add(sector, DEGREE[gen])
        targets = sector_kets(module, level - 1, target)
        piece = w.get(level - 1, {}).get(target, ([], []))
        below.append((range(b, 2 * len(targets), 2), piece))
        for row, image in zip(rows, action_rows(module, gen, kets, targets, scale)):
            row.update((2 * t + b, c) for t, c in image)
    if linalg.sparse_rank(rows, below) == len(kets) + sum(len(ech) for _, (ech, _) in below):
        return kets, []
    rows += [dict(zip(columns, ech_row)) for columns, (ech, _) in below for ech_row in ech]
    width = max(len(columns) for columns, _ in below) * 2
    stack = [[row.get(c, 0) for c in range(width)] for row in rows]
    return kets, [v[:len(kets)] for v in linalg.nullspace(list(zip(*stack)), len(stack))]


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


def verify_rtilde_relations(module: VermaModule, M: int) -> list[RtildeCheck]:
    """rtilde_check on chi01, chi10 and, for Mr, chi11."""
    kinds = ("chi01", "chi10", "chi11") if module.kind == "Mr" else ("chi01", "chi10")
    return [rtilde_check(module, which, M) for which in kinds]


# --- recurrence systems -----------------------------------------------------

class _LinearSystem:
    """Homogeneous exact system over named coefficient families.

    References to indices outside a family's declared range denote absent
    ansatz coefficients and drop out of the relation.
    """

    def __init__(self, families: list[tuple[str, int]]):
        self.sizes = dict(families)
        self.order = [name for name, _ in families]
        self.offsets = {}
        total = 0
        for name, size in families:
            self.offsets[name] = total
            total += size
        self.total = total
        self.rows: list[list[Fraction]] = []

    def add(self, terms: list[tuple[str, int, Fraction]]) -> None:
        row = [Fraction(0)] * self.total
        for family, j, coeff in terms:
            if 0 <= j < self.sizes[family]:
                row[self.offsets[family] + j] += Fraction(coeff)
        if any(row):
            self.rows.append(row)

    def solutions(self) -> list[dict[str, list[Fraction]]]:
        split = []
        for vec in linalg.nullspace(self.rows, self.total):
            sol = {}
            for name in self.order:
                off = self.offsets[name]
                sol[name] = vec[off:off + self.sizes[name]]
            split.append(sol)
        return split


def _sys_mu_nu(M: int, r: Fraction, _lam=None) -> _LinearSystem:
    K = M // 2
    top = K - 1 if M % 2 == 0 else K
    sys = _LinearSystem([("mu", M // 2 + 1), ("nu", (M - 1) // 2 + 1)])
    for j in range(top + 1):
        sys.add([("mu", j, 2 * (M - 2 * j)), ("nu", j, 2 * j + 1)])
    for j in range(K):
        sys.add([("mu", j + 1, j + 1), ("nu", j, -(r + M + 2 * j + 1))])
    if M % 2 == 1:
        sys.add([("nu", K, r + 2 * M)])
    sys.add([("mu", 0, 2 * (r + M)), ("nu", 0, -1)])
    for j in range(K):
        sys.add([("mu", j + 1, j + 1), ("nu", j, M - 2 * j - 1)])
    for j in range(1, top + 1):
        sys.add([("mu", j, 2 * (r + M - 2 * j)), ("nu", j, -(2 * j + 1)),
                 ("nu", j - 1, -8 * (M - 2 * j + 1))])
    if M % 2 == 0:
        sys.add([("mu", K, r), ("nu", K - 1, -4)])
    return sys


def _sys_alpha_beta(M: int, r: Fraction, _lam=None) -> _LinearSystem:
    K = M // 2
    top = K - 1 if M % 2 == 0 else K
    sys = _LinearSystem([("alpha", (M - 1) // 2 + 1), ("beta", K + 1)])
    for j in range(K):
        sys.add([("alpha", j, M - 2 * j - 1), ("beta", j + 1, j + 1)])
    for j in range(top + 1):
        sys.add([("alpha", j, -(2 * j + 1)), ("beta", j, 2 * (r + M + 2 * j))])
    if M % 2 == 0:
        sys.add([("beta", K, r + 2 * M)])
    for j in range(top + 1):
        sys.add([("alpha", j, 2 * j + 1), ("beta", j, 2 * (M - 2 * j))])
    for j in range(K):
        sys.add([("alpha", j, r + M - 2 * j - 1), ("beta", j, -4 * (M - 2 * j)),
                 ("beta", j + 1, -(j + 1))])
    if M % 2 == 1:
        sys.add([("alpha", K, r), ("beta", K, -4)])
    return sys


def _sys_rho_sigma(M: int, r: Fraction, _lam=None) -> _LinearSystem:
    K = M // 2
    sys = _LinearSystem([("rho", K + 1), ("sigma", K)])
    for j in range(K):
        sys.add([("rho", j, 2 * (M - 2 * j)), ("sigma", j, -(2 * j + 1))])
    for j in range(1, K + 1):
        sys.add([("rho", j, j), ("sigma", j - 1, r + M + 2 * j - 1)])
    if M % 2 == 1:
        sys.add([("rho", K, 1)])
    sys.add([("rho", 0, 2 * M), ("sigma", 0, 1)])
    for j in range(1, K):
        sys.add([("rho", j, 2 * (M - 2 * j)), ("sigma", j, 2 * j + 1),
                 ("sigma", j - 1, 8 * (M - 2 * j))])
    for j in range(1, K + 1):
        sys.add([("rho", j, -j), ("sigma", j - 1, r + M - 2 * j - 1)])
    if M % 2 == 1:
        sys.add([("rho", K, 1), ("sigma", K - 1, 4)])
    return sys


def _sys_gamma_delta(M: int, r: Fraction, _lam=None) -> _LinearSystem:
    K = M // 2
    count = K if M % 2 == 0 else K + 1
    top = count - 1
    sys = _LinearSystem([("gamma", count), ("delta", count)])
    for j in range(1, top + 1):
        sys.add([("gamma", j - 1, M - 2 * j + 1), ("delta", j, -j)])
    for j in range(top + 1):
        sys.add([("gamma", j, 2 * j + 1), ("delta", j, 2 * (r + M + 2 * j))])
    if M % 2 == 0 and K >= 1:
        sys.add([("gamma", K - 1, 1)])
    for j in range(1, top + 1):
        sys.add([("gamma", j - 1, M - 2 * j + 1), ("delta", j - 1, 4 * (M - 2 * j + 1)),
                 ("delta", j, j)])
    for j in range(top + 1):
        sys.add([("gamma", j, 2 * j + 1), ("delta", j, -2 * (r + M - 2 * j - 2))])
    if M % 2 == 0 and K >= 1:
        sys.add([("gamma", K - 1, 1), ("delta", K - 1, 4)])
    return sys


def _sys_mu_nu_lambda(M: int, r: Fraction, lam) -> _LinearSystem:
    if lam is None:
        raise ValueError("mu-nu-lambda needs lambda")
    lam = Fraction(lam)
    sys = _LinearSystem([("mu", M + 1), ("nu", M + 1)])
    sys.add([("mu", M, lam ** (M % 2)), ("nu", M, -(r + 2 * M))])
    for j in range(M):
        sys.add([("mu", j + 1, j + 1), ("mu", j, 2 * lam ** (j % 2)),
                 ("nu", j, -2 * (r + M + j))])
    for j in range(M):
        sys.add([("mu", j, 2 * (M - j)), ("nu", j + 1, j + 1)])
    sys.add([("mu", 0, 2 * (r + M)), ("nu", 1, -1), ("nu", 0, -2 * lam)])
    for j in range(1, M):
        sys.add([("mu", j, 2 * (r + M - j)), ("nu", j + 1, -(j + 1)),
                 ("nu", j - 1, -8 * (M - j + 1)), ("nu", j, -2 * lam ** ((j + 1) % 2))])
    sys.add([("mu", M, r), ("nu", M - 1, -4), ("nu", M, -lam ** ((M + 1) % 2))])
    for j in range(M):
        sys.add([("mu", j + 1, j + 1), ("nu", j, 2 * (M - j))])
    return sys


# each recurrence system's builder; the Mr systems ignore lambda
_SYSTEMS = {"mu-nu": _sys_mu_nu, "alpha-beta": _sys_alpha_beta, "rho-sigma": _sys_rho_sigma,
            "gamma-delta": _sys_gamma_delta, "mu-nu-lambda": _sys_mu_nu_lambda}


def recurrence_solve(which: str, M: int, r,
                     lam=None) -> list[dict[str, list[Fraction]]]:
    """Solution space of one annihilation recurrence system.

    For the odd-level systems (mu-nu, alpha-beta, mu-nu-lambda) M labels the
    level 2M+1.  For the even-level systems (rho-sigma, gamma-delta) M is the
    half-level: the system lives at level 2M, and the gamma-delta system is
    nontrivial only for odd M = 2K+1 with r + 2K = 0.
    """
    r = Fraction(r)
    if which not in _SYSTEMS:
        raise ValueError(f"unknown recurrence system {which!r}")
    return _SYSTEMS[which](M, r, lam).solutions()
