"""Singular vectors of the Verma modules.

A singular vector is a nonzero weight vector of positive level annihilated by
both lowering generators am and atm (annihilation by Lm and Ltm follows).
Three independent routes are implemented and cross-checked:

* `find_singular` — assemble the exact matrix of (am, atm) restricted to one
  degree sector of one level and compute its null space by fraction-free
  elimination;
* `closed_form` — evaluate the explicit binomial-weighted combinations that
  exist at level 2M+1 (odd sectors; constraint r + 2M = 0 for the
  one-dimensional family, (r + 2M)^2 = lambda for the two-dimensional one)
  and at level 2(2M+1) in the (1,1) sector of the one-dimensional family;
* `recurrence_solve` — set up the raw linear recurrences the annihilation
  conditions impose on the ansatz coefficients and solve them as an exact
  linear system, re-deriving the closed forms instead of evaluating them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import linalg
from .graded_algebra import DEGREE, Degree, degree_add
from .rationals import format_rational
from .verma import (Ket, VermaModule, Vector, act, action_rows, sector_kets,
                    vector_to_json, zero_vector)

ODD_SECTORS: tuple[Degree, ...] = ((0, 1), (1, 0))
EVEN_SECTORS: tuple[Degree, ...] = ((0, 0), (1, 1))


class ConstraintError(ValueError):
    """A closed form was requested outside its existence constraint."""


def sectors_for_level(n: int) -> tuple[Degree, ...]:
    return EVEN_SECTORS if n % 2 == 0 else ODD_SECTORS


def closed_form(module: VermaModule, which: str, M: int) -> Vector:
    """Explicit singular vector chi01/chi10 (level 2M+1) or chi11 (level 2(2M+1))."""
    if M < 0:
        raise ValueError("M must be nonnegative")
    r = module.r
    if module.kind == "Mr":
        if r + 2 * M != 0:
            raise ConstraintError(f"constraint violated: r + 2M = {r + 2 * M} != 0")
    else:
        if which == "chi11":
            raise ConstraintError("no (1,1)-sector closed form exists for MrLambda")
        if (r + 2 * M) ** 2 != module.lam:
            raise ConstraintError(
                f"constraint violated: (r + 2M)^2 = {(r + 2 * M) ** 2} != lambda")
    terms: dict[Ket, Fraction] = {}
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


def applicable_closed_form(module: VermaModule, level: int,
                           sector: Degree) -> tuple[str, int] | None:
    """Which closed form (if any) the theory predicts at this level and sector."""
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
class SingularReport:
    module: VermaModule
    level: int
    sector: Degree
    nullspace: list[Vector]
    closed_form_match: str  # exact | scalar-multiple | mismatch | no-closed-form
    rtilde_computed: Fraction | None = None
    rtilde_stated: Fraction | None = None

    def to_json(self) -> dict:
        out = {
            "kind": self.module.kind,
            "level": self.level,
            "sector": list(self.sector),
            "nullspace": [vector_to_json(v) for v in self.nullspace],
            "closed_form_match": self.closed_form_match,
        }
        if self.rtilde_computed is not None or self.rtilde_stated is not None:
            out["rtilde"] = {
                "computed": format_rational(self.rtilde_computed),
                "stated": format_rational(self.rtilde_stated),
            }
        return out


def lowering_map(module: VermaModule, level: int, sector: Degree, kets: list[Ket],
                 modulo: dict[Degree, tuple[list[list[int]], list[int]]] | None = None,
                 ) -> list[list[int]]:
    """Stacked images of the lowering pair (am, atm), one integer row per ket.

    The kets lie in `sector` of `level`.  am and atm each map that sector into
    one sector of level-1; a row holds the am image over the kets of its
    target sector, then the atm image over the kets of its own.  Entries are
    multiplied by den(r) * den(lambda), which makes them integers.

    With `modulo`, the integer echelon rows and pivots of a subspace of
    level-1 per sector, each image is reduced modulo that subspace and only
    its coordinates off the pivots are kept.
    """
    scale = module.r.denominator * (module.lam.denominator if module.lam is not None else 1)
    blocks = []
    for gen in ("am", "atm"):
        target = degree_add(sector, DEGREE[gen])
        targets = sector_kets(module, level - 1, target)
        block = []
        for image in action_rows(module, gen, kets, targets, scale):
            v = [0] * len(targets)
            for t, c in image:
                v[t] = c
            block.append(v)
        if modulo is not None:
            ech, pivots = modulo.get(target, ([], []))
            keep = [j for j in range(len(targets)) if j not in pivots]
            block = [[red[j] for j in keep]
                     for red in (linalg.reduce_mod_echelon(ech, pivots, v) for v in block)]
        blocks.append(block)
    return [a + b for a, b in zip(*blocks)]


def find_singular(module: VermaModule, level: int, sector: Degree) -> SingularReport:
    """All singular vectors in one degree sector of one level, by exact null space."""
    if level < 1:
        raise ValueError("level must be positive")
    if sector not in sectors_for_level(level):
        raise ValueError(f"sector {sector} does not occur at level {level}")
    kets = sector_kets(module, level, sector)
    vectors: list[Vector] = []
    if kets:
        images = lowering_map(module, level, sector, kets)
        for coords in linalg.nullspace([list(col) for col in zip(*images)], len(kets)):
            vectors.append(Vector(module, dict(zip(kets, coords))))
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
    report = SingularReport(module, level, sector, vectors, match)
    if predicted is not None and match in ("exact", "scalar-multiple"):
        check = rtilde_check(module, *predicted)
        report.rtilde_computed, report.rtilde_stated = check.computed, check.stated
    return report


@dataclass
class RtildeCheck:
    which: str
    computed: Fraction | None  # None: image not proportional at all
    stated: Fraction

    @property
    def matches(self) -> bool:
        return self.computed == self.stated


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


def _sys_mu_nu(M: int, r: Fraction) -> _LinearSystem:
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


def _sys_alpha_beta(M: int, r: Fraction) -> _LinearSystem:
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


def _sys_rho_sigma(M: int, r: Fraction) -> _LinearSystem:
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


def _sys_gamma_delta(M: int, r: Fraction) -> _LinearSystem:
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


def _sys_mu_nu_lambda(M: int, r: Fraction, lam: Fraction) -> _LinearSystem:
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


RECURRENCE_SYSTEMS = ("mu-nu", "alpha-beta", "rho-sigma", "gamma-delta",
                      "mu-nu-lambda")


def recurrence_solve(which: str, M: int, r,
                     lam=None) -> list[dict[str, list[Fraction]]]:
    """Solution space of one annihilation recurrence system.

    For the odd-level systems (mu-nu, alpha-beta, mu-nu-lambda) M labels the
    level 2M+1.  For the even-level systems (rho-sigma, gamma-delta) M is the
    half-level: the system lives at level 2M, and the gamma-delta system is
    nontrivial only for odd M = 2K+1 with r + 2K = 0.
    """
    r = Fraction(r)
    if which == "mu-nu":
        sys = _sys_mu_nu(M, r)
    elif which == "alpha-beta":
        sys = _sys_alpha_beta(M, r)
    elif which == "rho-sigma":
        sys = _sys_rho_sigma(M, r)
    elif which == "gamma-delta":
        sys = _sys_gamma_delta(M, r)
    elif which == "mu-nu-lambda":
        if lam is None:
            raise ValueError("mu-nu-lambda needs lambda")
        sys = _sys_mu_nu_lambda(M, r, Fraction(lam))
    else:
        raise ValueError(f"unknown recurrence system {which!r}")
    return sys.solutions()


# ket positions of each coefficient family inside the closed forms, used to
# cross-check recurrence solutions against closed_form output
def closed_form_family_kets(which: str, M: int) -> dict[str, list[Ket]]:
    if which == "mu-nu":
        return {"mu": [Ket(0, 2 * (M - 2 * j) + 1, 2 * j) for j in range(M // 2 + 1)],
                "nu": [Ket(1, 2 * (M - 2 * j - 1), 2 * j + 1)
                       for j in range((M - 1) // 2 + 1)]}
    if which == "alpha-beta":
        return {"alpha": [Ket(0, 2 * (M - 2 * j - 1) + 1, 2 * j + 1)
                          for j in range((M - 1) // 2 + 1)],
                "beta": [Ket(1, 2 * (M - 2 * j), 2 * j) for j in range(M // 2 + 1)]}
    if which == "gamma-delta":
        return {"gamma": [Ket(0, 4 * (M - j), 2 * j + 1) for j in range(M + 1)],
                "delta": [Ket(1, 4 * (M - j) + 1, 2 * j) for j in range(M + 1)]}
    if which == "mu-nu-lambda":
        return {"mu": [Ket(0, 2 * (M - j) + 1, j, j % 2) for j in range(M + 1)],
                "nu": [Ket(1, 2 * (M - j), j, (j + 1) % 2) for j in range(M + 1)]}
    raise ValueError(f"no closed form backs {which!r}")
