"""Maximal invariant submodule W, quotient dimensions, and module classification.

W is generated from the two singular vectors chi01, chi10 at level 2M+1 by
the raising generators.  Its level-(2M+1+q) slice has the explicit spanning
family built from words in ap and atp applied to the two singular vectors;
independently, the same slice is computed as a bare span (level by level,
one Z2xZ2 sector at a time, reducing integer rows by exact rank), which never
assumes the dimension formula.

For the one-dimensional family the quotient truncates: dim W saturates the
whole weight space beyond offset q = 2M, which is where the per-level
quotient dimension formula bottoms out at zero and the total closes at
(2M+1)^2.  For the two-dimensional family the quotient keeps constant
per-level dimension 4M+2 forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt, lcm

from . import linalg
from .graded_algebra import DEGREE, Degree, degree_add
from .rationals import format_rational
from .singular_solver import closed_form, lowering_map, sectors_for_level
from .verma import (Ket, VermaModule, Vector, act_word, action_rows,
                    enumerate_level, sector_kets)


class ConsistencyError(RuntimeError):
    """An internal cross-check that should be a theorem failed."""


def singular_pair(module: VermaModule, M: int) -> tuple[Vector, Vector]:
    return closed_form(module, "chi01", M), closed_form(module, "chi10", M)


def detect_singular_orders(module: VermaModule) -> list[int]:
    """Every M >= 0 whose existence constraint the module parameters meet, ascending.

    Solved in closed form: r + 2M = 0 gives M = -r/2 for Mr, and
    (r + 2M)^2 = lambda gives M = (+-sqrt(lambda) - r)/2 for MrLambda, where
    the square root is rational only when the numerator and the denominator
    of lambda are both perfect squares.
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


def verma_dim(module: VermaModule, n: int) -> int:
    return n + 1 if module.kind == "Mr" else 2 * (n + 1)


def wbasis_words(q: int) -> list[tuple[str, ...]]:
    """Raising words (leftmost factor applied last) spanning one chi-branch at offset q."""
    words: list[tuple[str, ...]] = [("ap",) * q]
    for j in range(1, q // 2 + 1):
        tail = ("ap",) * (q - 2 * j)
        words.append(("atp", "ap") * j + tail)
        words.append(("ap", "atp") * j + tail)
    if q % 2 == 1:
        words.append(("atp", "ap") * ((q - 1) // 2) + ("atp",))
    return words


@dataclass
class SubmoduleLevel:
    module: VermaModule
    M: int
    q: int
    basis: list[Vector]

    @property
    def dim(self) -> int:
        return len(self.basis)


def submodule_basis(module: VermaModule, M: int, q: int) -> SubmoduleLevel:
    """The explicit spanning family of W at offset q above level 2M+1.

    Checks exact linear independence: the family must have rank 2(q+1).
    For the one-dimensional module family this holds only up to q = 2M;
    beyond that the ambient weight space is too small and W saturates it,
    so the offset is rejected.
    """
    if q < 0:
        raise ValueError("offset must be nonnegative")
    if module.kind == "Mr" and q > 2 * M:
        raise ValueError(
            f"offset {q} exceeds the saturation bound 2M = {2 * M}; "
            "the submodule fills the whole weight space there")
    chi01, chi10 = singular_pair(module, M)
    vectors = [act_word(w, chi) for chi in (chi01, chi10) for w in wbasis_words(q)]
    kets = list(enumerate_level(module, 2 * M + 1 + q).kets)
    rows = [v.coords(kets) for v in vectors]
    if linalg.rank(rows) != 2 * (q + 1):
        raise ConsistencyError(
            f"spanning family at offset {q} has rank {linalg.rank(rows)}, "
            f"expected {2 * (q + 1)}")
    return SubmoduleLevel(module, M, q, vectors)


Piece = tuple[list[list[int]], list[int]]  # integer echelon rows, pivot columns


@dataclass
class Submodule:
    """W level by level and sector by sector.

    pieces[n][sector] holds integer echelon rows spanning the part of W in
    that Z2xZ2 sector of level n, in the coordinates of
    sector_kets(module, n, sector), with their pivot columns.  Levels below
    the lowest singular level are absent: W is zero there.
    """
    module: VermaModule
    pieces: dict[int, dict[Degree, Piece]]

    def dim(self, n: int) -> int:
        return sum(len(rows) for rows, _ in self.pieces.get(n, {}).values())


def _integer_coords(vec: Vector, kets: list[Ket]) -> list[int]:
    """Coordinates of vec scaled by the lcm of their denominators."""
    den = lcm(*(c.denominator for c in vec.terms.values()))
    return [int(c * den) for c in vec.coords(kets)]


def build_submodule(module: VermaModule, max_level: int,
                    orders: list[int] | None = None) -> Submodule:
    """W = raising words applied to all singular pairs, up to max_level.

    Each level is spanned by the ap and atp images of the level below and by
    the singular vectors seeded at the level itself.  Lp and Ltp images add
    nothing: Lp = -atp^2/2 and Ltp = -[ap, atp]/4 act through two steps of
    ap and atp, whose images of W already lie in W.  The seeds and the
    raising generators are homogeneous, so each Z2xZ2 sector is eliminated on
    its own.  ap and atp have integer coefficients, independent of r and
    lambda, so once each seed's denominators are cleared every row stays an
    integer vector.
    """
    if orders is None:
        orders = detect_singular_orders(module)
    seeds: dict[int, list[Vector]] = {}
    for M in orders:
        if 2 * M + 1 <= max_level:
            seeds.setdefault(2 * M + 1, []).extend(singular_pair(module, M))
    pieces: dict[int, dict[Degree, Piece]] = {}
    kets_below: dict[Degree, list[Ket]] = {}
    for n in range(min(seeds, default=max_level + 1), max_level + 1):
        space = enumerate_level(module, n)
        level = pieces[n] = {}
        kets_here = {}
        for sector in sectors_for_level(n):
            kets = kets_here[sector] = space.sector(sector)
            rows = [_integer_coords(v, kets) for v in seeds.get(n, ())
                    if v.degree() == sector]
            for gen in ("ap", "atp"):
                source = degree_add(sector, DEGREE[gen])
                below = pieces.get(n - 1, {}).get(source, ([], []))[0]
                if not below:
                    continue
                images = action_rows(module, gen, kets_below[source], kets)
                for row in below:
                    out = [0] * len(kets)
                    for c, image in zip(row, images):
                        if c:
                            for t, a in image:
                                out[t] += c * a
                    rows.append(out)
            level[sector] = linalg.echelon(rows)
        kets_below = kets_here
    return Submodule(module, pieces)


def submodule_span_dims(module: VermaModule, max_level: int,
                        orders: list[int] | None = None) -> dict[int, tuple]:
    """Exact per-level bases of W: {level: (rref_rows, pivots, kets)}.

    The reduced row echelon form over the whole level, in Fractions, is the
    sector pieces of `build_submodule` reduced and merged by pivot.
    """
    out: dict[int, tuple] = {}
    for n, level in build_submodule(module, max_level, orders).pieces.items():
        kets = list(enumerate_level(module, n).kets)
        column = {ket: i for i, ket in enumerate(kets)}
        merged = []
        for sector, (rows, pivots) in level.items():
            place = [column[ket] for ket in sector_kets(module, n, sector)]
            for row, pc in zip(linalg.echelon_to_rref(rows, pivots), pivots):
                full = [Fraction(0)] * len(kets)
                for j, x in zip(place, row):
                    full[j] = x
                merged.append((place[pc], full))
        merged.sort(key=lambda item: item[0])
        out[n] = ([row for _, row in merged], [pc for pc, _ in merged], kets)
    return out


def membership_matrix(M: int) -> list[list[int]]:
    """Coefficient matrix of the chi11 decomposition system (integer entries)."""
    a = [[0] * (M + 1) for _ in range(M + 1)]
    for j in range(M + 1):
        for p in range(M + 1):
            if 0 <= 2 * j - p <= M:
                a[j][p] = 2 ** (2 * j + 1 - p) * comb(M, 2 * j - p)
    return a


def membership_words(M: int) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """Word pairs (applied to chi01 and chi10) whose sums carry the decomposition.

    Entry p is the pair for the unknown c_p, ordered p = 0..M.
    """
    words: list[tuple[tuple[str, ...], tuple[str, ...]]] = [None] * (M + 1)
    for k in range(M // 2 + 1):
        w01 = ("atp",) + ("ap",) * (2 * (M - 2 * k)) + ("Ltp",) * (2 * k)
        w10 = ("ap",) * (2 * (M - 2 * k) + 1) + ("Ltp",) * (2 * k)
        words[2 * k] = (w01, w10)
    for k in range((M - 1) // 2 + 1):
        w01 = ("ap",) * (2 * (M - 2 * k) - 1) + ("Ltp",) * (2 * k + 1)
        w10 = ("atp",) + ("ap",) * (2 * (M - 2 * k - 1)) + ("Ltp",) * (2 * k + 1)
        words[2 * k + 1] = (w01, w10)
    return words


@dataclass
class MembershipReport:
    M: int
    coefficients: list[Fraction]
    matrix: list[list[int]]
    determinant: Fraction
    residual_zero: bool


def chi11_membership(M: int) -> MembershipReport:
    """Decompose the (1,1)-sector singular vector over raising words applied
    to chi01 and chi10, exactly.

    Solves the vector equation directly, then cross-checks the structured
    coefficient matrix: it must be nonsingular and reproduce the same unique
    solution.
    """
    module = VermaModule("Mr", Fraction(-2 * M))
    chi01, chi10 = singular_pair(module, M)
    chi11 = closed_form(module, "chi11", M)
    columns = [act_word(w01, chi01) + act_word(w10, chi10)
               for w01, w10 in membership_words(M)]
    kets = list(enumerate_level(module, 2 * (2 * M + 1)).kets)
    a_rows = [[col.coords(kets)[i] for col in columns] for i in range(len(kets))]
    rhs = chi11.coords(kets)
    coeffs = linalg.solve_unique(a_rows, rhs)
    combo = sum((c * col for c, col in zip(coeffs, columns)),
                Vector(module, {}))
    residual_zero = (chi11 - combo).is_zero()
    matrix = membership_matrix(M)
    determinant = linalg.det(matrix)
    if determinant == 0:
        raise ConsistencyError("structured coefficient matrix is singular")
    structured = linalg.solve_unique(matrix,
                                     [Fraction((-4) ** j * comb(M, j))
                                      for j in range(M + 1)])
    if structured != coeffs:
        raise ConsistencyError("structured system disagrees with the vector system")
    return MembershipReport(M, coeffs, matrix, determinant, residual_zero)


def _dims_table(w: Submodule, max_level: int) -> list[dict]:
    rows = []
    for n in range(max_level + 1):
        total, sub = verma_dim(w.module, n), w.dim(n)
        rows.append({"level": n, "verma_dim": total, "submodule_dim": sub,
                     "quotient_dim": total - sub})
    return rows


def quotient_dims(module: VermaModule, max_level: int) -> list[dict]:
    """Per-level table of weight-space, submodule and quotient dimensions.

    dim W is computed by exact span reduction, never from a formula.
    """
    return _dims_table(build_submodule(module, max_level), max_level)


@dataclass
class ClassificationVerdict:
    module: VermaModule
    case: str  # "i" | "ii" | "iii" | "iv"
    M: int | None
    dimension: int | None  # None means infinite
    per_level: list[dict]
    quotient_irreducible_checked: bool = False

    def to_json(self) -> dict:
        out = {"kind": self.module.kind, "r": format_rational(self.module.r)}
        if self.module.lam is not None:
            out["lambda"] = format_rational(self.module.lam)
        out["case"] = self.case
        if self.M is not None:
            out["M"] = self.M
        out["dimension"] = self.dimension if self.dimension is not None else "infinite"
        out["per_level"] = self.per_level
        return out


def _quotient_has_no_singular(w: Submodule, n: int) -> bool:
    """Kernel of the lowering pair on the level-n quotient V_n / W_n is zero.

    Checked sector by sector, over integers: the kets off W's pivots span a
    complement of W in each sector, and their am and atm images modulo W at
    level n-1 must be linearly independent.
    """
    module = w.module
    for sector in sectors_for_level(n):
        _, pivots = w.pieces.get(n, {}).get(sector, ([], []))
        free = [ket for j, ket in enumerate(sector_kets(module, n, sector))
                if j not in pivots]
        if not free:
            continue
        images = lowering_map(module, n, sector, free, modulo=w.pieces.get(n - 1, {}))
        if len(linalg.echelon(images)[1]) < len(free):
            return False
    return True


def classify_module(module: VermaModule,
                    max_level: int | None = None) -> ClassificationVerdict:
    """Classification verdict for the irreducible lowest-weight quotient.

    Cases: (i) the one-parameter Verma module is already irreducible,
    (ii) it truncates to total dimension (2M+1)^2, (iii) the two-parameter
    Verma module is irreducible, (iv) it has an infinite-dimensional quotient
    of constant per-level dimension.  "Infinite" means the per-level table is
    verified non-terminating up to the level cap.
    """
    orders = detect_singular_orders(module)
    if module.kind == "Mr":
        case = "ii" if orders else "i"
    else:
        case = "iv" if orders else "iii"
    M = orders[0] if orders else None
    if max_level is None:
        if case == "ii":
            max_level = 2 * (2 * M + 1)
        elif case == "iv":
            max_level = 2 * M + 1 + 8
        else:
            max_level = 16
    if case == "ii":
        support = 4 * M + 1
        max_level = max(max_level, support + 1)
    w = build_submodule(module, max_level, orders)
    per_level = _dims_table(w, max_level)
    dimension = None
    checked = False
    if case == "ii":
        total = sum(row["quotient_dim"] for row in per_level)
        if total != (2 * M + 1) ** 2:
            raise ConsistencyError(
                f"quotient total {total} != {(2 * M + 1) ** 2}")
        if any(row["quotient_dim"] for row in per_level if row["level"] > support):
            raise ConsistencyError("quotient persists beyond its support")
        dimension = (2 * M + 1) ** 2
        checked = all(_quotient_has_no_singular(w, n) for n in range(1, support + 1))
        if not checked:
            raise ConsistencyError("quotient contains an unexpected singular vector")
    elif case == "iv":
        # two constraint orders can coexist (integer r); the quotient then
        # terminates.  Two consecutive empty levels end it for good, since
        # raising weights are at most 2.
        quots = [row["quotient_dim"] for row in per_level]
        if len(quots) >= 2 and quots[-1] == quots[-2] == 0:
            dimension = sum(quots)
            top = max(row["level"] for row in per_level if row["quotient_dim"])
            checked = all(_quotient_has_no_singular(w, n) for n in range(1, top + 2))
    return ClassificationVerdict(module, case, M, dimension, per_level, checked)
