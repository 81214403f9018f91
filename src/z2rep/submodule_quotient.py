"""Maximal invariant submodule W, quotient dimensions, and module classification.

W is generated from the two singular vectors chi01, chi10 at level 2M+1 by
the raising generators, for every order M that
`singular_solver.detect_singular_orders` gives (re-exported here).
`build_submodule` computes W once, as the bare span of the raising images
(level by level, integer echelon rows on the columns of each level), which
never assumes the dimension formula: the ap images of the level below, and
the atp images and Ltp chain of the seeds, which together span every PBW
word of the raising part applied to them.  `Submodule.pieces` is the one
representation of W that every verdict reads.  The tests hold two
independent routes in tests/paper_routes.py: the explicit spanning family of
the level-(2M+1+q) slice, words in ap and atp applied to the two singular
vectors, and the decomposition of chi11 over raising words applied to them.

For the one-dimensional family the quotient truncates: dim W saturates the
whole weight space beyond offset q = 2M, which is where the per-level
quotient dimension formula bottoms out at zero and the total closes at
(2M+1)^2.  For the two-dimensional family the quotient keeps constant
per-level dimension 4M+2 forever.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass

from . import linalg
from .singular_solver import (closed_form, detect_singular_orders, lowering_kernel,
                              sectors_for_level)
from .verma import (ConsistencyError, VermaModule, Vector, _action_table, _level_columns,
                    _numerators, lowering_rows)

MAX_LEVEL = 200  # highest level a table, a sweep or a classification may reach


def singular_pair(module: VermaModule, M: int) -> tuple[Vector, Vector]:
    return closed_form(module, "chi01", M), closed_form(module, "chi10", M)


def verma_dim(module: VermaModule, n: int) -> int:
    return n + 1 if module.kind == "Mr" else 2 * (n + 1)


@dataclass
class Submodule:
    """W level by level.

    pieces[n] holds integer echelon rows spanning W_n, each a dict from the
    column that `verma._level_columns` gives a ket of level n to its nonzero
    entry, keyed on its leading column (a `linalg.Piece`).  Each row lies in
    one Z2xZ2 sector, and the sectors of a level sit on disjoint columns.
    Levels below the lowest singular level are absent: W is zero there.  The
    row dicts are shared with the eliminations that built and read them, and
    none is ever updated.
    """
    module: VermaModule
    pieces: dict[int, linalg.Piece]

    def dim(self, n: int) -> int:
        return len(self.pieces.get(n, {}))


def build_submodule(module: VermaModule, max_level: int) -> Submodule:
    """W = raising words applied to all singular pairs, up to max_level.

    The structure table gives [[ap, Ltp]] = [[atp, Ltp]] = 0 (ap and atp
    anticommute with Ltp), ap atp - atp ap = -4 Ltp and atp^2 = -ap^2 = -2 Lp,
    so every raising word is a combination of ap^k atp^a Ltp^m with a in
    {0, 1}.  Hence W_n = ap W_(n-1) + atp X_(n-1) + X_n, where X_n, the Ltp
    chain of the seeds, holds the singular vectors seeded at level n and the
    Ltp images of X_(n-2): at most one vector per seed and sector.  ap shifts
    the leading ket of a vector by an order-preserving injection of level
    n-1 into level n, so the ap images of W_(n-1)'s echelon rows lead on
    distinct columns: keyed on them, unreduced, they are the ready piece of
    `linalg.sparse_echelon`.  Only the atp images of X_(n-1) and the rows of
    X_n are reduced against them, and each that takes a new leading column
    is a row of W_n.  The seeds and the raising generators are homogeneous,
    so no reduction mixes two sectors.  ap, atp and Ltp have integer
    coefficients, independent of r and lambda: each raises by its matrix in
    `verma._action_table`, the one action table of every module of the kind,
    so once each seed's denominators are cleared every row stays an integer
    vector.  Each seed is checked first: its row times `verma.lowering_rows`
    must be zero, that is am and atm kill it.  Raises ConsistencyError if
    one does not, if two ap images lead on one column, or if one is zero.
    """
    seeds: dict[int, list[Vector]] = {}
    for M in detect_singular_orders(module):
        if 2 * M + 1 <= max_level:
            seeds.setdefault(2 * M + 1, []).extend(singular_pair(module, M))
    pieces: dict[int, linalg.Piece] = {}
    chain: dict[int, list[dict[int, int]]] = {}  # X per level
    for n in range(min(seeds, default=max_level + 1), max_level + 1):
        columns = _level_columns(module.kind, n)
        x = chain[n] = [{columns[ket]: c for ket, c in _numerators(v.terms)[1]}
                        for v in seeds.get(n, ())]
        for seed in x:
            image: dict[int, int] = {}
            for c, row in zip(seed.values(), lowering_rows(module, n, seed)):
                for t, a in row.items():
                    image[t] = image.get(t, 0) + c * a
            if any(image.values()):
                raise ConsistencyError(f"am or atm does not kill a seed at level {n}")
        x += _raised(module, "Ltp", chain.get(n - 2, ()), n - 2)
        ready: linalg.Piece = {}
        for row in _raised(module, "ap", pieces.get(n - 1, {}).values(), n - 1):
            if not row or ready.setdefault(min(row), row) is not row:
                raise ConsistencyError(f"the ap images of W at level {n - 1} do not lead "
                                       f"on distinct columns")
        rest = x + _raised(module, "atp", chain.get(n - 1, ()), n - 1)
        pieces[n] = {**ready, **linalg.sparse_echelon(rest, ready)}
    return Submodule(module, pieces)


def _raised(module: VermaModule, gen: str, rows: Collection[dict[int, int]],
            n: int) -> list[dict[int, int]]:
    """gen applied to each integer row of level n, as a sparse row on the
    columns of the level gen raises it to: the rows times gen's doubled, even
    matrix in `verma._action_table`, each image entry halved exactly."""
    out = []
    if rows:
        images = _action_table(module.kind, gen, n)
        for row in rows:
            image: dict[int, int] = {}
            for s, c in row.items():
                for t, a, _, _ in images[s]:
                    image[t] = image.get(t, 0) + c * a
            out.append({t: x >> 1 for t, x in image.items() if x})
    return out


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

    def to_json(self) -> dict:
        out = self.module.to_json()
        out["case"] = self.case
        if self.M is not None:
            out["M"] = self.M
        out["dimension"] = self.dimension if self.dimension is not None else "infinite"
        out["per_level"] = self.per_level
        return out


def _quotient_has_no_singular(w: Submodule, n: int) -> bool:
    """Kernel of the lowering pair on the level-n quotient V_n / W_n is zero.

    Checked sector by sector, over integers, by `lowering_kernel`: the kets
    off W's pivots span a complement of W, and the sparse rows of their am
    and atm images, stacked on W's level-(n-1) piece as it is stored, must
    each take a new leading column in `linalg.sparse_echelon`.  That one
    elimination decides a zero kernel; a nonzero one is read off a second,
    tagged pass.
    """
    return not any(lowering_kernel(w.module, n, sector, w.pieces)[1]
                   for sector in sectors_for_level(n))


def classify_module(module: VermaModule,
                    max_level: int | None = None) -> ClassificationVerdict:
    """Classification verdict for the irreducible lowest-weight quotient.

    Cases: (i) the one-parameter Verma module is already irreducible,
    (ii) it truncates to total dimension (2M+1)^2, (iii) the two-parameter
    Verma module is irreducible, (iv) it has an infinite-dimensional quotient
    of constant per-level dimension.  The per-level table is that of V/W,
    with W built from the closed-form singular vectors.  When the case-iv
    constraint holds at two orders (integer r), the quotient is finite; the
    cap is raised to 2(M1 + M2) + 2 so that the table reaches past its end.
    Every finite verdict is decided by one rule: the table ends in two empty
    levels, and the dimension is its sum, which in case ii must be (2M+1)^2.
    Only a finite verdict is checked here to have no singular vector in the
    quotient, by `_quotient_has_no_singular`.  "Infinite" means only that the
    table of V/W does not end below the level cap: that it is the irreducible
    quotient, in cases i, iii and single-order iv, is checked by the test
    suite alone (`test_infinite_verdict_tables_are_the_irreducible_quotient`,
    on ten modules).
    """
    orders = detect_singular_orders(module)
    if module.kind == "Mr":
        case = "ii" if orders else "i"
    else:
        case = "iv" if orders else "iii"
    M = orders[0] if orders else None
    # the floor puts in the table the two empty levels past the top 4M of a
    # case-ii quotient and past the top 2(M1 + M2) of a case-iv quotient with
    # two orders M1 < M2, and with one order at least one level past the
    # singular level
    if case == "ii":
        floor = default = 4 * M + 2
    elif case == "iv":
        floor, default = 2 * sum(orders) + 2, 2 * M + 9
    else:
        floor, default = 0, 16
    max_level = max(floor, default if max_level is None else max_level)
    if max_level > MAX_LEVEL:
        raise ValueError(
            f"classification needs level {max_level}, above the bound {MAX_LEVEL}")
    w = build_submodule(module, max_level)
    per_level = _dims_table(w, max_level)
    # two consecutive empty levels end a quotient for good, since raising
    # weights are at most 2: a table that ends in them is finite
    quots = [row["quotient_dim"] for row in per_level]
    dimension = sum(quots) if quots[-2:] == [0, 0] else None
    if case == "ii" and dimension != (2 * M + 1) ** 2:
        raise ConsistencyError(
            f"case ii quotient dimension {dimension} != {(2 * M + 1) ** 2}")
    if dimension is not None:
        top = max(row["level"] for row in per_level if row["quotient_dim"])
        if not all(_quotient_has_no_singular(w, n) for n in range(1, top + 2)):
            raise ConsistencyError("quotient contains an unexpected singular vector")
    return ClassificationVerdict(module, case, M, dimension, per_level)
