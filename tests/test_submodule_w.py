"""Differential test of the sector-split integer W builder.

The reference is the engine's earlier construction of W, kept here only as
an oracle: a breadth-first span over whole levels in Fraction arithmetic,
with the Lp and Ltp images included, and the quotient check that reduces
the lowering images modulo that span in Fractions.
"""

from fractions import Fraction

import pytest

from z2rep import linalg
from z2rep.submodule_quotient import (_quotient_has_no_singular, build_submodule,
                                      classify_module, detect_singular_orders,
                                      singular_pair, submodule_span_dims)
from z2rep.verma import VermaModule, Vector, act, enumerate_level


def mr(r):
    return VermaModule("Mr", Fraction(r))


def mrl(r, lam):
    return VermaModule("MrLambda", Fraction(r), Fraction(lam))


def bfs_span_dims(module, max_level, orders):
    seeds: dict[int, list[Vector]] = {}
    for M in orders:
        if 2 * M + 1 <= max_level:
            seeds.setdefault(2 * M + 1, []).extend(singular_pair(module, M))
    out: dict[int, tuple] = {}
    if not seeds:
        return out
    prev: list[Vector] = []
    prev2: list[Vector] = []
    for n in range(min(seeds), max_level + 1):
        cands = list(seeds.get(n, []))
        for v in prev:
            cands.append(act("ap", v))
            cands.append(act("atp", v))
        for v in prev2:
            cands.append(act("Lp", v))
            cands.append(act("Ltp", v))
        kets = list(enumerate_level(module, n).kets)
        rr, pivots = linalg.rref([v.coords(kets) for v in cands if not v.is_zero()])
        out[n] = (rr, pivots, kets)
        prev, prev2 = [Vector(module, dict(zip(kets, row))) for row in rr], prev
    return out


def fraction_quotient_check(module, spans, n):
    kets = list(enumerate_level(module, n).kets)
    rr_n, pivots_n = spans[n][:2] if n in spans else ([], [])
    comp = [i for i in range(len(kets)) if i not in pivots_n]
    if not comp:
        return True
    below = list(enumerate_level(module, n - 1).kets)
    rr_b, pivots_b = spans[n - 1][:2] if n - 1 in spans else ([], [])
    comp_b = [i for i in range(len(below)) if i not in pivots_b]
    rows = [[Fraction(0)] * len(comp) for _ in range(2 * len(comp_b))]
    for col, i in enumerate(comp):
        vec = Vector(module, {kets[i]: Fraction(1)})
        for block, gen in enumerate(("am", "atm")):
            red = linalg.reduce_mod_span(rr_b, pivots_b, act(gen, vec).coords(below))
            for rowpos, j in enumerate(comp_b):
                rows[block * len(comp_b) + rowpos][col] = red[j]
    return not linalg.nullspace(rows, len(comp))


# the modules of tests/golden, with the level cap their command passes
GRID = ([(mr(-2 * M), None) for M in range(9)]
        + [(mrl(Fraction(1, 3), Fraction(49, 9)), None),
           (mrl(Fraction(-5, 2), Fraction(9, 4)), None),
           (mrl(Fraction(2, 5), Fraction(1024, 25)), None)]
        + [(mrl(r, lam), cap) for r, lam in ((-5, 9), (-3, 1), (-1, 1))
           for cap in (None, 3)]
        + [(mr(Fraction(7, 2)), None), (mrl(1, 3), None), (mr(-4), 3), (mr(-16), 40)])


@pytest.mark.parametrize("module,cap", GRID,
                         ids=[f"{m.kind}-r{m.r}-l{m.lam}-cap{c}" for m, c in GRID])
def test_builder_matches_fraction_bfs(module, cap):
    verdict = classify_module(module, max_level=cap)
    top = max(row["level"] for row in verdict.per_level)
    orders = detect_singular_orders(module)
    old = bfs_span_dims(module, top, orders)
    new = submodule_span_dims(module, top, orders)
    assert new.keys() == old.keys()
    for n in old:
        assert new[n] == old[n], f"level {n}"
    w = build_submodule(module, top, orders)
    assert all(_quotient_has_no_singular(w, n) == fraction_quotient_check(module, old, n)
               for n in range(1, top + 1))
    # the verdict's flag, recomputed with the old check over the old ranges
    quots = [row["quotient_dim"] for row in verdict.per_level]
    if verdict.case == "ii":
        expected = all(fraction_quotient_check(module, old, n)
                       for n in range(1, 4 * verdict.M + 2))
    elif verdict.case == "iv" and quots[-1] == quots[-2] == 0:
        last = max(row["level"] for row in verdict.per_level if row["quotient_dim"])
        expected = all(fraction_quotient_check(module, old, n)
                       for n in range(1, last + 2))
    else:
        expected = False
    assert verdict.quotient_irreducible_checked == expected
