"""Differential test of the integer W builder.

The reference is the engine's earlier construction of W, kept here only as
an oracle: a breadth-first span over whole levels in Fraction arithmetic,
with the Lp and Ltp images included, and the quotient check that reduces
the lowering images modulo that span in Fractions.  The relations that let
the builder raise W by ap and by the Ltp chain of the seeds alone are
pinned here too, and so are its refusal of ap images that share a leading
column or vanish, and the rule that no shared row of W, and no shared
column map of a level, is updated in place.
"""

import copy
from fractions import Fraction

import pytest

from reference import dense_piece, nullspace, reduce_mod_span, rref, sector_pieces
from z2rep import linalg, singular_solver, submodule_quotient, verma
from z2rep.cli import main
from z2rep.graded_algebra import SIGN, STRUCTURE_TABLE
from z2rep.singular_solver import find_singular, sectors_for_level
from z2rep.submodule_quotient import (ConsistencyError, _quotient_has_no_singular,
                                      build_submodule, classify_module,
                                      detect_singular_orders, singular_pair)
from z2rep.verma import (VermaModule, Vector, _level_kets, _sector_kets, act,
                         enumerate_level)


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
        kets = list(enumerate_level(module, n))
        rr, pivots = rref([v.coords(kets) for v in cands if not v.is_zero()])
        out[n] = (rr, pivots, kets)
        prev, prev2 = [Vector(module, dict(zip(kets, row))) for row in rr], prev
    return out


def fraction_quotient_check(module, spans, n):
    kets = list(enumerate_level(module, n))
    rr_n, pivots_n = spans[n][:2] if n in spans else ([], [])
    comp = [i for i in range(len(kets)) if i not in pivots_n]
    if not comp:
        return True
    below = list(enumerate_level(module, n - 1))
    rr_b, pivots_b = spans[n - 1][:2] if n - 1 in spans else ([], [])
    comp_b = [i for i in range(len(below)) if i not in pivots_b]
    rows = [[Fraction(0)] * len(comp) for _ in range(2 * len(comp_b))]
    for col, i in enumerate(comp):
        vec = Vector(module, {kets[i]: Fraction(1)})
        for block, gen in enumerate(("am", "atm")):
            red = reduce_mod_span(rr_b, pivots_b, act(gen, vec).coords(below))
            for rowpos, j in enumerate(comp_b):
                rows[block * len(comp_b) + rowpos][col] = red[j]
    return not nullspace(rows, len(comp))


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
    w = build_submodule(module, top)
    assert w.keys() == old.keys()
    for n, (rr, pivots, kets) in old.items():
        # a reduced row echelon form is unique, so each of its rows lies in
        # the sector of its pivot and is that sector's RREF cut to its kets
        assert len(rr) == len(w[n]), f"level {n}"
        for sector, piece in sector_pieces(module, n, w[n]).items():
            place = [kets.index(ket) for ket in _sector_kets(module.kind, n, sector)]
            rows, _ = dense_piece(piece, len(place))
            mine = [row for row, pc in zip(rr, pivots) if pc in place]
            assert all(not x for row in mine for j, x in enumerate(row) if j not in place)
            assert [[row[j] for j in place] for row in mine] == rref(rows)[0], \
                f"level {n} sector {sector}"
    assert all(_quotient_has_no_singular(module, w, n) == fraction_quotient_check(module, old, n)
               for n in range(1, top + 1))
    # a verdict is finite exactly when the old check passes over the old ranges
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
    assert expected == (verdict.dimension is not None)


@pytest.mark.parametrize("module", [
    mr(-8), mrl(Fraction(1, 3), Fraction(49, 9)), mrl(Fraction(-5, 2), Fraction(9, 4)),
    mrl(Fraction(2, 5), Fraction(1024, 25)), mrl(-5, 9), mrl(-3, 1)],
    ids=lambda m: f"{m.kind}-r{m.r}-l{m.lam}")
def test_quotient_check_fails_when_a_level_of_w_is_missing(module):
    # with level n cut from W, the quotient at n is all of V_n, and W_n, which
    # lowers into W_(n-1), lies in the kernel the check must find
    top = max(row["level"] for row in classify_module(module).per_level)
    w = build_submodule(module, top)
    old = bfs_span_dims(module, top, detect_singular_orders(module))
    for n in w:
        cut = {k: v for k, v in w.items() if k != n}
        old_cut = {k: v for k, v in old.items() if k != n}
        assert _quotient_has_no_singular(module, cut, n) == \
            fraction_quotient_check(module, old_cut, n), \
            f"level {n}"


def test_raising_words_reduce_to_ap_atp_ltp_order():
    # [[x, y]] = xy - SIGN[x, y] yx: ap and atp anticommute with Ltp, their
    # commutator is a multiple of Ltp, and atp^2 = -ap^2, so every raising
    # word is a combination of ap^k atp^a Ltp^m with a in {0, 1}
    assert SIGN["ap", "Ltp"] == SIGN["atp", "Ltp"] == -1
    assert STRUCTURE_TABLE[("ap", "Ltp")].is_zero()
    assert STRUCTURE_TABLE[("atp", "Ltp")].is_zero()
    assert SIGN["ap", "atp"] == 1
    assert list(STRUCTURE_TABLE[("ap", "atp")].terms) == ["Ltp"]
    assert SIGN["ap", "ap"] == SIGN["atp", "atp"] == -1
    assert STRUCTURE_TABLE[("atp", "atp")] == -STRUCTURE_TABLE[("ap", "ap")]
    for module in (mr(Fraction(7, 2)), mrl(-5, 9)):
        for n in range(13):
            for ket in enumerate_level(module, n):
                v = Vector(module, {ket: 1})
                ltp = act("Ltp", v)
                assert act("atp", act("ap", v)) == act("ap", act("atp", v)) + 4 * ltp, ket
                assert act("Ltp", act("ap", v)) == -act("ap", ltp), ket
                assert act("Ltp", act("atp", v)) == -act("atp", ltp), ket


def test_builder_refuses_ap_images_on_one_leading_column(monkeypatch, capsys):
    real = submodule_quotient._raised

    def collapsed(module, gen, rows, n):
        # every row of W sent where the first one goes, each image its own
        # dict: two of them lead on one column
        images = real(module, gen, rows, n)
        return [dict(images[0]) for _ in images] if gen == "ap" else images

    monkeypatch.setattr(submodule_quotient, "_raised", collapsed)
    with pytest.raises(ConsistencyError, match="distinct columns"):
        build_submodule(mr(-8), 18)
    assert main(["classify", "--kind", "mr", "--r=-8"]) == 1
    assert "mathematical check failed" in capsys.readouterr().err


def test_builder_refuses_a_zero_ap_image(monkeypatch, capsys):
    real = submodule_quotient._raised

    def zeroed(module, gen, rows, n):
        # the first ap image of W's rows is zero, as if ap had a kernel on W
        images = real(module, gen, rows, n)
        return [{}] + images[1:] if gen == "ap" and images else images

    monkeypatch.setattr(submodule_quotient, "_raised", zeroed)
    with pytest.raises(ConsistencyError, match="distinct columns"):
        build_submodule(mr(-8), 18)
    assert main(["classify", "--kind", "mr", "--r=-8"]) == 1
    assert "mathematical check failed" in capsys.readouterr().err


def test_shared_rows_are_never_mutated(monkeypatch):
    # a row dict of W is shared by W's piece, by the pivot table of
    # `sparse_echelon` and by the ap images of the level above: none may be
    # updated in place, by the builder or by the quotient check; nor may the
    # column map of a level, which every module of its kind shares
    built = []
    real = submodule_quotient.build_submodule

    def recorded(module, max_level):
        w = real(module, max_level)
        built.append((module, w, copy.deepcopy(w)))
        return w

    maps = {}
    real_columns = verma._level_columns

    def recorded_columns(kind, n):
        columns = real_columns(kind, n)
        maps.setdefault((kind, n), (columns, copy.deepcopy(columns)))
        return columns

    monkeypatch.setattr(submodule_quotient, "build_submodule", recorded)
    for module in (verma, singular_solver):
        monkeypatch.setattr(module, "_level_columns", recorded_columns)
    for module in (mr(-8), mrl(-5, 9)):
        assert classify_module(module).dimension is not None  # the check ran
    assert len(built) == 2
    for module, w, pieces in built:
        assert w == pieces, module
    sweep = mrl(Fraction(1, 3), Fraction(5, 7))
    for n in range(1, 13):
        for sector in sectors_for_level(n):
            find_singular(sweep, n, sector)
    assert {kind for kind, _ in maps} == {"Mr", "MrLambda"}
    assert ("MrLambda", 12) in maps  # the sweep reached its top
    for (kind, n), (columns, before) in maps.items():
        assert columns == before, (kind, n)
        assert columns == {ket: j for j, ket in enumerate(_level_kets(kind, n))}, (kind, n)
    # every row reaches a ready row, one of which is not primitive
    ready = {0: {0: 2, 1: 4, 3: -6}, 1: {1: 3, 2: 1}, 4: {4: 5}}
    before = copy.deepcopy(ready)
    linalg.sparse_echelon([{0: 1, 1: 1, 4: 2}, {1: 6, 3: 1}, {4: 2, 5: 1}], ready)
    assert ready == before
