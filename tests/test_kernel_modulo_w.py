"""The kernel of the lowering pair modulo a submodule, and the maximal
submodule J it builds.

J_0 = 0, and J_n is the set of v in V_n whose am and atm images both lie in
J_(n-1), since am and atm generate the lowering part of the algebra.  So
`lowering_kernel` with the level below of J passed as `w` gives J level by
level, with no singular vector and no closed form, and J must be W.
"""

from fractions import Fraction

import pytest

from reference import _int_rows, dense_piece, rank, sector_pieces
from z2rep import linalg
from z2rep.graded_algebra import DEGREE, degree_add
from z2rep.singular_solver import lowering_kernel, sectors_for_level
from z2rep.submodule_quotient import (_quotient_has_no_singular, build_submodule,
                                      classify_module)
from z2rep.verma import VermaModule, Vector, _sector_kets, act, enumerate_level


def mr(r):
    return VermaModule("Mr", Fraction(r))


def mrl(r, lam):
    return VermaModule("MrLambda", Fraction(r), Fraction(lam))


def table_top(module):
    return max(row["level"] for row in classify_module(module).per_level)


def assert_lowers_into(module, level, sector, kets, kernel, below):
    """am v and atm v lie in `below`, the piece of a submodule at level-1."""
    pieces = sector_pieces(module, level - 1, below)
    for coords in kernel:
        v = Vector(module, dict(zip(kets, coords)))
        for gen in ("am", "atm"):
            target = degree_add(sector, DEGREE[gen])
            targets = _sector_kets(module.kind, level - 1, target)
            rows = dense_piece(pieces[target], len(targets))[0]
            image = act(gen, v).coords(targets)
            assert rank(rows + [image]) == len(rows), \
                f"level {level} sector {sector}: {gen} v is not in W"


def test_kernel_modulo_w_at_the_first_level_above_w():
    # W_3 is spanned by the singular pair; the kernel over W_3 at level 4 is W_4
    module = mrl(Fraction(1, 3), Fraction(49, 9))
    w = build_submodule(module, 4).pieces
    kets, kernel = lowering_kernel(module, 4, (0, 0), {3: w[3]})
    assert len(kernel) == 2
    assert_lowers_into(module, 4, (0, 0), kets, kernel, w[3])
    assert kernel == linalg.echelon_to_rref(
        *dense_piece(sector_pieces(module, 4, w[4])[(0, 0)], len(kets)))


@pytest.mark.parametrize("module", [mrl(-5, 9), mrl(-3, 1), mrl(-3, 9), mrl(-9, 1)],
                         ids=lambda m: f"{m.kind}-r{m.r}-l{m.lam}")
def test_kernel_modulo_w_lowers_into_w(module):
    # two singular orders: W at the level below holds both pairs' images
    w = build_submodule(module, table_top(module)).pieces
    for n in w:
        if n - 1 not in w:
            continue
        for sector in sectors_for_level(n):
            kets, kernel = lowering_kernel(module, n, sector, {n - 1: w[n - 1]})
            assert kernel, f"level {n} sector {sector}"
            assert_lowers_into(module, n, sector, kets, kernel, w[n - 1])


J_MODULES = ([mr(-4), mr(-8), mr(-12), mr(-24), mr(Fraction(1, 3))]
             + [mrl(Fraction(1, 3), Fraction(49, 9)), mrl(-5, 9), mrl(-3, 1), mrl(-3, 9),
                mrl(-9, 1), mrl(Fraction(1, 3), Fraction(5, 7))])


@pytest.mark.parametrize("module", J_MODULES, ids=lambda m: f"{m.kind}-r{m.r}-l{m.lam}")
def test_maximal_submodule_is_w_sector_by_sector(module):
    top = table_top(module)
    w = build_submodule(module, top).pieces
    j = {0: {}}
    for n in range(1, top + 1):
        j[n] = {}
        column = {ket: c for c, ket in enumerate(enumerate_level(module, n))}
        for sector in sectors_for_level(n):
            kets, kernel = lowering_kernel(module, n, sector, {n - 1: j[n - 1]})
            rows = [{column[kets[t]]: x for t, x in enumerate(row) if x}
                    for row in _int_rows(kernel)]
            j[n].update({min(row): row for row in rows})
            assert kernel == linalg.echelon_to_rref(
                *dense_piece(sector_pieces(module, n, w.get(n, {}))[sector], len(kets))), \
                f"level {n} sector {sector}"


@pytest.mark.parametrize("module", [mr(-8), mrl(Fraction(1, 3), Fraction(49, 9)), mrl(-5, 9)],
                         ids=lambda m: f"{m.kind}-r{m.r}-l{m.lam}")
def test_zero_kernel_modulo_w_takes_the_sparse_exit(module, monkeypatch):
    # W's rows sit in the pivot table of the full-rank exit: a zero kernel
    # modulo W is decided there, and never reaches the kernel read-off, the
    # only caller of echelon_to_rref on a command path
    top = table_top(module)
    w = build_submodule(module, top)

    def refuse(*args):
        raise AssertionError("a zero kernel reached the kernel read-off")

    monkeypatch.setattr(linalg, "echelon_to_rref", refuse)
    assert all(_quotient_has_no_singular(w, n) for n in range(1, top + 1))
