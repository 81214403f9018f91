"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  All
arithmetic is exact, so every comparison is equality (zero residual), never a
tolerance.
"""

from fractions import Fraction

from z2rep import linalg
from z2rep.cartan_modules import build_h_module, classify, find_invariant_subspace
from z2rep.graded_algebra import GENERATORS, verify_axioms
from z2rep.rationals import sample_rationals
from z2rep.singular_solver import (closed_form, closed_form_family_kets,
                                   find_singular, proportionality,
                                   recurrence_solve, sectors_for_level,
                                   verify_rtilde_relations)
from z2rep.submodule_quotient import (build_submodule, chi11_membership,
                                      classify_module, membership_matrix,
                                      quotient_dims, submodule_basis, verma_dim)
from z2rep.verma import (VermaModule, Vector, enumerate_level,
                         representation_residual)


def report(num: int, description: str, ok: bool, detail: str = ""):
    line = f"[acceptance] criterion {num:02d} {'PASS' if ok else 'FAIL'} - {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def finding(text: str):
    print(f"[acceptance] FINDING - {text}")


def non_integer(x: Fraction) -> bool:
    return x.denominator != 1


def mr_nonsingular(x: Fraction) -> bool:
    # r + 2M != 0 for every nonnegative integer M
    return not (x.denominator == 1 and x <= 0 and x.numerator % 2 == 0)


def test_criterion_01_algebra_axioms():
    rep = verify_axioms()
    ok = (rep.passed and rep.antisymmetry_pairs == 100
          and rep.degree_pairs == 100 and rep.jacobi_triples == 1000)
    report(1, "graded antisymmetry, degree additivity, Jacobi on 1000 triples", ok)


def test_criterion_02_representation_oracle():
    bad = 0
    modules = [VermaModule("Mr", r) for r in sample_rationals(5, seed=101)]
    modules += [VermaModule("MrLambda", r, lam)
                for r, lam in zip(sample_rationals(5, seed=102),
                                  sample_rationals(5, seed=103))]
    for mod in modules:
        for n in range(9):
            for ket in enumerate_level(mod, n):
                vec = Vector(mod, {ket: Fraction(1)})
                for g1 in GENERATORS:
                    for g2 in GENERATORS:
                        if not representation_residual(g1, g2, vec).is_zero():
                            bad += 1
    report(2, "zero residual for 100 generator pairs, levels 0..8, "
              "5 seeded modules per kind", bad == 0, f"violations={bad}")


def test_criterion_03_singular_existence():
    problems = []
    for M in range(7):
        mod = VermaModule("Mr", Fraction(-2 * M))
        for sector, which in (((0, 1), "chi01"), ((1, 0), "chi10")):
            rep = find_singular(mod, 2 * M + 1, sector)
            chi = closed_form(mod, which, M)
            if len(rep.nullspace) != 1 or proportionality(chi, rep.nullspace[0]) in (None, 0):
                problems.append((M, sector))
        rep = find_singular(mod, 2 * (2 * M + 1), (1, 1))
        chi = closed_form(mod, "chi11", M)
        if len(rep.nullspace) != 1 or proportionality(chi, rep.nullspace[0]) in (None, 0):
            problems.append((M, (1, 1)))
        rep = find_singular(mod, 2 * (2 * M + 1), (0, 0))
        if rep.nullspace:
            problems.append((M, (0, 0)))
    report(3, "M=0..6: odd sectors carry exactly the closed-form lines at "
              "level 2M+1, (1,1) at 2(2M+1), (0,0) empty",
           not problems, f"problems={problems}")


def test_criterion_04_singular_nonexistence():
    hits = []
    for r in sample_rationals(20, seed=104, predicate=mr_nonsingular):
        mod = VermaModule("Mr", r)
        for level in range(1, 14):
            for sector in sectors_for_level(level):
                if find_singular(mod, level, sector).nullspace:
                    hits.append(("Mr", r, level, sector))
    lam_stream = iter(sample_rationals(200, seed=106))
    for r in sample_rationals(20, seed=105):
        lam = next(lam_stream)
        while any((r + 2 * M) ** 2 == lam for M in range(21)):
            lam = next(lam_stream)
        mod = VermaModule("MrLambda", r, lam)
        for level in range(1, 14):
            for sector in sectors_for_level(level):
                if find_singular(mod, level, sector).nullspace:
                    hits.append(("MrLambda", r, lam, level, sector))
    report(4, "20 seeded generic modules per kind: no singular vectors at "
              "levels 1..13", not hits, f"hits={hits}")


def test_criterion_05_mrl_closed_forms():
    problems = []
    for M in range(6):
        for r in sample_rationals(3, seed=110 + M, predicate=non_integer):
            lam = (r + 2 * M) ** 2
            mod = VermaModule("MrLambda", r, lam)
            for sector, which in (((0, 1), "chi01"), ((1, 0), "chi10")):
                rep = find_singular(mod, 2 * M + 1, sector)
                chi = closed_form(mod, which, M)
                if (len(rep.nullspace) != 1
                        or proportionality(chi, rep.nullspace[0]) in (None, 0)):
                    problems.append((M, str(r), sector))
            top = max(2 * M + 2, 2 * (2 * M + 1) if M <= 2 else 0)
            for level in range(2, top + 1, 2):
                for sector in sectors_for_level(level):
                    if find_singular(mod, level, sector).nullspace:
                        problems.append((M, str(r), level, sector))
    report(5, "M=0..5, 3 seeded (r,lambda) pairs: level-(2M+1) null spaces "
              "match the closed forms up to scale; even levels empty",
           not problems, f"problems={problems}")


def test_criterion_06_rtilde_relations():
    problems = []
    findings = []
    for M in range(7):
        mod = VermaModule("Mr", Fraction(-2 * M))
        for check in verify_rtilde_relations(mod, M):
            if not check.matches:
                problems.append(("Mr", M, check.which))
    for M in range(5):
        for r in sample_rationals(2, seed=120 + M, predicate=non_integer):
            lam = (r + 2 * M) ** 2
            mod = VermaModule("MrLambda", r, lam)
            for check in verify_rtilde_relations(mod, M):
                if check.computed is None:
                    problems.append(("MrLambda", M, str(r), check.which,
                                     "not proportional"))
                elif check.computed != check.stated:
                    findings.append(
                        f"MrLambda M={M} r={r}: Rt {check.which} coefficient "
                        f"computed {check.computed} vs stated {check.stated}")
    for text in findings:
        finding(text)
    report(6, "Rt maps the odd-sector singular pair with coefficient 2M+1 "
              "(one-dim family; exact) and the stated 1-r is compared for the "
              "two-dim family (mismatch recorded as finding)",
           not problems,
           f"problems={problems}; findings={len(findings)}")


def test_criterion_07_membership():
    problems = []
    for M in range(7):
        rep = chi11_membership(M)
        if not rep.residual_zero or rep.determinant == 0:
            problems.append(M)
    m4 = [[2, 0, 0, 0, 0],
          [48, 16, 2, 0, 0],
          [32, 64, 48, 16, 2],
          [0, 0, 32, 64, 48],
          [0, 0, 0, 0, 32]]
    m5 = [[2, 0, 0, 0, 0, 0],
          [80, 20, 2, 0, 0, 0],
          [160, 160, 80, 20, 2, 0],
          [0, 64, 160, 160, 80, 20],
          [0, 0, 0, 64, 160, 160],
          [0, 0, 0, 0, 0, 64]]
    if membership_matrix(4) != m4:
        problems.append("matrix-4")
    if membership_matrix(5) != m5:
        problems.append("matrix-5")
    report(7, "chi11 decomposes uniquely over raising words on the singular "
              "pair for M=0..6; M=4,5 coefficient matrices match entry-for-entry",
           not problems, f"problems={problems}")


def test_criterion_08_submodule_dimension_law():
    problems = []
    notes = 0
    for M in range(5):
        mod = VermaModule("Mr", Fraction(-2 * M))
        w = build_submodule(mod, 2 * M + 1 + 8)
        for q in range(9):
            level = 2 * M + 1 + q
            bfs_dim = w.dim(level)
            if q <= 2 * M:
                basis = submodule_basis(mod, M, q)  # raises if rank deficient
                if len(basis) != 2 * (q + 1) or bfs_dim != 2 * (q + 1):
                    problems.append(("Mr", M, q))
            else:
                # beyond the saturation bound the submodule fills the level
                notes += 1
                if bfs_dim != verma_dim(mod, level):
                    problems.append(("Mr-saturation", M, q))
    for M in range(5):
        r = sample_rationals(1, seed=130 + M, predicate=non_integer)[0]
        mod = VermaModule("MrLambda", r, (r + 2 * M) ** 2)
        w = build_submodule(mod, 2 * M + 1 + 8)
        for q in range(9):
            basis = submodule_basis(mod, M, q)
            bfs_dim = w.dim(2 * M + 1 + q)
            if len(basis) != 2 * (q + 1) or bfs_dim != 2 * (q + 1):
                problems.append(("MrLambda", M, q))
    report(8, "explicit spanning family has exact rank 2(q+1) and agrees with "
              "the independently generated submodule span (one-dim family up "
              "to its saturation bound q=2M, then the span fills the level; "
              "two-dim family for all q<=8)",
           not problems, f"problems={problems}; saturated-offsets-checked={notes}")


def test_criterion_09_finite_quotients():
    problems = []
    for M in range(6):
        verdict = classify_module(VermaModule("Mr", Fraction(-2 * M)))
        quots = [row["quotient_dim"] for row in verdict.per_level]
        expected = list(range(1, 2 * M + 2)) + list(range(2 * M, 0, -1)) + [0, 0]
        if verdict.case != "ii" or verdict.dimension != (2 * M + 1) ** 2:
            problems.append((M, "verdict"))
        if quots != expected:
            problems.append((M, "per-level", quots))
    report(9, "r=-2M gives case ii with total (2M+1)^2 and per-level "
              "1..2M+1,2M..1,0 for M=0..5", not problems, f"problems={problems}")


def test_criterion_10_constant_quotients():
    problems = []
    for M in range(4):
        r = sample_rationals(1, seed=140 + M, predicate=non_integer)[0]
        mod = VermaModule("MrLambda", r, (r + 2 * M) ** 2)
        cap = 2 * M + 1 + 6
        verdict = classify_module(mod, max_level=cap)
        if verdict.case != "iv" or verdict.M != M or verdict.dimension is not None:
            problems.append((M, "verdict"))
        for row in verdict.per_level:
            want = (verma_dim(mod, row["level"]) if row["level"] < 2 * M + 1
                    else 4 * M + 2)
            if row["quotient_dim"] != want:
                problems.append((M, row["level"], row["quotient_dim"]))
    report(10, "constrained two-dim family gives case iv with per-level "
               "quotient dimension 4M+2 from level 2M+1 up to the cap",
           not problems, f"problems={problems}")


def _even_c_from_roots(roots):
    poly = [Fraction(1)]
    for root in roots:
        poly = linalg.poly_mul(poly, [-Fraction(root), Fraction(1)])
    return [-poly[j] for j in range(len(roots))]


def test_criterion_11_cartan_classification():
    rstream = iter(sample_rationals(40, seed=150))
    root_stream = iter(sample_rationals(60, seed=151, lo=-6, hi=6))
    seeds = []
    for n in (1, 3, 5, 7):
        # an odd chain reduces to an even tail with the same closing
        # coefficients, so rational closing scalars are arranged the same way
        roots = [next(root_stream) for _ in range((n - 1) // 2)]
        seeds.append(build_h_module(n, next(rstream), _even_c_from_roots(roots)))
    for n in (2, 4, 6, 8):  # even chains with rational closing scalars
        roots = [next(root_stream) for _ in range(n // 2)]
        seeds.append(build_h_module(n, next(rstream), _even_c_from_roots(roots)))
    seeds.append(build_h_module(4, next(rstream),
                                _even_c_from_roots([Fraction(0), Fraction(2)])))
    seeds.append(build_h_module(6, next(rstream),
                                _even_c_from_roots([Fraction(1), Fraction(1),
                                                    Fraction(-3, 2)])))
    assert len(seeds) == 10
    problems = []
    for hm in seeds:
        rep = classify(hm)
        if sum(c.dim for c in rep.constituents) != hm.n:
            problems.append((hm.n, "dims"))
        if not all(c.kind in ("nu_r", "nu_r_lambda") for c in rep.constituents):
            problems.append((hm.n, [c.kind for c in rep.constituents]))
        if not all(c.r == hm.r for c in rep.constituents):
            problems.append((hm.n, "r drifted"))
        if hm.n % 2 == 1 and hm.n > 1:
            if find_invariant_subspace(hm) is None:
                problems.append((hm.n, "odd chain lacked invariant subspace"))
    report(11, "10 seeded chain modules with rational closing scalars "
               "decompose into one- and two-dimensional constituents only; "
               "odd chains above dimension 1 are always reducible",
           not problems, f"problems={problems}")


def _family_lists_from_closed_form(which, M, module):
    source = {"mu-nu": "chi01", "alpha-beta": "chi10",
              "gamma-delta": "chi11", "mu-nu-lambda": "chi01"}[which]
    chi = closed_form(module, source, M)
    return {fam: [chi.coeff(k) for k in kets]
            for fam, kets in closed_form_family_kets(which, M).items()}


def _same_up_to_scale(sol, ref):
    flat_sol = [x for fam in sorted(sol) for x in sol[fam]]
    flat_ref = [x for fam in sorted(ref) for x in ref[fam]]
    pairs = [(a, b) for a, b in zip(flat_sol, flat_ref) if a or b]
    if any((a == 0) != (b == 0) for a, b in pairs):
        return False
    if not pairs:
        return True
    scale = pairs[0][1] / pairs[0][0]
    return all(b == scale * a for a, b in pairs)


def test_criterion_12_recurrence_cross_check():
    problems = []
    for M in range(7):
        mod = VermaModule("Mr", Fraction(-2 * M))
        for which, args in (("mu-nu", (M, -2 * M)),
                            ("alpha-beta", (M, -2 * M)),
                            ("gamma-delta", (2 * M + 1, -2 * M))):
            sols = recurrence_solve(which, *args)
            if len(sols) != 1 or not _same_up_to_scale(
                    sols[0], _family_lists_from_closed_form(which, M, mod)):
                problems.append((which, M))
        r = sample_rationals(1, seed=160 + M, predicate=non_integer)[0]
        lam = (r + 2 * M) ** 2
        sols = recurrence_solve("mu-nu-lambda", M, r, lam)
        ref = _family_lists_from_closed_form(
            "mu-nu-lambda", M, VermaModule("MrLambda", r, lam))
        if len(sols) != 1 or not _same_up_to_scale(sols[0], ref):
            problems.append(("mu-nu-lambda", M))
    for M in range(1, 7):
        if recurrence_solve("rho-sigma", M, Fraction(-11, 7)) != []:
            problems.append(("rho-sigma", M))
        if recurrence_solve("rho-sigma", M, -2 * M) != []:
            problems.append(("rho-sigma-constrained", M))
    for half in (2, 4, 6, 8, 10, 12):
        if recurrence_solve("gamma-delta", half, 1 - half) != []:
            problems.append(("gamma-delta-even", half))
    report(12, "recurrence systems reproduce every closed-form coefficient "
               "family for M=0..6 and are trivial for the vanishing sectors",
           not problems, f"problems={problems}")
