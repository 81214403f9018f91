"""CLI outputs that must stay byte-identical across engine changes.

Each case's stdout, in JSON and in CSV, is stored under tests/golden/.  To
record a new case, add it to CASES (or to FAILING, if the command exits 1)
and run this file as a script from the repository root:
``PYTHONPATH=src python tests/test_golden.py``.  It writes missing files only
and never overwrites a recorded one.
"""

import json
from pathlib import Path

import pytest

from z2rep.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
FORMATS = ("json", "csv")

CASES = {
    **{f"classify_mr_M{M}": ("classify", "--kind", "mr", f"--r={-2 * M}")
       for M in range(9)},
    # case ii at order 33, levels to 134: the input the old 32-order scan got wrong
    "classify_mr_M33": ("classify", "--kind", "mr", "--r=-66"),
    # single order, non-integer r: lambda = (r + 2M)^2 for M = 1, 2, 3
    "classify_mrl_r1_3_M1": ("classify", "--kind", "mrl", "--r=1/3", "--lambda=49/9"),
    "classify_mrl_r-5_2_M2": ("classify", "--kind", "mrl", "--r=-5/2", "--lambda=9/4"),
    "classify_mrl_r2_5_M3": ("classify", "--kind", "mrl", "--r=2/5",
                             "--lambda=1024/25"),
    # two orders: integer r with (r + 2M)^2 = lambda at M and M'
    "classify_mrl_r-5_l9": ("classify", "--kind", "mrl", "--r=-5", "--lambda=9"),
    "classify_mrl_r-3_l1": ("classify", "--kind", "mrl", "--r=-3", "--lambda=1"),
    "classify_mrl_r-1_l1": ("classify", "--kind", "mrl", "--r=-1", "--lambda=1"),
    # orders 10 and 11, levels to 44
    "classify_mrl_r-21_l1": ("classify", "--kind", "mrl", "--r=-21", "--lambda=1"),
    "classify_mrl_r-5_l9_max3": ("classify", "--kind", "mrl", "--r=-5", "--lambda=9",
                                 "--max-level", "3"),
    "classify_mrl_r-3_l1_max3": ("classify", "--kind", "mrl", "--r=-3", "--lambda=1",
                                 "--max-level", "3"),
    "classify_mrl_r-1_l1_max3": ("classify", "--kind", "mrl", "--r=-1", "--lambda=1",
                                 "--max-level", "3"),
    # generic parameters: cases i and iii
    "classify_mr_generic": ("classify", "--kind", "mr", "--r=7/2"),
    "classify_mrl_generic": ("classify", "--kind", "mrl", "--r=1", "--lambda=3"),
    # case ii with a level cap below the support of the quotient
    "classify_mr_M2_max3": ("classify", "--kind", "mr", "--r=-4", "--max-level", "3"),
    "dims_mr_r-16_max40": ("dims", "--kind", "mr", "--r=-16", "--max-level", "40"),
    # singular vectors, with the Rt coefficients on the singular pair and chi11
    "singular_mr_r-2_sweep12": ("singular", "--kind", "mr", "--r=-2", "--sweep",
                                "--level-cap", "12"),
    "singular_mr_r-4_level10": ("singular", "--kind", "mr", "--r=-4", "--level", "10"),
    "singular_mrl_r1_3_M1_sweep8": ("singular", "--kind", "mrl", "--r=1/3",
                                    "--lambda=49/9", "--sweep", "--level-cap", "8"),
    "singular_mrl_r-5_l9_sweep8": ("singular", "--kind", "mrl", "--r=-5", "--lambda=9",
                                   "--sweep", "--level-cap", "8"),
    # no singular vector at any level: every lowering map has full rank
    "singular_mr_r-1_3_sweep24": ("singular", "--kind", "mr", "--r=-1/3", "--sweep",
                                  "--level-cap", "24"),
    "singular_mrl_r2_7_l-5_sweep16": ("singular", "--kind", "mrl", "--r=2/7",
                                      "--lambda=-5", "--sweep", "--level-cap", "16"),
    # the invariant-subspace search on chain modules
    "cartan_n12_r0": ("cartan", "--n", "12", "--r", "0", "--c", "1,0,2,0,3,0"),
    "cartan_n4_c0_1": ("cartan", "--n", "4", "--r", "0", "--c", "0,1"),
    "cartan_n4_c0_0": ("cartan", "--n", "4", "--r", "0", "--c", "0,0"),
    "cartan_n4_c2_0": ("cartan", "--n", "4", "--r", "0", "--c", "2,0"),
    "cartan_n6_r2": ("cartan", "--n", "6", "--r", "2", "--c", "6,-11,6"),
    "cartan_n6_r1_3": ("cartan", "--n", "6", "--r", "1/3", "--c", "0,-2,1"),
    "cartan_n7_r1_2": ("cartan", "--n", "7", "--r", "1/2", "--c", "1,2,3"),
    # 24- to 40-bit closing coefficients
    "cartan_n2_c40bit": ("cartan", "--n", "2", "--r", "3", "--c", "1099511628211"),
    "cartan_n8_c24bit": ("cartan", "--n", "8", "--r", "1/5",
                         "--c=16777259,-12582917,9437189,-14680067"),
    # q(t) = (t - 1048583)(t + 786433)(t + 1): splits over Q with 20-bit roots
    "cartan_n6_split20": ("cartan", "--n", "6", "--r=-3",
                          "--c=824640274439,824640536589,262149"),
    # non-integer closing coefficients; the second splits at 1/3, -5/7 and 2
    "cartan_n6_c_frac": ("cartan", "--n", "6", "--r", "2/3", "--c=1/3,-5/7,2"),
    "cartan_n6_split_frac": ("cartan", "--n", "6", "--r", "1/2", "--c=-10/21,1,34/21"),
    # q(t) = t (t - 40961)(t + 3)(t + 65537)(t - 2/3)
    "cartan_n10_split": ("cartan", "--n", "10", "--r", "5",
                         "--c=0,-5368922114,18791374855/3,2684403715,-73735/3"),
    # odd chains: the tail closes on t (t - 7)(t + 11)(t - 13), or on 32-bit terms
    "cartan_n9_split": ("cartan", "--n", "9", "--r", "4/9", "--c=0,-1001,129,9"),
    "cartan_n11_c32bit": ("cartan", "--n", "11", "--r", "0",
                          "--c=2147483659,-1,0,3,-4294967311"),
    # the order of the constituents: q(t) = t (t + 3)^2 (t - 1), a repeated root
    "cartan_n8_repeated_lambda": ("cartan", "--n", "8", "--r", "1/2",
                                  "--c=0,9,-3,-5"),
    # three rational roots and an irreducible quadratic, times t
    "cartan_n12_three_lambda": ("cartan", "--n", "12", "--r", "2",
                                "--c=0,12,7,-37/2,2/3,29/6"),
    # an odd chain closing on t (t + 7)(t^2 - t + 2)
    "cartan_n9_lambda_unresolved": ("cartan", "--n", "9", "--r=-1", "--c=0,-14,5,-6"),
    # t^2 (t^2 - t + 2): one nu_r below the unresolved piece, three above
    "cartan_n8_t2_unresolved": ("cartan", "--n", "8", "--r", "0", "--c=0,0,-2,1"),
    # t (t^2 - 2)^2: one nu_r on either side of an 8-dimensional piece
    "cartan_n10_t_unresolved8": ("cartan", "--n", "10", "--r", "3", "--c=0,-4,0,4,0"),
    # (t^2 - 2)^2: the whole chain is one unresolved piece
    "cartan_n8_unresolved8": ("cartan", "--n", "8", "--r", "1", "--c=-4,0,4,0"),
    "cartan_n2_c0": ("cartan", "--n", "2", "--r", "5", "--c", "0"),
    "verify_algebra": ("verify-algebra",),
    "bracket_table": ("bracket-table",),
}

# exit code 1: one failure branch of verify_axioms each
FAILING = {
    "verify_algebra_mutate_antisymmetry": ("verify-algebra", "--mutate", "[R,R]=R"),
    "verify_algebra_mutate_degree": ("verify-algebra", "--mutate", "[R,Lp]=ap"),
    "verify_algebra_mutate_jacobi": ("verify-algebra", "--mutate", "[R,Lp]=Lp"),
    # a rational entry: the Jacobi sums run over the lcm of the denominators, 3
    "verify_algebra_mutate_jacobi_rational": ("verify-algebra", "--mutate", "{ap,am}=2/3*R"),
}


def run(argv, fmt, capsys, exit_code=0) -> str:
    code = main([*argv, "--format", fmt])
    assert code == exit_code
    return capsys.readouterr().out


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, fmt, capsys):
    expected = (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")
    assert run(CASES[name], fmt, capsys) == expected


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(FAILING))
def test_failing_output_matches_golden(name, fmt, capsys):
    expected = (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")
    assert run(FAILING[name], fmt, capsys, exit_code=1) == expected


@pytest.mark.parametrize("name", sorted(n for n, argv in CASES.items() if argv[0] == "classify"))
def test_dims_prints_the_table_of_classify(name, capsys):
    # `dims` up to the last level of a verdict prints its per-level table
    argv = CASES[name]
    verdict = json.loads(run(argv, "json", capsys))
    top = verdict["per_level"][-1]["level"]
    module_flags = argv[1:argv.index("--max-level")] if "--max-level" in argv else argv[1:]
    table = run(("dims", *module_flags, "--max-level", str(top)), "json", capsys)
    assert json.loads(table) == verdict["per_level"]


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    cases = [(name, argv, 0) for name, argv in CASES.items()]
    cases += [(name, argv, 1) for name, argv in FAILING.items()]
    for name, argv, exit_code in cases:
        for fmt in FORMATS:
            path = GOLDEN / f"{name}.{fmt}"
            if path.exists():
                continue
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main([*argv, "--format", fmt]) == exit_code
            path.write_text(buf.getvalue(), encoding="utf-8")
            print("recorded", path.name)
