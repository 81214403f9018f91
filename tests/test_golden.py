"""CLI outputs that must stay byte-identical across engine changes.

Each case's stdout, in JSON and in CSV, is stored under tests/golden/.  To
record a new case, add it to CASES and run this file as a script from the
repository root: ``PYTHONPATH=src python tests/test_golden.py``.  It writes
missing files only and never overwrites a recorded one.
"""

from pathlib import Path

import pytest

from z2rep.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
FORMATS = ("json", "csv")

CASES = {
    **{f"classify_mr_M{M}": ("classify", "--kind", "mr", f"--r={-2 * M}")
       for M in range(9)},
    # single order, non-integer r: lambda = (r + 2M)^2 for M = 1, 2, 3
    "classify_mrl_r1_3_M1": ("classify", "--kind", "mrl", "--r=1/3", "--lambda=49/9"),
    "classify_mrl_r-5_2_M2": ("classify", "--kind", "mrl", "--r=-5/2", "--lambda=9/4"),
    "classify_mrl_r2_5_M3": ("classify", "--kind", "mrl", "--r=2/5",
                             "--lambda=1024/25"),
    # two orders: integer r with (r + 2M)^2 = lambda at M and M'
    "classify_mrl_r-5_l9": ("classify", "--kind", "mrl", "--r=-5", "--lambda=9"),
    "classify_mrl_r-3_l1": ("classify", "--kind", "mrl", "--r=-3", "--lambda=1"),
    "classify_mrl_r-1_l1": ("classify", "--kind", "mrl", "--r=-1", "--lambda=1"),
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
    # the invariant-subspace search on chain modules
    "cartan_n12_r0": ("cartan", "--n", "12", "--r", "0", "--c", "1,0,2,0,3,0"),
    "cartan_n4_c0_1": ("cartan", "--n", "4", "--r", "0", "--c", "0,1"),
    "cartan_n4_c0_0": ("cartan", "--n", "4", "--r", "0", "--c", "0,0"),
    "cartan_n4_c2_0": ("cartan", "--n", "4", "--r", "0", "--c", "2,0"),
    "cartan_n6_r2": ("cartan", "--n", "6", "--r", "2", "--c", "6,-11,6"),
    "cartan_n6_r1_3": ("cartan", "--n", "6", "--r", "1/3", "--c", "0,-2,1"),
    "cartan_n7_r1_2": ("cartan", "--n", "7", "--r", "1/2", "--c", "1,2,3"),
    "verify_algebra": ("verify-algebra",),
    "bracket_table": ("bracket-table",),
}


def run(argv, fmt, capsys) -> str:
    code = main([*argv, "--format", fmt])
    assert code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, fmt, capsys):
    expected = (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")
    assert run(CASES[name], fmt, capsys) == expected


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        for fmt in FORMATS:
            path = GOLDEN / f"{name}.{fmt}"
            if path.exists():
                continue
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main([*argv, "--format", fmt]) == 0
            path.write_text(buf.getvalue(), encoding="utf-8")
            print("recorded", path.name)
