"""The CLI's verdicts on drawn modules, against the benchmark's oracle.

`bench/oracle.py` re-derives every expectation from the paper's closed forms
and imports nothing from z2rep, so it is loaded here read-only from its path.
Two-order `MrLambda` modules are run, but not checked: the oracle has no
closed form for their verdicts, and `singular` exits 1 on them (ROADMAP
item 6).
"""

import contextlib
import importlib.util
import io
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from z2rep.cli import main

_spec = importlib.util.spec_from_file_location(
    "bench_oracle", Path(__file__).resolve().parents[1] / "bench" / "oracle.py")
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

rational = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
order = st.integers(0, 3)


@st.composite
def modules(draw):
    """(kind, r, lambda): integer and fractional r, r = -2M, square and
    non-square lambda of both signs; lambda = 0 is no module."""
    r = draw(st.one_of(rational, st.integers(-6, 3).map(Fraction)))
    if draw(st.booleans()):
        return "Mr", draw(st.one_of(st.just(r), order.map(lambda M: Fraction(-2 * M)))), None
    lam = draw(st.one_of(order.map(lambda M: (r + 2 * M) ** 2), rational).filter(bool))
    return "MrLambda", r, lam


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)
    return code, out.getvalue()


def module_argv(kind, r, lam):
    argv = ["--kind", "mr" if kind == "Mr" else "mrl", f"--r={oracle.fmt(r)}"]
    return argv + ([f"--lambda={oracle.fmt(lam)}"] if lam is not None else [])


def two_orders(kind, r, lam):
    return len(oracle.singular_orders(kind, r, lam)) > 1


@settings(max_examples=40, deadline=None)
@given(modules())
def test_classify_agrees_with_oracle(module):
    code, out = run(["classify", *module_argv(*module)])
    if not two_orders(*module):
        kind, r, lam = module
        assert oracle.check_classify({"kind": kind, "r": r, "lam": lam}, code, out) is None


@settings(max_examples=40, deadline=None)
@given(modules(), st.integers(1, 6))
def test_singular_sweep_agrees_with_oracle(module, cap):
    code, out = run(["singular", *module_argv(*module), "--sweep",
                     "--level-cap", str(cap)])
    if not two_orders(*module):
        kind, r, lam = module
        p = {"kind": kind, "r": r, "lam": lam, "level_cap": cap}
        assert oracle.check_singular(p, code, out) is None


@st.composite
def chains(draw):
    n = draw(st.integers(1, 12))
    h = n // 2  # closing coefficients: (n - 1) // 2 on an odd chain is n // 2
    return n, draw(rational), draw(st.lists(rational, min_size=h, max_size=h))


@settings(max_examples=40, deadline=None)
@given(chains())
def test_cartan_agrees_with_oracle(chain):
    n, r, c = chain
    argv = ["cartan", "--n", str(n), f"--r={oracle.fmt(r)}"]
    code, out = run(argv + (["--c=" + ",".join(oracle.fmt(x) for x in c)] if c else []))
    assert oracle.check_cartan({"n": n, "r": r, "c": c}, code, out) is None
