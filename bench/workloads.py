"""Seeded workloads: each is an endless sequence of rounds of operations.

A round is a fixed mix of operation kinds; the seed draws every parameter
inside the mix and the order of the round.  A round of 15 kinds puts the
median and the 90th percentile in the middle of the 8th and 14th cheapest
kind rather than on a boundary between two, so runs with different seeds
measure the same thing.  The benchmark runs whole rounds only.

Draw ranges are set by cost, and they leave out three kinds of input (see
README.md): Mr with M > 32, closing coefficients of far more than 40 bits,
and MrLambda modules with two singular orders.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from oracle import fmt

GENERATORS = ("R", "Rt", "Lp", "Lm", "Ltp", "Ltm", "ap", "am", "atp", "atm")


@dataclass(frozen=True)
class Op:
    """One closed-loop request: a CLI argv, or a residual sweep on one ket."""
    check: str  # key into oracle.CHECKS
    params: dict
    argv: tuple[str, ...] = ()


def _nonint(rng: random.Random, span: int = 60) -> Fraction:
    """A non-integer rational p/q, q in {3, 5, 7}: never meets an integer constraint."""
    q = rng.choice((3, 5, 7))
    p = rng.randrange(1, span)
    while p % q == 0:
        p += 1
    return Fraction(rng.choice((-1, 1)) * p, q)


def _lam_generic(rng: random.Random) -> Fraction:
    # an integer is never (r + 2M)^2 for r with denominator 3, 5 or 7
    return Fraction(rng.choice((-1, 1)) * rng.randrange(1, 50))


def _module_argv(kind: str, r: Fraction, lam: Fraction | None) -> list[str]:
    argv = ["--kind", "mr" if kind == "Mr" else "mrl", f"--r={fmt(r)}"]
    return argv + ([f"--lambda={fmt(lam)}"] if lam is not None else [])


def _classify(kind, r, lam=None) -> Op:
    return Op("classify", {"kind": kind, "r": r, "lam": lam},
              ("classify", *_module_argv(kind, r, lam)))


def _sweep(kind, r, lam, cap) -> Op:
    return Op("singular", {"kind": kind, "r": r, "lam": lam, "level_cap": cap},
              ("singular", *_module_argv(kind, r, lam), "--sweep",
               "--level-cap", str(cap)))


def classify_trunc(rng: random.Random) -> list[Op]:
    # case ii for M = 1..6 (the same six modules every round), case iv for
    # M in (1, 6, 6, 7, 7); the median falls on M = 3 of case ii, p90 on M = 5
    ops = [_classify("Mr", Fraction(-2 * M)) for M in range(1, 7)]
    for M in (1, 6, 6, 7, 7):  # single order: r is not an integer
        r = _nonint(rng)
        ops.append(_classify("MrLambda", r, (r + 2 * M) ** 2))
    ops += [_classify("Mr", _nonint(rng)) for _ in range(2)]  # case i
    ops += [_classify("MrLambda", _nonint(rng), _lam_generic(rng)) for _ in range(2)]  # iii
    rng.shuffle(ops)
    return ops


def singular_sweep(rng: random.Random) -> list[Op]:
    ops = [_sweep("Mr", _nonint(rng), None, 24) for _ in range(5)]
    for _ in range(2):
        # integer r: odd negative or positive is generic, even non-positive is constrained
        ops.append(_sweep("Mr", Fraction(rng.choice((-1, 1)) * (2 * rng.randrange(12) + 1)),
                          None, 24))
        ops.append(_sweep("Mr", Fraction(-2 * rng.randrange(12)), None, 24))
        ops.append(_sweep("MrLambda", _nonint(rng), _lam_generic(rng), 16))
        M, r = rng.randrange(8), _nonint(rng)
        ops.append(_sweep("MrLambda", r, (r + 2 * M) ** 2, 16))
        # integer r > -M keeps the second root -r - M of (r + 2M)^2 = lambda negative
        M = rng.randrange(8)
        r = Fraction(rng.randrange(-M + 1, 12))
        ops.append(_sweep("MrLambda", r, (r + 2 * M) ** 2, 16))
    rng.shuffle(ops)
    return ops


def oracle(rng: random.Random) -> list[Op]:
    modules = [("Mr", _nonint(rng), None), ("MrLambda", _nonint(rng), _nonint(rng))]
    ops = []
    for kind, r, lam in modules:
        for n in range(9):  # levels 0..8
            for alpha in (0, 1):
                for m in range((n - alpha) // 2 + 1):
                    for beta in ((None,) if kind == "Mr" else (0, 1)):
                        ket = (alpha, n - alpha - 2 * m, m, beta)
                        ops.append(Op("residuals", {"kind": kind, "r": r,
                                                    "lam": lam, "ket": ket}))
    for i in range(len(ops) // 15, 0, -1):
        ops.insert(i * 15, Op("verify-algebra", {}, ("verify-algebra",)))
    return ops


def _bits_int(rng: random.Random, bits: int) -> int:
    """A signed integer of exactly `bits` bits; above 6 bits, within 1/8 of 2^(bits-1).

    Trial division in rational_roots costs about sqrt(|c_0|), so a narrow
    magnitude band keeps the cost of one draw close to that of the next.
    """
    low = 1 << (bits - 1)
    return rng.choice((-1, 1)) * (low + rng.randrange(low >> 3 if bits > 6 else low))


# (dimension n, coefficient bits, q(t) built from integer roots) for one
# round; bits None is the fixed chain of ROADMAP's baseline table.  The median
# falls on (4, 32) and p90 between the fixed chain and (2, 40), whose cost is
# trial division over a 40-bit constant term.
CHAINS = ((1, 0, False), (2, 40, False), (3, 16, False), (4, 32, False),
          (5, 24, False), (6, 40, True), (7, 4, False), (8, 24, False),
          (9, 32, False), (10, 16, True), (11, 8, False), (12, None, False),
          (2, 24, True), (4, 16, True), (6, 8, False))
FIXED_CHAIN = (0, (1, 0, 2, 0, 3, 0))


def cartan_chains(rng: random.Random) -> list[Op]:
    ops = []
    for n, bits, split in CHAINS:
        h = n // 2
        r = _nonint(rng, 20)
        if bits is None:
            r, c = FIXED_CHAIN
        elif split:
            # q(t) = prod (t - t_i) with integer roots: a chain that splits over Q
            c = [1]
            for _ in range(h):
                root = _bits_int(rng, max(2, bits // h))
                c = [0] + c
                for j in range(len(c) - 1):
                    c[j] -= root * c[j + 1]
            c = [-x for x in c[:h]]
        else:
            c = [_bits_int(rng, bits) for _ in range(h)]
        r, c = Fraction(r), [Fraction(x) for x in c]
        argv = ["cartan", "--n", str(n), f"--r={fmt(r)}"]
        if c:
            argv.append("--c=" + ",".join(fmt(x) for x in c))
        ops.append(Op("cartan", {"n": n, "r": r, "c": c}, tuple(argv)))
    rng.shuffle(ops)
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable[[random.Random], list[Op]]
    record_rounds: int  # rounds in the fixed prefix that is traced and digested
    zero_calls: tuple[str, ...]  # trace names predicted to make no calls


_CARTAN_ONLY = ("linalg.det", "linalg.char_poly", "linalg.rational_roots")
_ALGEBRA = ("graded_algebra.verify_axioms", "graded_algebra.bracket")

WORKLOADS = {w.name: w for w in (
    Workload("classify-trunc", classify_trunc, 3,
             _ALGEBRA + _CARTAN_ONLY + ("cartan_modules.",)),
    Workload("singular-sweep", singular_sweep, 3,
             _ALGEBRA + _CARTAN_ONLY + ("submodule_quotient.", "cartan_modules.")),
    Workload("oracle", oracle, 1,
             ("linalg.", "submodule_quotient.", "cartan_modules.")),
    Workload("cartan-chains", cartan_chains, 3,
             _ALGEBRA + ("verma.", "singular_solver.", "submodule_quotient.")),
)}


def rounds(name: str, seed: int):
    """The workload's endless, seed-determined sequence of rounds."""
    rng = random.Random(f"{name}:{seed}")
    make = WORKLOADS[name].make_round
    while True:
        yield make(rng)
