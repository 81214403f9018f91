"""Lowest-weight Verma modules over the graded algebra.

Two families: a one-dimensional lowest weight space ("Mr", parameter r) and a
two-dimensional one ("MrLambda", parameters r and lambda != 0, where the odd
Cartan generator squares to lambda on the lowest weight space).  Basis kets
are indexed by (alpha, k, m) — one power of atp, k powers of ap, m powers of
Ltp applied to the lowest weight vector — plus a lowest-weight label beta for
the two-dimensional family.  Higher powers of atp never appear because
atp^2 = -ap^2 = -2*Lp inside the enveloping algebra.

All ten generator actions are implemented exactly over Fractions.  The
actions of Lp and Lm are not independent formulas: they are defined through
the enveloping relations Lp = -atp^2/2 and Lm = am^2/2, and certified against
the bracket table by `representation_residual`, which must vanish for every
generator pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .graded_algebra import (DEGREE, Element, STRUCTURE_TABLE, degree_add,
                             degree_dot)


class Ket(NamedTuple):
    alpha: int
    k: int
    m: int
    beta: int | None = None


def ket_sort_key(ket: Ket):
    # canonical order inside a level: ascending m, then k, then alpha, then beta
    return (ket.m, ket.k, ket.alpha, ket.beta or 0)


@dataclass(frozen=True)
class VermaModule:
    kind: str  # "Mr" | "MrLambda"
    r: Fraction
    lam: Fraction | None = None

    def __post_init__(self):
        if self.kind not in ("Mr", "MrLambda"):
            raise ValueError(f"unknown module kind {self.kind!r}")
        object.__setattr__(self, "r", Fraction(self.r))
        if self.kind == "MrLambda":
            if self.lam is None or Fraction(self.lam) == 0:
                raise ValueError("MrLambda requires a nonzero lambda")
            object.__setattr__(self, "lam", Fraction(self.lam))
        elif self.lam is not None:
            raise ValueError("Mr takes no lambda")

    def basis_vector(self, alpha: int, k: int, m: int, beta: int | None = None) -> "Vector":
        ket = Ket(alpha, k, m, beta)
        self._validate_ket(ket)
        return Vector(self, {ket: Fraction(1)})

    def _validate_ket(self, ket: Ket):
        if ket.alpha not in (0, 1) or ket.k < 0 or ket.m < 0:
            raise ValueError(f"bad ket {ket}")
        if self.kind == "Mr" and ket.beta is not None:
            raise ValueError("Mr kets carry no beta")
        if self.kind == "MrLambda" and ket.beta not in (0, 1):
            raise ValueError("MrLambda kets need beta in {0, 1}")

    def degree(self, ket: Ket) -> tuple[int, int]:
        b = ket.beta or 0
        return ((ket.alpha + ket.m + b) % 2, (ket.k + ket.m + b) % 2)


def level(ket: Ket) -> int:
    return ket.alpha + ket.k + 2 * ket.m


class Vector:
    """Finite rational linear combination of basis kets of one module."""

    __slots__ = ("module", "terms")

    def __init__(self, module: VermaModule, terms=None):
        self.module = module
        clean: dict[Ket, Fraction] = {}
        for ket, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                clean[ket] = c
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, ket: Ket) -> Fraction:
        return self.terms.get(ket, Fraction(0))

    def sorted_items(self) -> list[tuple[Ket, Fraction]]:
        return sorted(self.terms.items(), key=lambda it: ket_sort_key(it[0]))

    def level(self) -> int:
        levels = {level(k) for k in self.terms}
        if len(levels) != 1:
            raise ValueError("vector is not homogeneous in level")
        return levels.pop()

    def degree(self) -> tuple[int, int]:
        degs = {self.module.degree(k) for k in self.terms}
        if len(degs) != 1:
            raise ValueError("vector is not homogeneous in degree")
        return degs.pop()

    def coords(self, kets: list[Ket]) -> list[Fraction]:
        index = {ket: i for i, ket in enumerate(kets)}
        out = [Fraction(0)] * len(kets)
        for ket, c in self.terms.items():
            out[index[ket]] = c
        return out

    def _binop(self, other: "Vector", sign: int) -> "Vector":
        if self.module != other.module:
            raise ValueError("vectors live in different modules")
        out = dict(self.terms)
        for ket, c in other.terms.items():
            out[ket] = out.get(ket, Fraction(0)) + sign * c
        return Vector(self.module, out)

    def __add__(self, other: "Vector") -> "Vector":
        return self._binop(other, 1)

    def __sub__(self, other: "Vector") -> "Vector":
        return self._binop(other, -1)

    def __neg__(self) -> "Vector":
        return (-1) * self

    def __rmul__(self, scalar) -> "Vector":
        s = Fraction(scalar)
        return Vector(self.module, {k: s * c for k, c in self.terms.items()})

    __mul__ = __rmul__

    def __eq__(self, other) -> bool:
        return (isinstance(other, Vector) and self.module == other.module
                and self.terms == other.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for ket, c in self.sorted_items():
            idx = f"{ket.alpha},{ket.k},{ket.m}"
            if ket.beta is not None:
                idx += f";{ket.beta}"
            parts.append(f"{c}*|{idx}>")
        return " + ".join(parts).replace("+ -", "- ")


def zero_vector(module: VermaModule) -> Vector:
    return Vector(module, {})


@lru_cache(maxsize=None)
def _ket_action(kind: str, r: Fraction, lam: Fraction | None,
                gen: str, ket: Ket) -> tuple[tuple[Ket, Fraction], ...]:
    """Image of one basis ket under one generator, as ((ket, coeff), ...)."""
    a, k, m, b = ket
    kb = k % 2
    sgn = -1 if kb else 1  # (-1)^k
    mrl = kind == "MrLambda"
    out: dict[Ket, Fraction] = {}

    def put(a2, k2, m2, b2, coeff):
        coeff = Fraction(coeff)
        if coeff and k2 >= 0 and m2 >= 0:
            key = Ket(a2, k2, m2, b2)
            out[key] = out.get(key, Fraction(0)) + coeff

    if gen == "R":
        put(a, k, m, b, r + a + k + 2 * m)
    elif gen == "Rt":
        if a == 0:
            put(0, k + 2, m - 1, b, sgn * m)
            put(0, k - 2, m + 1, b, sgn * 2 * (k - kb))
            put(1, k - 1, m, b, kb)
            if mrl:
                put(0, k, m, 1 - b, sgn * lam ** b)
        else:
            put(1, k + 2, m - 1, b, -sgn * m)
            put(1, k - 2, m + 1, b, -sgn * 2 * (k - kb))
            put(0, k + 1, m, b, 1 + kb)
            if mrl:
                put(1, k, m, 1 - b, -sgn * lam ** b)
    elif gen == "atp":
        put(1 - a, k + 2 * a, m, b, -1 if a else 1)
    elif gen == "ap":
        put(a, k + 1, m, b, 1)
        if a == 1:
            put(0, k, m + 1, b, -sgn * 4)
    elif gen == "Ltp":
        put(a, k, m + 1, b, -1 if (a + k) % 2 else 1)
    elif gen == "atm":
        if a == 0:
            put(1, k - 2, m, b, -(k - kb))
            put(0, k + 1, m - 1, b, sgn * m)
            if mrl:
                put(0, k - 1, m, 1 - b, -2 * kb * lam ** b)
        else:
            put(0, k, m, b, 2 * r + k + kb + 4 * m)
            put(1, k + 1, m - 1, b, -sgn * m)
            if mrl:
                put(1, k - 1, m, 1 - b, 2 * kb * lam ** b)
    elif gen == "am":
        if a == 0:
            put(0, k - 1, m, b, k + (2 * r - 1) * kb)
            put(1, k, m - 1, b, -sgn * m)
        else:
            put(1, k - 1, m, b, k + (2 * r - 3) * kb)
            put(0, k + 2, m - 1, b, -sgn * m)
            put(0, k - 2, m + 1, b, -sgn * 4 * (k - kb))
            if mrl:
                # coefficient forced by [am, atp] = -2 Rt on the lowest
                # weight space; certified by representation_residual
                put(0, k, m, 1 - b, -sgn * 2 * lam ** b)
    elif gen == "Ltm":
        if a == 0:
            put(0, k, m - 1, b, sgn * m * (r + k + m - 1))
            put(0, k - 4, m + 1, b, sgn * (k - kb) * (k - kb - 2))
            put(1, k - 3, m, b, kb * (k - 1))
            if mrl:
                put(0, k - 2, m, 1 - b, sgn * (k - kb) * lam ** b)
        else:
            put(1, k, m - 1, b, -sgn * m * (r + k + m))
            put(1, k - 4, m + 1, b, -sgn * (k - kb) * (k - kb - 2))
            put(0, k - 1, m, b, 2 * (r - 1) * kb + (kb + 1) * k)
            if mrl:
                put(1, k - 2, m, 1 - b, -sgn * (k - kb) * lam ** b)
    elif gen in ("Lp", "Lm"):
        # enveloping relations: Lp = -atp^2/2, Lm = am^2/2
        inner, scale = ("atp", Fraction(-1, 2)) if gen == "Lp" else ("am", Fraction(1, 2))
        for mid, c1 in _ket_action(kind, r, lam, inner, ket):
            for fin, c2 in _ket_action(kind, r, lam, inner, mid):
                out[fin] = out.get(fin, Fraction(0)) + scale * c1 * c2
        out = {key: c for key, c in out.items() if c}
    else:
        raise ValueError(f"unknown generator {gen!r}")

    return tuple(sorted(out.items(), key=lambda it: ket_sort_key(it[0])))


def act(gen: str, vec: Vector) -> Vector:
    """Exact action of one generator, extended linearly over the terms."""
    mod = vec.module
    out: dict[Ket, Fraction] = {}
    for ket, c in vec.terms.items():
        for tket, tc in _ket_action(mod.kind, mod.r, mod.lam, gen, ket):
            out[tket] = out.get(tket, Fraction(0)) + c * tc
    return Vector(mod, out)


def action_rows(module: VermaModule, gen: str, kets: list[Ket], targets: list[Ket],
                scale: int = 1) -> list[list[tuple[int, int]]]:
    """One generator as a sparse integer matrix: for each ket, the pairs
    (index into targets, scale * coefficient) of its image.

    The image of every ket must lie in the span of `targets`, and `scale`
    must clear every denominator of the coefficients.
    """
    index = {ket: i for i, ket in enumerate(targets)}
    out = []
    for ket in kets:
        row = []
        for tket, c in _ket_action(module.kind, module.r, module.lam, gen, ket):
            c *= scale
            if c.denominator != 1:
                raise ValueError(f"scale {scale} leaves {gen} coefficient {c}")
            row.append((index[tket], c.numerator))
        out.append(row)
    return out


def act_word(word: tuple[str, ...], vec: Vector) -> Vector:
    """Apply a product of generators, rightmost factor first."""
    for gen in reversed(word):
        vec = act(gen, vec)
    return vec


def act_element(elem: Element, vec: Vector) -> Vector:
    """Bilinear extension of `act` to algebra elements."""
    out = zero_vector(vec.module)
    for gen, c in elem.terms.items():
        out = out + c * act(gen, vec)
    return out


def representation_residual(g1: str, g2: str, vec: Vector) -> Vector:
    """g1 g2 v - (-1)^{deg g1 . deg g2} g2 g1 v - [[g1, g2]] v.

    The master oracle: it must be exactly zero for every generator pair on
    every vector, which certifies all action formulas (including signs)
    against the structure constants.
    """
    sign = -1 if degree_dot(DEGREE[g1], DEGREE[g2]) else 1
    lhs = act(g1, act(g2, vec)) - sign * act(g2, act(g1, vec))
    return lhs - act_element(STRUCTURE_TABLE[(g1, g2)], vec)


@dataclass(frozen=True)
class WeightSpace:
    module: VermaModule
    level: int
    kets: tuple[Ket, ...]

    @property
    def dim(self) -> int:
        return len(self.kets)

    def sector(self, sector: tuple[int, int]) -> list[Ket]:
        return [k for k in self.kets if self.module.degree(k) == sector]


def enumerate_level(module: VermaModule, n: int) -> WeightSpace:
    """All kets with alpha + k + 2m = n, in canonical order."""
    if n < 0:
        raise ValueError("level must be nonnegative")
    kets = []
    betas = (None,) if module.kind == "Mr" else (0, 1)
    for alpha in (0, 1):
        rest = n - alpha
        if rest < 0:
            continue
        for m in range(rest // 2 + 1):
            k = rest - 2 * m
            for beta in betas:
                kets.append(Ket(alpha, k, m, beta))
    kets.sort(key=ket_sort_key)
    return WeightSpace(module, n, tuple(kets))


def sector_kets(module: VermaModule, n: int, sector: tuple[int, int]) -> list[Ket]:
    return enumerate_level(module, n).sector(sector)


def vector_to_json(vec: Vector) -> dict:
    from .rationals import format_rational
    mod = vec.module
    out: dict = {"kind": mod.kind, "r": format_rational(mod.r)}
    if mod.lam is not None:
        out["lambda"] = format_rational(mod.lam)
    terms = []
    for ket, c in vec.sorted_items():
        t = {"alpha": ket.alpha, "k": ket.k, "m": ket.m}
        if ket.beta is not None:
            t["beta"] = ket.beta
        t["coeff"] = format_rational(c)
        terms.append(t)
    out["terms"] = terms
    return out
