"""Lowest-weight Verma modules over the graded algebra.

Two families: a one-dimensional lowest weight space ("Mr", parameter r) and a
two-dimensional one ("MrLambda", parameters r and lambda != 0, where the odd
Cartan generator squares to lambda on the lowest weight space).  Basis kets
are indexed by (alpha, k, m) — one power of atp, k powers of ap, m powers of
Ltp applied to the lowest weight vector — plus a lowest-weight label beta for
the two-dimensional family.  Higher powers of atp never appear because
atp^2 = -ap^2 = -2*Lp inside the enveloping algebra.

The four odd generators ap, am, atp and atm act by explicit formulas.  Each
even generator X is one bracket [[g1, g2]] = c X of two odd ones in the
structure table and acts as that graded commutator over c (so Lp = -atp^2/2,
Lm = am^2/2).  All ten actions live in one table, `_action`, keyed on module
kind, generator and ket but not on r or lambda: it stores each coefficient
doubled, as c1 + cr*r + cl*lambda in integers.  `act` (in Fractions) and
`action_rows` (integer matrices) evaluate it with one module's integer
weights from `_weights`.  `representation_residual`, vanishing on every
generator pair, certifies that the four formulas define a representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .graded_algebra import DEGREE, Element, STRUCTURE_TABLE, degree_dot
from .rationals import format_rational


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

    def to_json(self) -> dict:
        """The kind, r and (MrLambda only) lambda that head every module's output."""
        out = {"kind": self.kind, "r": format_rational(self.r)}
        if self.lam is not None:
            out["lambda"] = format_rational(self.lam)
        return out

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

    @staticmethod
    def degree(ket: Ket) -> tuple[int, int]:
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


class ConsistencyError(RuntimeError):
    """An internal cross-check that should be a theorem failed."""


# each even generator X as (g1, g2, s, c): [[g1, g2]] = c X, s = (-1)^{deg g1 . deg g2};
# read once here, so that filling the action table calls no public function
_EVEN_FROM_ODD: dict[str, tuple[str, str, int, int]] = {
    x: (g1, g2, -1 if degree_dot(DEGREE[g1], DEGREE[g2]) else 1,
        int(STRUCTURE_TABLE[(g1, g2)].terms[x]))
    for x, g1, g2 in (("R", "ap", "am"), ("Rt", "ap", "atm"), ("Lp", "atp", "atp"),
                      ("Lm", "am", "am"), ("Ltp", "ap", "atp"), ("Ltm", "am", "atm"))}


@lru_cache(maxsize=None)
def _action(kind: str, gen: str, ket: Ket) -> tuple[tuple[Ket, int, int, int], ...]:
    """Image of one basis ket under one generator, for every r and lambda.

    Returns ((ket, c1, cr, cl), ...), in no particular order: each
    coefficient is (c1 + cr*r + cl*lambda) / 2, with integer c1, cr and cl.
    lambda enters only as lambda**beta, ap and atp do not depend on r or
    lambda, and in each even image the r**2, r*lambda and lambda**2 parts
    cancel, leaving halves.  Filling the table calls no public function, so
    a traced replay counts the same calls whether or not it is filled.
    """
    a, k, m, b = ket
    kb = k % 2
    sgn = -1 if kb else 1  # (-1)^k
    mrl = kind == "MrLambda"
    out: dict[Ket, tuple[int, int, int]] = {}

    def put(a2, k2, m2, b2, c1, cr=0, cl=0):
        # the target kets of one image are distinct
        if (c1 or cr or cl) and k2 >= 0 and m2 >= 0:
            out[Ket(a2, k2, m2, b2)] = (2 * c1, 2 * cr, 2 * cl)

    def put_lam(a2, k2, m2, b2, c):
        # c * lambda**b
        put(a2, k2, m2, b2, 0 if b else c, 0, c if b else 0)

    if gen in _EVEN_FROM_ODD:
        g1, g2, s, c = _EVEN_FROM_ODD[gen]
        # on doubled entries, doubled X = (g1 g2 - s g2 g1) / 2c; each sum
        # holds the parts in 1, r, lambda, r**2, r*lambda and lambda**2
        sums: dict[Ket, list[int]] = {}
        for first, then, sign in ((g2, g1, 1), (g1, g2, -s)):
            for mid, p1, pr, pl in _action(kind, first, ket):
                for fin, q1, qr, ql in _action(kind, then, mid):
                    acc = sums.setdefault(fin, [0] * 6)
                    for i, x in enumerate((p1 * q1, p1 * qr + pr * q1, p1 * ql + pl * q1,
                                           pr * qr, pr * ql + pl * qr, pl * ql)):
                        acc[i] += sign * x
        for fin, acc in sums.items():
            (c1, e1), (cr, er), (cl, el) = (divmod(x, 2 * c) for x in acc[:3])
            if e1 or er or el or any(acc[3:]):
                raise ConsistencyError(f"{gen} on {kind} {ket} is not integer halves: {acc}")
            if c1 or cr or cl:
                out[fin] = (c1, cr, cl)
    elif gen == "atp":
        put(1 - a, k + 2 * a, m, b, -1 if a else 1)
    elif gen == "ap":
        put(a, k + 1, m, b, 1)
        if a == 1:
            put(0, k, m + 1, b, -sgn * 4)
    elif gen == "atm":
        if a == 0:
            put(1, k - 2, m, b, -(k - kb))
            put(0, k + 1, m - 1, b, sgn * m)
            if mrl:
                put_lam(0, k - 1, m, 1 - b, -2 * kb)
        else:
            put(0, k, m, b, k + kb + 4 * m, 2)
            put(1, k + 1, m - 1, b, -sgn * m)
            if mrl:
                put_lam(1, k - 1, m, 1 - b, 2 * kb)
    elif gen == "am":
        if a == 0:
            put(0, k - 1, m, b, k - kb, 2 * kb)
            put(1, k, m - 1, b, -sgn * m)
        else:
            put(1, k - 1, m, b, k - 3 * kb, 2 * kb)
            put(0, k + 2, m - 1, b, -sgn * m)
            put(0, k - 2, m + 1, b, -sgn * 4 * (k - kb))
            if mrl:
                # coefficient forced by [am, atp] = -2 Rt on the lowest
                # weight space; certified by representation_residual
                put_lam(0, k, m, 1 - b, -sgn * 2)
    else:
        raise ValueError(f"unknown generator {gen!r}")

    return tuple((key, *coeffs) for key, coeffs in out.items())


def _weights(module: VermaModule, scale: int = 1) -> tuple[int, int, int, int]:
    """(w1, wr, wl, den) with scale * (c1 + cr*r + cl*lambda) / 2 equal to
    (c1*w1 + cr*wr + cl*wl) / den, in integers: for r = p/q and lambda = u/v,
    den = 2qv and the weights of 1, r and lambda are scale times qv, pv, qu."""
    lam = module.lam if module.lam is not None else Fraction(0)
    p, q, u, v = module.r.numerator, module.r.denominator, lam.numerator, lam.denominator
    return q * v * scale, p * v * scale, q * u * scale, 2 * q * v


def act(gen: str, vec: Vector) -> Vector:
    """Exact action of one generator, extended linearly over the terms."""
    mod = vec.module
    w1, wr, wl, den = _weights(mod)
    out: dict[Ket, Fraction] = {}
    for ket, c in vec.terms.items():
        for tket, c1, cr, cl in _action(mod.kind, gen, ket):
            out[tket] = out.get(tket, 0) + c * (c1 * w1 + cr * wr + cl * wl)
    return Vector(mod, {tket: c / den for tket, c in out.items()})


def action_rows(module: VermaModule, gen: str, kets: list[Ket], targets: list[Ket],
                scale: int = 1) -> list[list[tuple[int, int]]]:
    """One generator as a sparse integer matrix: for each ket, the pairs
    (index into targets, scale * coefficient) of its image, read off `_action`
    in integers.  The image of every ket must lie in the span of `targets`,
    and `scale` must clear every denominator of the coefficients.
    """
    w1, wr, wl, den = _weights(module, scale)
    index = {ket: i for i, ket in enumerate(targets)}
    out = []
    for ket in kets:
        row = []
        for tket, c1, cr, cl in _action(module.kind, gen, ket):
            scaled = c1 * w1 + cr * wr + cl * wl
            c, rem = divmod(scaled, den)
            if rem:
                raise ValueError(f"scale {scale} leaves {gen} coefficient "
                                 f"{Fraction(scaled, den)}")
            if c:
                row.append((index[tket], c))
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
    every vector.  The even generators act through brackets of odd ones, so
    the 10 ordered pairs that define them vanish by construction; the residual
    on all 100 pairs is exactly the condition that the four odd formulas
    (including signs) define a representation of the structure table.
    """
    sign = -1 if degree_dot(DEGREE[g1], DEGREE[g2]) else 1
    lhs = act(g1, act(g2, vec)) - sign * act(g2, act(g1, vec))
    return lhs - act_element(STRUCTURE_TABLE[(g1, g2)], vec)


def enumerate_level(module: VermaModule, n: int) -> tuple[Ket, ...]:
    """All kets with alpha + k + 2m = n, in canonical order."""
    return _level_kets(module.kind, n)


def _level_kets(kind: str, n: int) -> tuple[Ket, ...]:
    if n < 0:
        raise ValueError("level must be nonnegative")
    betas = (None,) if kind == "Mr" else (0, 1)
    # generated in canonical order: for each m, alpha = 1 has the smaller k
    return tuple(Ket(alpha, n - alpha - 2 * m, m, beta)
                 for m in range(n // 2 + 1) for alpha in (1, 0)
                 if n - alpha - 2 * m >= 0 for beta in betas)


def sector_kets(module: VermaModule, n: int, sector: tuple[int, int]) -> list[Ket]:
    """The kets of one Z2xZ2 sector of level n, in canonical order.

    They depend on the module kind only, so every module of a kind shares
    one cached tuple; each caller gets its own list.
    """
    return list(_sector_kets(module.kind, n, sector))


@lru_cache(maxsize=1024)
def _sector_kets(kind: str, n: int, sector: tuple[int, int]) -> tuple[Ket, ...]:
    return tuple(k for k in _level_kets(kind, n) if VermaModule.degree(k) == sector)


def vector_to_json(vec: Vector) -> dict:
    out = vec.module.to_json()
    terms = []
    for ket, c in vec.sorted_items():
        t = {"alpha": ket.alpha, "k": ket.k, "m": ket.m}
        if ket.beta is not None:
            t["beta"] = ket.beta
        t["coeff"] = format_rational(c)
        terms.append(t)
    out["terms"] = terms
    return out
