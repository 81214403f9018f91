"""Lowest-weight Verma modules over the graded algebra.

Two families: a one-dimensional lowest weight space ("Mr", parameter r) and a
two-dimensional one ("MrLambda", parameters r and lambda != 0, where the odd
Cartan generator squares to lambda on the lowest weight space).  Basis kets
are indexed by (alpha, k, m) — one power of atp, k powers of ap, m powers of
Ltp applied to the lowest weight vector — plus a lowest-weight label beta for
the two-dimensional family.  Higher powers of atp never appear because
atp^2 = -ap^2 = -2*Lp inside the enveloping algebra.

The ten generators act through one table, `_action_table`: one integer
matrix per module kind, generator and level, filled on first use and shared
by every module of a kind, since it depends on neither r nor lambda.  Its
rows are the kets of the level in canonical order, its columns those that
`_level_columns` gives the target level, and each coefficient is stored
doubled, as c1 + cr*r + cl*lambda in integers.  The four odd generators ap,
am, atp and atm are written by their explicit formulas (`_odd_rows`).  Each
even generator X is one bracket [[g1, g2]] = c X of two odd ones in the
structure table and acts as that graded commutator over c (so Lp =
-atp^2/2, Lm = am^2/2): it is composed from the odd matrices a level at a
time (`_composed`).  `act`, `lowering_rows` and `representation_residual`
evaluate the table with a module's integer weights, which it computes once,
like its singular orders (`VermaModule._weights`, `_orders`); the first and
last sum integer numerators over one common denominator.
`representation_residual`, vanishing on every generator pair, certifies that
the four formulas define a representation; it composes two generators
through `_apply` and is integer throughout, so a zero residual builds no
Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import isqrt, lcm
from typing import NamedTuple

from .graded_algebra import AD_WEIGHT, SIGN, Element, STRUCTURE_TABLE
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

    @cached_property
    def _orders(self) -> tuple[int, ...]:
        """The orders of `singular_solver.detect_singular_orders`, as a tuple."""
        if self.kind == "Mr":
            roots = [Fraction(0)]
        else:
            lam = self.lam
            if lam < 0:
                return ()
            num, den = isqrt(lam.numerator), isqrt(lam.denominator)
            if num * num != lam.numerator or den * den != lam.denominator:
                return ()
            roots = [Fraction(-num, den), Fraction(num, den)]
        out = []
        for root in roots:
            two_m = root - self.r
            if two_m >= 0 and two_m.denominator == 1 and two_m.numerator % 2 == 0:
                out.append(two_m.numerator // 2)
        return tuple(out)

    @cached_property
    def _weights(self) -> tuple[int, int, int, int]:
        """(w1, wr, wl, den) with (c1 + cr*r + cl*lambda) / 2 equal to
        (c1*w1 + cr*wr + cl*wl) / den, in integers: for r = p/q and lambda =
        u/v, den = 2qv and the weights of 1, r and lambda are qv, pv and qu."""
        lam = self.lam if self.lam is not None else Fraction(0)
        p, q, u, v = self.r.numerator, self.r.denominator, lam.numerator, lam.denominator
        return q * v, p * v, q * u, 2 * q * v

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
            if type(c) is not Fraction:
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

    def _binop(self, other: "Vector", subtract: bool) -> "Vector":
        if self.module != other.module:
            raise ValueError("vectors live in different modules")
        out = dict(self.terms)
        for ket, c in other.terms.items():
            if ket in out:
                out[ket] = out[ket] - c if subtract else out[ket] + c
            else:
                out[ket] = -c if subtract else c
        return Vector(self.module, out)

    def __add__(self, other: "Vector") -> "Vector":
        return self._binop(other, False)

    def __sub__(self, other: "Vector") -> "Vector":
        return self._binop(other, True)

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


class ConsistencyError(RuntimeError):
    """An internal cross-check that should be a theorem failed."""


# each even generator X as (g1, g2, s, c): [[g1, g2]] = c X, s = (-1)^{deg g1 . deg g2};
# read once here, so that filling the action table calls no public function
_EVEN_FROM_ODD: dict[str, tuple[str, str, int, int]] = {
    x: (g1, g2, SIGN[g1, g2], int(STRUCTURE_TABLE[(g1, g2)].terms[x]))
    for x, g1, g2 in (("R", "ap", "am"), ("Rt", "ap", "atm"), ("Lp", "atp", "atp"),
                      ("Lm", "am", "am"), ("Ltp", "ap", "atp"), ("Ltm", "am", "atm"))}

_Rows = tuple[tuple[tuple[int, int, int, int], ...], ...]


@lru_cache(maxsize=None)
def _action_table(kind: str, gen: str, n: int) -> _Rows:
    """One generator on level n as an integer matrix, for every r and lambda.

    Row j is the image of the j-th ket of level n, as entries (column, c1,
    cr, cl) in no particular order on the columns of level n +
    AD_WEIGHT[gen], each coefficient (c1 + cr*r + cl*lambda) / 2; lambda
    enters only as lambda**beta.  ConsistencyError if a coefficient of ap,
    atp or Ltp is not an integer independent of r and lambda.  Filling calls
    no public function, so a traced replay counts the same calls whether or
    not the table is filled.
    """
    rows = _composed(kind, gen, n) if gen in _EVEN_FROM_ODD else _odd_rows(kind, gen, n)
    if gen in ("ap", "atp", "Ltp") and any(c1 % 2 or cr or cl
                                           for row in rows for _, c1, cr, cl in row):
        raise ConsistencyError(f"{gen} on {kind} level {n} is not an integer")
    return rows


def _odd_rows(kind: str, gen: str, n: int) -> _Rows:
    """One odd generator on level n, by its explicit formula, as
    `_action_table` stores it.  No target ket is built: (alpha, k, m, beta)
    lies in column nb*(2m + [alpha = 0 and k > 0]) + beta of its level, nb
    the number of beta values, since for each m canonical order puts alpha =
    1 first whenever the alpha = 0 ket has k > 0."""
    if gen not in ("ap", "am", "atp", "atm"):
        raise ValueError(f"unknown generator {gen!r}")
    nb = 1 if kind == "Mr" else 2
    rows = []
    row: list[tuple[int, int, int, int]] = []

    def put(a2, k2, m2, b2, c1, cr=0, cl=0):
        # the targets of one image are distinct
        if (c1 or cr or cl) and k2 >= 0 and m2 >= 0:
            row.append((nb * (2 * m2 + (a2 == 0 and k2 > 0)) + b2, 2 * c1, 2 * cr, 2 * cl))

    def put_lam(a2, k2, m2, b2, c):
        # c * lambda**b
        put(a2, k2, m2, b2, 0 if b else c, 0, c if b else 0)

    for a, k, m, beta in _level_kets(kind, n):
        b = beta or 0
        kb = k % 2
        sgn = -1 if kb else 1  # (-1)^k
        row = []
        if gen == "atp":
            put(1 - a, k + 2 * a, m, b, -1 if a else 1)
        elif gen == "ap":
            put(a, k + 1, m, b, 1)
            if a == 1:
                put(0, k, m + 1, b, -sgn * 4)
        elif gen == "atm":
            if a == 0:
                put(1, k - 2, m, b, -(k - kb))
                put(0, k + 1, m - 1, b, sgn * m)
                if nb == 2:
                    put_lam(0, k - 1, m, 1 - b, -2 * kb)
            else:
                put(0, k, m, b, k + kb + 4 * m, 2)
                put(1, k + 1, m - 1, b, -sgn * m)
                if nb == 2:
                    put_lam(1, k - 1, m, 1 - b, 2 * kb)
        elif a == 0:  # am
            put(0, k - 1, m, b, k - kb, 2 * kb)
            put(1, k, m - 1, b, -sgn * m)
        else:
            put(1, k - 1, m, b, k - 3 * kb, 2 * kb)
            put(0, k + 2, m - 1, b, -sgn * m)
            put(0, k - 2, m + 1, b, -sgn * 4 * (k - kb))
            if nb == 2:
                # coefficient forced by [am, atp] = -2 Rt on the lowest
                # weight space; certified by representation_residual
                put_lam(0, k, m, 1 - b, -sgn * 2)
        rows.append(tuple(row))
    return tuple(rows)


def _composed(kind: str, gen: str, n: int) -> _Rows:
    """One even generator X on level n, composed from the odd tables a level
    at a time through its bracket [[g1, g2]] = c X in `_EVEN_FROM_ODD`:
    X = (g1 g2 - s g2 g1) / c, so the doubled X is the sum of the products of
    doubled entries over 2c.  The r**2, r*lambda and lambda**2 parts must
    cancel and 2c must divide the rest, else ConsistencyError.  A product of
    two entries with no r or lambda part adds to the constant part alone."""
    g1, g2, s, c = _EVEN_FROM_ODD[gen]
    terms = [(_action_table(kind, first, n),
              _action_table(kind, then, n + AD_WEIGHT[first]), sign)
             for first, then, sign in ((g2, g1, 1), (g1, g2, -s))]
    rows = []
    for j in range(len(terms[0][0])):
        one: dict[int, int] = {}
        more: dict[int, list[int]] = {}  # parts in r, lambda, r**2, r*lambda, lambda**2
        for lower, upper, sign in terms:
            for mid, p1, pr, pl in lower[j]:
                for t, q1, qr, ql in upper[mid]:
                    one[t] = one.get(t, 0) + sign * p1 * q1
                    if pr or pl or qr or ql:
                        acc = more.setdefault(t, [0] * 5)
                        for i, x in enumerate((p1 * qr + pr * q1, p1 * ql + pl * q1, pr * qr,
                                               pr * ql + pl * qr, pl * ql)):
                            acc[i] += sign * x
        row = []
        for t, x in one.items():
            xr, xl, *square = more.get(t, (0,) * 5)
            (c1, e1), (cr, er), (cl, el) = divmod(x, 2 * c), divmod(xr, 2 * c), divmod(xl, 2 * c)
            if e1 or er or el or any(square):
                raise ConsistencyError(f"{gen} on {kind} level {n} is not integer halves: "
                                       f"{[x, xr, xl, *square]}")
            if c1 or cr or cl:
                row.append((t, c1, cr, cl))
        rows.append(tuple(row))
    return tuple(rows)


def _numerators(terms: dict) -> tuple[int, list]:
    """(d, [(key, d * c), ...]) for the coefficients c of terms, where d is the
    lcm of their denominators (1 when there are none)."""
    # a list: CPython shrinks the argument tuple of a starred generator, and
    # its free lists keep up to 2000 such tuples of each size
    d = lcm(*[c.denominator for c in terms.values()])
    return d, [(key, c.numerator * (d // c.denominator)) for key, c in terms.items()]


def _columns(kind: str, terms: dict[Ket, Fraction]) -> tuple[int, dict[int, dict[int, int]]]:
    """(d, {level: {column: d * c}}) for the terms {ket: c} of a vector, put
    over d as `_numerators` puts them, in one pass (this runs once per
    residual), each level's `_level_columns` read once."""
    d = lcm(*[c.denominator for c in terms.values()])
    out, maps = {}, {}
    for ket, c in terms.items():
        n = ket.alpha + ket.k + 2 * ket.m
        if n not in out:
            out[n], maps[n] = {}, _level_columns(kind, n)
        out[n][maps[n][ket]] = c.numerator * (d // c.denominator)
    return d, out


def _vector(module: VermaModule, out: dict[int, dict[int, int]], den: int) -> Vector:
    """The vector with numerators out, as `_columns` keys them, over den."""
    terms = {}
    for n, nums in out.items():
        if any(nums.values()):  # a zero residual looks up no kets
            kets = _level_kets(module.kind, n)
            terms.update({kets[t]: Fraction(x, den) for t, x in nums.items() if x})
    return Vector(module, terms)


def _apply(out: dict[int, int], rows: _Rows, nums, w1: int, wr: int, wl: int) -> dict[int, int]:
    """Add rows, one generator's matrix on one level, applied to the pairs
    (column, num) of nums, to out, as integer numerators over the den of
    `module._weights`, whose (w1, wr, wl) the caller passes, times one
    integer factor it folds in."""
    for j, num in nums:
        for t, c1, cr, cl in rows[j]:
            out[t] = out.get(t, 0) + num * (c1 * w1 + cr * wr + cl * wl)
    return out


def _act_sum(out: dict[int, dict[int, int]], kind: str, scaled: list[tuple[str, int]], cols,
             w1: int, wr: int, wl: int) -> dict[int, dict[int, int]]:
    """Add the sum of f * gen over the pairs (gen, f) of scaled, applied to
    cols, to out, both keyed as `_columns` keys them, as `_apply` does."""
    for n, nums in cols.items():
        for gen, f in scaled:
            rows = _action_table(kind, gen, n)  # ValueError for an unknown generator
            _apply(out.setdefault(n + AD_WEIGHT[gen], {}), rows, nums.items(),
                   f * w1, f * wr, f * wl)
    return out


def _act(vec: Vector, e: int, scaled: list[tuple[str, int]]) -> Vector:
    """The sum of f * gen over the pairs (gen, f) of scaled, applied to vec,
    over e.  vec is put over d, the lcm of its denominators, `_apply` sums
    the integer numerators over e * d * den one level at a time, and one
    Fraction is built per nonzero target ket."""
    module = vec.module
    w1, wr, wl, den = module._weights
    d, cols = _columns(module.kind, vec.terms)
    out = _act_sum({}, module.kind, scaled, cols, w1, wr, wl)
    return _vector(module, out, e * d * den)


def act(gen: str, vec: Vector) -> Vector:
    """Exact action of one generator, extended linearly over the terms."""
    return _act(vec, 1, [(gen, 1)])


def lowering_rows(module: VermaModule, n: int, js) -> list[dict[int, int]]:
    """The lowering pair (am, atm) on the kets js of level n, as integer rows.

    For each column j of js, one pass over the j-th rows of am's and atm's
    matrices in `_action_table` gives one row: the am and atm images of the
    j-th ket of level n, on the columns of level n-1, each coefficient times
    2qv for r = p/q and lambda = u/v, that is c1*qv + cr*pv + cl*qu.  A ket
    lies in one sector, so its two images lie in the two sectors of level
    n-1, on disjoint columns.  Nothing is divided: one common factor changes
    no kernel, rank or pivot.
    """
    w1, wr, wl, _ = module._weights
    am, atm = _action_table(module.kind, "am", n), _action_table(module.kind, "atm", n)
    out = []
    for j in js:
        row = {}
        for t, c1, cr, cl in am[j] + atm[j]:
            c = c1 * w1 + cr * wr + cl * wl
            if c:
                row[t] = c
        out.append(row)
    return out


def act_element(elem: Element, vec: Vector) -> Vector:
    """Bilinear extension of `act` to algebra elements, summed over e * d * den,
    e the lcm of the denominators of elem."""
    return _act(vec, *_numerators(elem.terms))


def representation_residual(g1: str, g2: str, vec: Vector) -> Vector:
    """g1 g2 v - (-1)^{deg g1 . deg g2} g2 g1 v - [[g1, g2]] v.

    The master oracle: it must be exactly zero for every generator pair on
    every vector.  The even generators act through brackets of odd ones, so
    the 10 ordered pairs that define them vanish by construction; the residual
    on all 100 pairs is exactly the condition that the four odd formulas
    (including signs) define a representation of the structure table.

    Summed in integers throughout, one level of v at a time: v is put over
    d, the lcm of its denominators, the bracket over e, the lcm of its, and
    all three parts over e * d * den**2, den from `module._weights`.  A
    Fraction is built only for a nonzero residual term: a representation none.
    """
    module, kind = vec.module, vec.module.kind
    w1, wr, wl, den = module._weights
    d, cols = _columns(kind, vec.terms)
    e, scaled = _numerators(STRUCTURE_TABLE[(g1, g2)].terms)
    out = _act_sum({}, kind, scaled, cols, -den * w1, -den * wr, -den * wl)
    for n, level_nums in cols.items():
        acc = out.setdefault(n + AD_WEIGHT[g1] + AD_WEIGHT[g2], {})
        for first, then, f in ((g2, g1, e), (g1, g2, -SIGN[g1, g2] * e)):
            # over d * den after the first generator, d * den**2 after the second
            once = _apply({}, _action_table(kind, first, n), level_nums.items(), w1, wr, wl)
            _apply(acc, _action_table(kind, then, n + AD_WEIGHT[first]), once.items(),
                   f * w1, f * wr, f * wl)
    return _vector(module, out, e * d * den * den)


def enumerate_level(module: VermaModule, n: int) -> tuple[Ket, ...]:
    """All kets with alpha + k + 2m = n, in canonical order."""
    if n < 0:
        raise ValueError("level must be nonnegative")
    return _level_kets(module.kind, n)


@lru_cache(maxsize=1024)
def _level_kets(kind: str, n: int) -> tuple[Ket, ...]:
    betas = (None,) if kind == "Mr" else (0, 1)
    # generated in canonical order: for each m, alpha = 1 has the smaller k
    return tuple(Ket(alpha, n - alpha - 2 * m, m, beta)
                 for m in range(n // 2 + 1) for alpha in (1, 0)
                 if n - alpha - 2 * m >= 0 for beta in betas)


@lru_cache(maxsize=1024)
def _level_columns(kind: str, n: int) -> dict[Ket, int]:
    """The column of each ket of level n: its place in canonical order.

    Every integer row on level n, of W, of the lowering maps and of
    `_action_table`, is keyed on these columns.  One dict per kind and level
    is shared by every caller, so none may update it.
    """
    return {ket: j for j, ket in enumerate(_level_kets(kind, n))}


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
