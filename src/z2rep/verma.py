"""Lowest-weight Verma modules over the graded algebra.

Two families: a one-dimensional lowest weight space ("Mr", parameter r) and a
two-dimensional one ("MrLambda", parameters r and lambda != 0, where the odd
Cartan generator squares to lambda on the lowest weight space).  Basis kets
are indexed by (alpha, k, m) — one power of atp, k powers of ap, m powers of
Ltp applied to the lowest weight vector — plus a lowest-weight label beta for
the two-dimensional family.  Higher powers of atp never appear because
atp^2 = -ap^2 = -2*Lp inside the enveloping algebra.

The four odd generators ap, am, atp and atm act by explicit formulas,
`_odd_image`.  Each even generator X is one bracket [[g1, g2]] = c X of two
odd ones in the structure table and acts as that graded commutator over c (so
Lp = -atp^2/2, Lm = am^2/2).  The ten actions on single kets live in one
table, `_action`, keyed on module kind, generator and ket but not on r or
lambda: it stores each coefficient doubled, as c1 + cr*r + cl*lambda in
integers.  `act` and `action_rows` evaluate it with one module's integer
weights from `_weights`; `act` sums integer numerators over one common
denominator, in `_apply`, and builds one Fraction per nonzero output term.
`action_rows` builds an integer matrix, one dict per ket, written straight
onto the columns the caller maps each target ket to.  The raising
generators ap, atp and Ltp have integer coefficients that depend on neither
r nor lambda, so each has one integer matrix per kind and level,
`_raising_rows`, on the columns of `_level_columns`: ap and atp are read off
`_odd_image`, and Ltp is composed from their matrices a level at a time, not
ket by ket through `_action`.
`representation_residual`, vanishing on every generator pair, certifies that
the four formulas define a representation; it composes two generators
through `_apply` and is integer throughout, so a zero residual builds no
Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import NamedTuple

from .graded_algebra import SIGN, Element, STRUCTURE_TABLE
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


@lru_cache(maxsize=None)
def _action(kind: str, gen: str, ket: Ket) -> tuple[tuple[Ket, int, int, int], ...]:
    """Image of one basis ket under one generator, for every r and lambda.

    Returns ((ket, c1, cr, cl), ...), in no particular order: each
    coefficient is (c1 + cr*r + cl*lambda) / 2, with integer c1, cr and cl.
    lambda enters only as lambda**beta, ap and atp do not depend on r or
    lambda, and in each even image the r**2, r*lambda and lambda**2 parts
    cancel, leaving halves.  The odd images are those of `_odd_image`.
    Filling the table calls no public function, so a traced replay counts
    the same calls whether or not it is filled.
    """
    if gen not in _EVEN_FROM_ODD:
        return tuple((key, *coeffs) for key, coeffs in _odd_image(kind, gen, ket).items())
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
    out = []
    for fin, acc in sums.items():
        (c1, e1), (cr, er), (cl, el) = (divmod(x, 2 * c) for x in acc[:3])
        if e1 or er or el or any(acc[3:]):
            raise ConsistencyError(f"{gen} on {kind} {ket} is not integer halves: {acc}")
        if c1 or cr or cl:
            out.append((fin, c1, cr, cl))
    return tuple(out)


def _odd_image(kind: str, gen: str, ket: Ket) -> dict[Ket, tuple[int, int, int]]:
    """One odd generator on one basis ket, by its explicit formula: each
    target ket mapped to its doubled coefficient (c1, cr, cl), as in
    `_action`.  Uncached: `_action` and `_raising_rows` each store what they
    read from it."""
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
    return out


def _weights(module: VermaModule, scale: int = 1) -> tuple[int, int, int, int]:
    """(w1, wr, wl, den) with scale * (c1 + cr*r + cl*lambda) / 2 equal to
    (c1*w1 + cr*wr + cl*wl) / den, in integers: for r = p/q and lambda = u/v,
    den = 2qv and the weights of 1, r and lambda are scale times qv, pv, qu."""
    lam = module.lam if module.lam is not None else Fraction(0)
    p, q, u, v = module.r.numerator, module.r.denominator, lam.numerator, lam.denominator
    return q * v * scale, p * v * scale, q * u * scale, 2 * q * v


def _numerators(terms: dict) -> tuple[int, list]:
    """(d, [(key, d * c), ...]) for the coefficients c of terms, where d is the
    lcm of their denominators (1 when there are none)."""
    # a list: CPython shrinks the argument tuple of a starred generator, and
    # its free lists keep up to 2000 such tuples of each size
    d = lcm(*[c.denominator for c in terms.values()])
    return d, [(key, c.numerator * (d // c.denominator)) for key, c in terms.items()]


def _apply(out: dict[Ket, int], kind: str, gen: str, nums,
           w1: int, wr: int, wl: int) -> dict[Ket, int]:
    """Add gen applied to the sum of num * ket over the pairs (ket, num) of
    nums to out, as integer numerators over the den of `_weights`.  (w1, wr,
    wl) are the weights of `_weights`, times one integer factor that the
    caller folds in."""
    for ket, num in nums:
        for tket, c1, cr, cl in _action(kind, gen, ket):
            out[tket] = out.get(tket, 0) + num * (c1 * w1 + cr * wr + cl * wl)
    return out


def _act_sum(out: dict[Ket, int], kind: str, coeffs: dict[str, Fraction], nums,
             w1: int, wr: int, wl: int) -> int:
    """Add the sum of c * gen over the items (gen, c) of coeffs, applied to
    nums, to out as `_apply` does, with every c put over e, the lcm of their
    denominators; return e."""
    e, scaled = _numerators(coeffs)
    for gen, f in scaled:
        _apply(out, kind, gen, nums, f * w1, f * wr, f * wl)
    return e


def act(gen: str, vec: Vector) -> Vector:
    """Exact action of one generator, extended linearly over the terms.

    vec is put over d, the lcm of its denominators, `_apply` sums the
    integer numerators over d * den, and one Fraction is built per nonzero
    target ket.
    """
    module = vec.module
    w1, wr, wl, den = _weights(module)
    d, nums = _numerators(vec.terms)
    out = _apply({}, module.kind, gen, nums, w1, wr, wl)
    return Vector(module, {ket: Fraction(t, d * den) for ket, t in out.items() if t})


def action_rows(module: VermaModule, gen: str, kets: list[Ket], columns: dict[Ket, int],
                scale: int = 1) -> list[dict[int, int]]:
    """One generator as a sparse integer matrix: for each ket, its image as a
    dict from the column that `columns` gives each target ket to scale times
    its coefficient, read off `_action` in integers.  The image of every ket
    must lie among the keys of `columns`, and `scale` must clear every
    denominator of the coefficients.
    """
    w1, wr, wl, den = _weights(module, scale)
    kind = module.kind
    out = []
    for ket in kets:
        row = {}
        for tket, c1, cr, cl in _action(kind, gen, ket):
            scaled = c1 * w1 + cr * wr + cl * wl
            c, rem = divmod(scaled, den)
            if rem:
                raise ValueError(f"scale {scale} leaves {gen} coefficient "
                                 f"{Fraction(scaled, den)}")
            if c:
                row[columns[tket]] = c
        out.append(row)
    return out


def act_element(elem: Element, vec: Vector) -> Vector:
    """Bilinear extension of `act` to algebra elements, summed over e * d * den."""
    module = vec.module
    w1, wr, wl, den = _weights(module)
    d, nums = _numerators(vec.terms)
    out: dict[Ket, int] = {}
    e = _act_sum(out, module.kind, elem.terms, nums, w1, wr, wl)
    return Vector(module, {ket: Fraction(t, e * d * den) for ket, t in out.items() if t})


def representation_residual(g1: str, g2: str, vec: Vector) -> Vector:
    """g1 g2 v - (-1)^{deg g1 . deg g2} g2 g1 v - [[g1, g2]] v.

    The master oracle: it must be exactly zero for every generator pair on
    every vector.  The even generators act through brackets of odd ones, so
    the 10 ordered pairs that define them vanish by construction; the residual
    on all 100 pairs is exactly the condition that the four odd formulas
    (including signs) define a representation of the structure table.

    Summed in integers throughout: v is put over d, the lcm of its
    denominators, the bracket over e, the lcm of its, and all three parts
    over e * d * den**2, den from `_weights`.  A Fraction is built only for
    a nonzero residual term, so a representation builds none.
    """
    module, kind = vec.module, vec.module.kind
    w1, wr, wl, den = _weights(module)
    d, nums = _numerators(vec.terms)
    out: dict[Ket, int] = {}
    e = _act_sum(out, kind, STRUCTURE_TABLE[(g1, g2)].terms, nums,
                 -den * w1, -den * wr, -den * wl)
    for first, then, f in ((g2, g1, e), (g1, g2, -SIGN[g1, g2] * e)):
        # over d * den after the first generator, d * den**2 after the second
        once = _apply({}, kind, first, nums, w1, wr, wl).items()
        _apply(out, kind, then, once, f * w1, f * wr, f * wl)
    return Vector(module, {ket: Fraction(t, e * d * den * den) for ket, t in out.items() if t})


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
def _level_columns(kind: str, n: int) -> dict[Ket, int]:
    """The column of each ket of level n: its place in canonical order.

    Every integer row on level n, of W and of the lowering maps, is keyed on
    these columns.  One dict per kind and level is shared by every caller,
    so none may update it.
    """
    return {ket: j for j, ket in enumerate(_level_kets(kind, n))}


@lru_cache(maxsize=None)
def _raising_rows(kind: str, gen: str, n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """One raising generator, ap, atp or Ltp, on level n as an integer matrix.

    Row j is the image of the j-th ket of level n in canonical order, as
    (column, coefficient) pairs, in no particular order, on the columns
    `_level_columns` gives level n + 1 (ap, atp) or n + 2 (Ltp).  The
    coefficients are integers and do not depend on r or lambda, so every
    module of a kind shares one table, filled on first use.  ap and atp are
    read off `_odd_image`, and Ltp is composed from their tables, one level
    at a time, through its bracket [[g1, g2]] = c Ltp in `_EVEN_FROM_ODD`:
    Ltp = (g1 g2 - s g2 g1) / c.  Raises ConsistencyError if a coefficient is
    not an integer, or c does not divide an entry of the composition.
    Filling the table calls no public function, as for `_action`.
    """
    if gen == "Ltp":
        g1, g2, s, c = _EVEN_FROM_ODD[gen]
        terms = [(_raising_rows(kind, first, n), _raising_rows(kind, then, n + 1), sign)
                 for first, then, sign in ((g2, g1, 1), (g1, g2, -s))]
        rows = []
        for j in range(len(terms[0][0])):
            acc: dict[int, int] = {}
            for lower, upper, sign in terms:
                for mid, p in lower[j]:
                    for t, q in upper[mid]:
                        acc[t] = acc.get(t, 0) + sign * p * q
            row = []
            for t, x in acc.items():
                y, rem = divmod(x, c)
                if rem:
                    raise ConsistencyError(f"{c} does not divide the {gen} entry {x} "
                                           f"on {kind} level {n}")
                if y:
                    row.append((t, y))
            rows.append(tuple(row))
        return tuple(rows)
    if gen not in ("ap", "atp"):
        raise ValueError(f"{gen!r} is not a raising generator")
    columns = _level_columns(kind, n + 1)
    rows = []
    for ket in _level_kets(kind, n):
        row = []
        for tket, (c1, cr, cl) in _odd_image(kind, gen, ket).items():
            if c1 % 2 or cr or cl:
                raise ConsistencyError(f"{gen} on {kind} {ket} is not an integer: "
                                       f"{(c1, cr, cl)}")
            row.append((columns[tket], c1 // 2))
        rows.append(tuple(row))
    return tuple(rows)


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
