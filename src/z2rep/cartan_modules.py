"""Finite-dimensional modules of the Cartan pair (R, Rt) and their classification.

R acts as the scalar r.  Rt maps the parity-(0,0) part to the parity-(1,1)
part and back, so irreducible modules are one-dimensional (Rt acts as 0) or
two-dimensional (Rt^2 acts as a nonzero scalar lambda).  A chain module of
dimension n is built from a start vector by repeated application of Rt, with
the image of the last chain vector prescribed by a coefficient list c whose
entries sit on the parity-compatible chain positions.

In the chain basis Rt is a companion matrix, so a chain module is cyclic,
and its invariant subspaces are fixed by the divisors of the characteristic
polynomial of Rt: q(s^2) for even n and s q(s^2) for odd n, with q the
closing polynomial `t_polynomial` (rational canonical form).  Everything is
exact over the rationals, so only subspaces defined over Q are exhibited:
the part of q without rational roots is reported as one unresolved piece
(reducible over an extension field, nothing exhibited).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import linalg
from .rationals import format_rational

MAX_DIM = 12  # largest chain dimension build_h_module accepts


@dataclass(frozen=True)
class HModule:
    """Chain module: dim n, scalar r, closing coefficients c; Rt on request."""
    n: int
    r: Fraction
    c: tuple[Fraction, ...]

    @cached_property
    def mat_rt(self) -> tuple[tuple[Fraction, ...], ...]:
        """Rt in the chain basis, built on first read and then kept."""
        n = self.n
        mat_rt = [[Fraction(0)] * n for _ in range(n)]
        for k in range(n - 1):
            mat_rt[k + 1][k] = Fraction(1)
        # last column: parity forces the image onto positions n-1 mod 2
        start = 1 if n % 2 else 0
        for j, coeff in enumerate(self.c):
            mat_rt[start + 2 * j][n - 1] = coeff
        return tuple(map(tuple, mat_rt))


@dataclass(frozen=True)
class Constituent:
    kind: str  # "nu_r" | "nu_r_lambda" | "unresolved"
    dim: int
    r: Fraction
    lam: Fraction | None = None

    def to_json(self) -> dict:
        out = {"kind": self.kind, "r": format_rational(self.r)}
        if self.kind == "nu_r_lambda":
            out["lambda"] = format_rational(self.lam)
        if self.kind == "unresolved":
            out["dim"] = self.dim
        return out


@dataclass
class CartanReport:
    dim: int
    r: Fraction
    constituents: list[Constituent]

    def to_json(self) -> dict:
        return {"dim": self.dim, "r": format_rational(self.r),
                "constituents": [c.to_json() for c in self.constituents]}


def expected_c_length(n: int) -> int:
    # odd n closes on odd chain positions, even n on even ones
    return (n - 1) // 2 if n % 2 else n // 2


def build_h_module(n: int, r, c) -> HModule:
    """Chain module of dimension n; c prescribes the image of the last vector."""
    if n < 1:
        raise ValueError("dimension must be positive")
    if n > MAX_DIM:
        raise ValueError(f"dimension {n} exceeds cap {MAX_DIM}")
    c = tuple(Fraction(x) for x in c)
    if len(c) != expected_c_length(n):
        raise ValueError(
            f"need {expected_c_length(n)} closing coefficients for n={n}, got {len(c)}")
    return HModule(n, Fraction(r), c)


def t_polynomial(n: int, c) -> list[Fraction]:
    """Closing polynomial q of a chain of dimension n, ascending coefficients.

    Rt has characteristic polynomial q(s^2) on an even chain, s q(s^2) on an
    odd one.
    """
    if len(c) != expected_c_length(n):
        raise ValueError(
            f"need {expected_c_length(n)} closing coefficients for n={n}, got {len(c)}")
    return [-Fraction(x) for x in c] + [Fraction(1)]


def _deflate(q: list[Fraction], lam: Fraction) -> list[Fraction]:
    """q / (t - lam) by synthetic division, for a root lam of q."""
    out = [q[-1]]
    for a in reversed(q[1:-1]):
        out.append(a + lam * out[-1])
    return out[::-1]


def find_invariant_subspace(hm: HModule) -> list[list[Fraction]] | None:
    """RREF basis of a proper invariant subspace defined over Q.

    An odd chain above dimension one has the image of Rt, the span of the
    tail vectors: an invariant subspace of dimension n - 1 with a nu_r on
    top, not in general the bottom piece of the series.  An even chain has
    the bottom piece of the series that `classify` lists: ker(Rt^2 - lambda)
    = {w, Rt w} when a nu_r_lambda comes first and n > 2, ker Rt when a nu_r
    does.  None means no invariant subspace exists over Q (the module may
    still split over an extension).
    """
    n, rt = hm.n, hm.mat_rt
    if n % 2:
        return linalg.rref(list(zip(*rt)))[0] if n > 1 else None
    first = classify(hm).constituents[0]
    if first.kind == "nu_r_lambda" and n > 2:
        shifted = [[sum(rt[i][k] * rt[k][j] for k in range(n))
                    - (first.lam if i == j else 0) for j in range(n)] for i in range(n)]
        return linalg.nullspace(shifted, n)
    if first.kind == "nu_r":
        return linalg.nullspace(rt, n)
    return None


def classify(hm: HModule) -> CartanReport:
    """Irreducible constituents, read off the closing polynomial q.

    A chain module is cyclic, so each nonzero rational root lambda of q, as
    often as it divides q, gives a nu_r_lambda; the rest of q without its
    factors t gives one piece of twice its degree, unresolved over Q; every
    remaining dimension is a nu_r.  They are listed along a composition
    series: the nu_r_lambda by ascending lambda, then the unresolved piece,
    then the nu_r.  On an even chain with no nonzero rational root, a
    factor t and an unresolved piece, the bottom of the series is ker Rt,
    so one nu_r comes first.
    """
    q = t_polynomial(hm.n, hm.c)
    lams = []
    for lam in linalg.rational_roots(q):
        while lam and linalg.poly_eval(q, lam) == 0:
            q = _deflate(q, lam)
            lams.append(lam)
    while q[0] == 0:
        q = q[1:]
    rest = 2 * (len(q) - 1)
    nu = hm.n - 2 * len(lams) - rest
    low = int(hm.n % 2 == 0 and not lams and rest > 0 and nu > 0)
    pieces = [Constituent("nu_r", 1, hm.r)] * low
    pieces += [Constituent("nu_r_lambda", 2, hm.r, lam) for lam in lams]
    if rest:
        pieces.append(Constituent("unresolved", rest, hm.r))
    pieces += [Constituent("nu_r", 1, hm.r)] * (nu - low)
    return CartanReport(hm.n, hm.r, pieces)
