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
closing polynomial `t_polynomial` (rational canonical form).  `classify`
reads the constituents off q and builds no matrix.  Everything is exact over
the rationals, so only factors defined over Q are split off: the part of q
without rational roots is reported as one unresolved piece (reducible over an
extension field).  The search for an invariant subspace on the matrix of Rt,
`find_invariant_subspace`, is a cross-check of the tests, in
tests/paper_routes.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .rationals import format_rational

MAX_DIM = 12  # largest chain dimension build_h_module accepts
MAX_BITS = 1024  # bits of a closing coefficient, denominators cleared, and of r and lambda


@dataclass(frozen=True)
class HModule:
    """Chain module: dim n, scalar r, closing coefficients c."""
    n: int
    r: Fraction
    c: tuple[Fraction, ...]


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
    """Chain module of dimension n; c prescribes the image of the last vector.

    A closing polynomial with a coefficient above MAX_BITS bits, once its
    denominators are cleared, is refused: `rational_roots` bisects the real
    roots of that integer polynomial and of its derivatives across a range
    of about that many bits.
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    if n > MAX_DIM:
        raise ValueError(f"dimension {n} exceeds cap {MAX_DIM}")
    c = tuple(Fraction(x) for x in c)
    if len(c) != expected_c_length(n):
        raise ValueError(
            f"need {expected_c_length(n)} closing coefficients for n={n}, got {len(c)}")
    # q's coefficients are -c and 1 (`t_polynomial`); the signs change no bit length
    bits = max(x.bit_length() for x in linalg._int_row((*c, 1))[0])
    if bits > MAX_BITS:
        raise ValueError(f"closing polynomial has a coefficient of {bits} bits once "
                         f"its denominators are cleared, above the bound {MAX_BITS}")
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
