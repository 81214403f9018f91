"""Finite-dimensional modules of the Cartan pair (R, Rt) and their classification.

R acts as the scalar r.  Rt maps the parity-(0,0) part to the parity-(1,1)
part and back, so irreducible modules are one-dimensional (Rt acts as 0) or
two-dimensional (Rt^2 acts as a nonzero scalar lambda).  A chain module of
dimension n is built from a start vector by repeated application of Rt, with
the image of the last chain vector prescribed by a coefficient list c whose
entries sit on the parity-compatible chain positions.

Everything is exact over the rationals, so invariant-subspace search only
exhibits subspaces defined over Q: when the characteristic equation for the
closing scalar t has no rational root, the module is reported as unresolved
(reducible over an extension field, nothing exhibited).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .rationals import format_rational

Matrix = tuple[tuple[Fraction, ...], ...]


def _freeze(rows) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def _mat_vec(mat: Matrix, vec: list[Fraction]) -> list[Fraction]:
    n = len(mat)
    return [sum((mat[i][j] * vec[j] for j in range(n)), Fraction(0)) for i in range(n)]


def _mat_mul(a: Matrix, b: Matrix) -> list[list[Fraction]]:
    n = len(a)
    return [[sum((a[i][t] * b[t][j] for t in range(n)), Fraction(0))
             for j in range(n)] for i in range(n)]


@dataclass(frozen=True)
class HModule:
    """Chain module: dim n, scalar r, closing coefficients c."""
    n: int
    r: Fraction
    c: tuple[Fraction, ...]
    mat_r: Matrix
    mat_rt: Matrix
    parity: tuple[int, ...]  # 0 = degree (0,0), 1 = degree (1,1)


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
    certified: bool  # False when some piece stayed unresolved over Q

    def to_json(self) -> dict:
        return {"dim": self.dim, "r": format_rational(self.r),
                "constituents": [c.to_json() for c in self.constituents]}


def expected_c_length(n: int) -> int:
    # odd n closes on odd chain positions, even n on even ones
    return (n - 1) // 2 if n % 2 else n // 2


def build_h_module(n: int, r, c, max_dim: int = 12) -> HModule:
    """Chain module of dimension n; c prescribes the image of the last vector."""
    if n < 1:
        raise ValueError("dimension must be positive")
    if n > max_dim:
        raise ValueError(f"dimension {n} exceeds cap {max_dim}")
    c = tuple(Fraction(x) for x in c)
    if len(c) != expected_c_length(n):
        raise ValueError(
            f"need {expected_c_length(n)} closing coefficients for n={n}, got {len(c)}")
    r = Fraction(r)
    mat_rt = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n - 1):
        mat_rt[k + 1][k] = Fraction(1)
    # last column: parity forces the image onto positions n-1 mod 2
    start = 1 if n % 2 else 0
    for j, coeff in enumerate(c):
        mat_rt[start + 2 * j][n - 1] = coeff
    mat_r = [[r if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    return HModule(n, r, c, _freeze(mat_r), _freeze(mat_rt),
                   tuple(k % 2 for k in range(n)))


def t_polynomial(n: int, c) -> list[Fraction]:
    """Closing-scalar polynomial for even chain dimension n, ascending coefficients."""
    if n % 2:
        raise ValueError("defined for even dimensions only")
    c = [Fraction(x) for x in c]
    half = n // 2
    coeffs = [-c[i] for i in range(half)] + [Fraction(1)]
    return coeffs


# internal working form for sub/quotient recursion
@dataclass(frozen=True)
class _GradedMod:
    r: Fraction
    mat: Matrix  # action of Rt
    parity: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.parity)


def _as_graded(hm: HModule) -> _GradedMod:
    return _GradedMod(hm.r, hm.mat_rt, hm.parity)


def _cyclic_span(g: _GradedMod, seed: list[Fraction]) -> list[list[Fraction]]:
    rows = [seed]
    rr, pivots = linalg.rref(rows)
    frontier = [seed]
    while frontier:
        new_frontier = []
        for v in frontier:
            img = _mat_vec(g.mat, v)
            red = linalg.reduce_mod_span(rr, pivots, img)
            if any(red):
                rows.append(img)
                rr, pivots = linalg.rref(rows)
                new_frontier.append(img)
        frontier = new_frontier
    return rr


def _vector_parities(g: _GradedMod, v: list[Fraction]) -> set[int]:
    return {g.parity[i] for i, x in enumerate(v) if x}


def _split_parity(g: _GradedMod, v: list[Fraction]) -> list[list[Fraction]]:
    parts = []
    for p in (0, 1):
        part = [x if g.parity[i] == p else Fraction(0) for i, x in enumerate(v)]
        if any(part):
            parts.append(part)
    return parts


def _is_invariant(g: _GradedMod, rows) -> bool:
    rr, pivots = linalg.rref(rows)
    for v in rr:
        red = linalg.reduce_mod_span(rr, pivots, _mat_vec(g.mat, v))
        if any(red):
            return False
    return True


def _proper(g: _GradedMod, rows) -> list[list[Fraction]] | None:
    rr, _ = linalg.rref(rows)
    rr = [row for row in rr if any(row)]
    if 0 < len(rr) < g.dim:
        return rr
    return None


def _parity_restricted(g: _GradedMod, mat: Matrix, p: int):
    """Restriction of a parity-preserving matrix to one parity block."""
    idx = [i for i in range(g.dim) if g.parity[i] == p]
    sub = [[mat[i][j] for j in idx] for i in idx]
    return idx, sub


def _cyclic_piece(g: _GradedMod) -> list[list[Fraction]] | None:
    """A proper invariant span generated by one basis vector."""
    for i in range(g.dim):
        seed = [Fraction(i == j) for j in range(g.dim)]
        found = _proper(g, _cyclic_span(g, seed))
        if found is not None and _is_invariant(g, found):
            return found
    return None


def _kernel_piece(g: _GradedMod) -> list[list[Fraction]] | None:
    """A one-dimensional piece of the kernel of Rt, split by parity."""
    for v in linalg.nullspace([list(row) for row in g.mat], g.dim):
        for part in _split_parity(g, v):
            found = _proper(g, [part])
            if found is not None:
                return found
    return None


def _eigen_pair(g: _GradedMod, parities) -> list[list[Fraction]] | None:
    """A span {w, Rt w}, w an eigenvector of Rt^2 in one of the parity blocks.

    Only rational eigenvalues t != 0 are tried: t = 0 has an eigenvector
    exactly when Rt has a kernel, which `_kernel_piece` covers.
    """
    sq = _freeze(_mat_mul(g.mat, g.mat))
    for p in parities:
        idx, block = _parity_restricted(g, sq, p)
        if not idx:
            continue
        for t in linalg.rational_roots(linalg.char_poly(block)):
            if t == 0:
                continue
            shifted = [[block[i][j] - (t if i == j else 0) for j in range(len(idx))]
                       for i in range(len(idx))]
            for small in linalg.nullspace(shifted, len(idx)):
                w = [Fraction(0)] * g.dim
                for pos, val in zip(idx, small):
                    w[pos] = val
                found = _proper(g, [w, _mat_vec(g.mat, w)])
                if found is not None and _is_invariant(g, found):
                    return found
    return None


def _find_invariant_graded(g: _GradedMod) -> list[list[Fraction]] | None:
    """Generic exact search used on sub/quotient pieces."""
    if g.dim <= 1:
        return None
    return _cyclic_piece(g) or _kernel_piece(g) or _eigen_pair(g, (0, 1))


def find_invariant_subspace(hm: HModule) -> list[list[Fraction]] | None:
    """Basis of a proper nonzero invariant subspace, or None.

    Odd chains above dimension one always contain the tail span.  On an even
    chain each parity block of Rt^2 is a companion matrix of the closing-scalar
    polynomial `t_polynomial`: a nonzero rational root t yields a
    two-dimensional invariant pair {w, Rt w} with w in the even block; if only
    t = 0 remains, the kernel of Rt supplies a one-dimensional piece.  Of the
    generic search only the cyclic spans are then left to try: the odd block
    has the same roots, and the kernel has just been searched.  None means no
    invariant subspace exists over Q (the module may still split over an
    extension).
    """
    g = _as_graded(hm)
    n = hm.n
    if n == 1:
        return None
    if n % 2:
        tail = [[Fraction(i == j) for j in range(n)] for i in range(1, n)]
        assert _is_invariant(g, tail)
        return linalg.rref(tail)[0]
    return _eigen_pair(g, (0,)) or _kernel_piece(g) or _cyclic_piece(g)


def _coords_in(rr_rows, vec) -> list[Fraction]:
    # vec as a combination of RREF rows (rows are leading-one normalized)
    coords = []
    v = [Fraction(x) for x in vec]
    for row in rr_rows:
        lead = next(i for i, x in enumerate(row) if x)
        coords.append(v[lead])
        v = [a - v[lead] * b for a, b in zip(v, row)]
    if any(v):
        raise ValueError("vector not in span")
    return coords


def _submodule(g: _GradedMod, rows) -> _GradedMod:
    rr, _ = linalg.rref(rows)
    parities = []
    for row in rr:
        ps = _vector_parities(g, row)
        if len(ps) != 1:
            raise ValueError("invariant subspace basis is not parity-homogeneous")
        parities.append(ps.pop())
    mat = []
    for row in rr:
        mat.append(_coords_in(rr, _mat_vec(g.mat, row)))
    # columns are images: transpose the coordinate lists
    d = len(rr)
    sub = [[mat[j][i] for j in range(d)] for i in range(d)]
    return _GradedMod(g.r, _freeze(sub), tuple(parities))


def _quotient(g: _GradedMod, rows) -> _GradedMod:
    rr, pivots = linalg.rref(rows)
    comp = [i for i in range(g.dim) if i not in pivots]
    mat = [[Fraction(0)] * len(comp) for _ in range(len(comp))]
    for col, i in enumerate(comp):
        e = [Fraction(0)] * g.dim
        e[i] = Fraction(1)
        img = linalg.reduce_mod_span(rr, pivots, _mat_vec(g.mat, e))
        for rowpos, j in enumerate(comp):
            mat[rowpos][col] = img[j]
    return _GradedMod(g.r, _freeze(mat), tuple(g.parity[i] for i in comp))


def _leaf(g: _GradedMod) -> Constituent:
    if g.dim == 1:
        return Constituent("nu_r", 1, g.r)
    if g.dim == 2:
        sq = _mat_mul(g.mat, g.mat)
        lam = sq[0][0]
        if sq[0][1] == 0 and sq[1][0] == 0 and sq[1][1] == lam and lam != 0:
            return Constituent("nu_r_lambda", 2, g.r, lam)
    return Constituent("unresolved", g.dim, g.r)


def _decompose(g: _GradedMod) -> list[Constituent]:
    found = _find_invariant_graded(g)
    if found is None:
        return [_leaf(g)]
    return _decompose(_submodule(g, found)) + _decompose(_quotient(g, found))


def classify(hm: HModule) -> CartanReport:
    """Decompose into irreducible constituents by repeated sub/quotient splitting."""
    g = _as_graded(hm)
    found = find_invariant_subspace(hm)
    if found is None:
        pieces = [_leaf(g)]
    else:
        pieces = _decompose(_submodule(g, found)) + _decompose(_quotient(g, found))
    certified = all(p.kind != "unresolved" for p in pieces)
    return CartanReport(hm.n, hm.r, pieces, certified)
