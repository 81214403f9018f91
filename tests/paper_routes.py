"""The paper's independent derivations, which the tests cross-check the
engine against.  No verdict of the engine depends on them.

* `recurrence_solve` sets up the raw linear recurrences that annihilation by
  am and atm imposes on the ansatz coefficients of a singular vector, and
  solves them as an exact linear system: it re-derives the closed forms of
  `singular_solver.closed_form` instead of evaluating them.
  `closed_form_family_kets` places each system's coefficient families on
  kets, from the same table `CLOSED_FORMS` the closed forms read.
* `verify_rtilde_relations` runs `singular_solver.rtilde_check` on every
  singular vector of one order.
* `submodule_basis` is the explicit spanning family of W at offset q above
  level 2M+1: raising words in ap and atp (`wbasis_words`) applied to the
  singular pair, of exact rank 2(q+1).
* `chi11_membership` decomposes the (1,1)-sector singular vector chi11 over
  raising words applied to chi01 and chi10, and cross-checks the structured
  coefficient matrix `membership_matrix`.
* `find_invariant_subspace` exhibits a proper invariant subspace of a Cartan
  chain module, on the matrix of Rt (`HModule.mat_rt`, defined here).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb

from reference import act_word, det, nullspace, rank, rref, solve_unique
from z2rep.cartan_modules import HModule, classify
from z2rep.singular_solver import RtildeCheck, _families, closed_form, rtilde_check
from z2rep.submodule_quotient import singular_pair
from z2rep.verma import ConsistencyError, VermaModule, Vector, enumerate_level


# --- singular vectors: recurrences and Rt relations -------------------------

# the closed form whose coefficient families each recurrence system is named
# after (MrLambda chi10 has no system of its own)
_SYSTEM_FORMS = {"mu-nu": ("Mr", "chi01"), "alpha-beta": ("Mr", "chi10"),
                 "gamma-delta": ("Mr", "chi11"), "mu-nu-lambda": ("MrLambda", "chi01"),
                 "alpha-beta-lambda": ("MrLambda", "chi10")}


def closed_form_family_kets(which: str, M: int) -> dict[str, list]:
    """Ket positions of each coefficient family of a closed form at order M."""
    if which not in _SYSTEM_FORMS:
        raise ValueError(f"no closed form backs {which!r}")
    return dict(zip(which.split("-"), _families(*_SYSTEM_FORMS[which], M)))


def verify_rtilde_relations(module: VermaModule, M: int) -> list[RtildeCheck]:
    """rtilde_check on chi01, chi10 and, for Mr, chi11."""
    kinds = ("chi01", "chi10", "chi11") if module.kind == "Mr" else ("chi01", "chi10")
    return [rtilde_check(module, which, M) for which in kinds]


class _LinearSystem:
    """Homogeneous exact system over named coefficient families.

    References to indices outside a family's declared range denote absent
    ansatz coefficients and drop out of the relation.
    """

    def __init__(self, families: list[tuple[str, int]]):
        self.sizes = dict(families)
        self.order = [name for name, _ in families]
        self.offsets = {}
        total = 0
        for name, size in families:
            self.offsets[name] = total
            total += size
        self.total = total
        self.rows: list[list[Fraction]] = []

    def add(self, terms: list[tuple[str, int, Fraction]]) -> None:
        row = [Fraction(0)] * self.total
        for family, j, coeff in terms:
            if 0 <= j < self.sizes[family]:
                row[self.offsets[family] + j] += Fraction(coeff)
        if any(row):
            self.rows.append(row)

    def solutions(self) -> list[dict[str, list[Fraction]]]:
        split = []
        for vec in nullspace(self.rows, self.total):
            sol = {}
            for name in self.order:
                off = self.offsets[name]
                sol[name] = vec[off:off + self.sizes[name]]
            split.append(sol)
        return split


def _sys_mu_nu(M: int, r: Fraction, _lam=None) -> _LinearSystem:
    K = M // 2
    top = K - 1 if M % 2 == 0 else K
    sys = _LinearSystem([("mu", M // 2 + 1), ("nu", (M - 1) // 2 + 1)])
    for j in range(top + 1):
        sys.add([("mu", j, 2 * (M - 2 * j)), ("nu", j, 2 * j + 1)])
    for j in range(K):
        sys.add([("mu", j + 1, j + 1), ("nu", j, -(r + M + 2 * j + 1))])
    if M % 2 == 1:
        sys.add([("nu", K, r + 2 * M)])
    sys.add([("mu", 0, 2 * (r + M)), ("nu", 0, -1)])
    for j in range(K):
        sys.add([("mu", j + 1, j + 1), ("nu", j, M - 2 * j - 1)])
    for j in range(1, top + 1):
        sys.add([("mu", j, 2 * (r + M - 2 * j)), ("nu", j, -(2 * j + 1)),
                 ("nu", j - 1, -8 * (M - 2 * j + 1))])
    if M % 2 == 0:
        sys.add([("mu", K, r), ("nu", K - 1, -4)])
    return sys


def _sys_alpha_beta(M: int, r: Fraction, _lam=None) -> _LinearSystem:
    K = M // 2
    top = K - 1 if M % 2 == 0 else K
    sys = _LinearSystem([("alpha", (M - 1) // 2 + 1), ("beta", K + 1)])
    for j in range(K):
        sys.add([("alpha", j, M - 2 * j - 1), ("beta", j + 1, j + 1)])
    for j in range(top + 1):
        sys.add([("alpha", j, -(2 * j + 1)), ("beta", j, 2 * (r + M + 2 * j))])
    if M % 2 == 0:
        sys.add([("beta", K, r + 2 * M)])
    for j in range(top + 1):
        sys.add([("alpha", j, 2 * j + 1), ("beta", j, 2 * (M - 2 * j))])
    for j in range(K):
        sys.add([("alpha", j, r + M - 2 * j - 1), ("beta", j, -4 * (M - 2 * j)),
                 ("beta", j + 1, -(j + 1))])
    if M % 2 == 1:
        sys.add([("alpha", K, r), ("beta", K, -4)])
    return sys


def _sys_rho_sigma(M: int, r: Fraction, _lam=None) -> _LinearSystem:
    K = M // 2
    sys = _LinearSystem([("rho", K + 1), ("sigma", K)])
    for j in range(K):
        sys.add([("rho", j, 2 * (M - 2 * j)), ("sigma", j, -(2 * j + 1))])
    for j in range(1, K + 1):
        sys.add([("rho", j, j), ("sigma", j - 1, r + M + 2 * j - 1)])
    if M % 2 == 1:
        sys.add([("rho", K, 1)])
    sys.add([("rho", 0, 2 * M), ("sigma", 0, 1)])
    for j in range(1, K):
        sys.add([("rho", j, 2 * (M - 2 * j)), ("sigma", j, 2 * j + 1),
                 ("sigma", j - 1, 8 * (M - 2 * j))])
    for j in range(1, K + 1):
        sys.add([("rho", j, -j), ("sigma", j - 1, r + M - 2 * j - 1)])
    if M % 2 == 1:
        sys.add([("rho", K, 1), ("sigma", K - 1, 4)])
    return sys


def _sys_gamma_delta(M: int, r: Fraction, _lam=None) -> _LinearSystem:
    K = M // 2
    count = K if M % 2 == 0 else K + 1
    top = count - 1
    sys = _LinearSystem([("gamma", count), ("delta", count)])
    for j in range(1, top + 1):
        sys.add([("gamma", j - 1, M - 2 * j + 1), ("delta", j, -j)])
    for j in range(top + 1):
        sys.add([("gamma", j, 2 * j + 1), ("delta", j, 2 * (r + M + 2 * j))])
    if M % 2 == 0 and K >= 1:
        sys.add([("gamma", K - 1, 1)])
    for j in range(1, top + 1):
        sys.add([("gamma", j - 1, M - 2 * j + 1), ("delta", j - 1, 4 * (M - 2 * j + 1)),
                 ("delta", j, j)])
    for j in range(top + 1):
        sys.add([("gamma", j, 2 * j + 1), ("delta", j, -2 * (r + M - 2 * j - 2))])
    if M % 2 == 0 and K >= 1:
        sys.add([("gamma", K - 1, 1), ("delta", K - 1, 4)])
    return sys


def _sys_mu_nu_lambda(M: int, r: Fraction, lam) -> _LinearSystem:
    if lam is None:
        raise ValueError("mu-nu-lambda needs lambda")
    lam = Fraction(lam)
    sys = _LinearSystem([("mu", M + 1), ("nu", M + 1)])
    sys.add([("mu", M, lam ** (M % 2)), ("nu", M, -(r + 2 * M))])
    for j in range(M):
        sys.add([("mu", j + 1, j + 1), ("mu", j, 2 * lam ** (j % 2)),
                 ("nu", j, -2 * (r + M + j))])
    for j in range(M):
        sys.add([("mu", j, 2 * (M - j)), ("nu", j + 1, j + 1)])
    sys.add([("mu", 0, 2 * (r + M)), ("nu", 1, -1), ("nu", 0, -2 * lam)])
    for j in range(1, M):
        sys.add([("mu", j, 2 * (r + M - j)), ("nu", j + 1, -(j + 1)),
                 ("nu", j - 1, -8 * (M - j + 1)), ("nu", j, -2 * lam ** ((j + 1) % 2))])
    sys.add([("mu", M, r), ("nu", M - 1, -4), ("nu", M, -lam ** ((M + 1) % 2))])
    for j in range(M):
        sys.add([("mu", j + 1, j + 1), ("nu", j, 2 * (M - j))])
    return sys


# each recurrence system's builder; the Mr systems ignore lambda
_SYSTEMS = {"mu-nu": _sys_mu_nu, "alpha-beta": _sys_alpha_beta, "rho-sigma": _sys_rho_sigma,
            "gamma-delta": _sys_gamma_delta, "mu-nu-lambda": _sys_mu_nu_lambda}


def recurrence_solve(which: str, M: int, r,
                     lam=None) -> list[dict[str, list[Fraction]]]:
    """Solution space of one annihilation recurrence system.

    For the odd-level systems (mu-nu, alpha-beta, mu-nu-lambda) M labels the
    level 2M+1.  For the even-level systems (rho-sigma, gamma-delta) M is the
    half-level: the system lives at level 2M, and the gamma-delta system is
    nontrivial only for odd M = 2K+1 with r + 2K = 0.
    """
    r = Fraction(r)
    if which not in _SYSTEMS:
        raise ValueError(f"unknown recurrence system {which!r}")
    return _SYSTEMS[which](M, r, lam).solutions()


# --- the submodule W: spanning words and the chi11 decomposition -------------

def wbasis_words(q: int) -> list[tuple[str, ...]]:
    """Raising words (leftmost factor applied last) spanning one chi-branch at offset q."""
    words: list[tuple[str, ...]] = [("ap",) * q]
    for j in range(1, q // 2 + 1):
        tail = ("ap",) * (q - 2 * j)
        words.append(("atp", "ap") * j + tail)
        words.append(("ap", "atp") * j + tail)
    if q % 2 == 1:
        words.append(("atp", "ap") * ((q - 1) // 2) + ("atp",))
    return words


def submodule_basis(module: VermaModule, M: int, q: int) -> list[Vector]:
    """The explicit spanning family of W at offset q above level 2M+1.

    Checks exact linear independence: the family must have rank 2(q+1).
    For the one-dimensional module family this holds only up to q = 2M;
    beyond that the ambient weight space is too small and W saturates it,
    so the offset is rejected.
    """
    if q < 0:
        raise ValueError("offset must be nonnegative")
    if module.kind == "Mr" and q > 2 * M:
        raise ValueError(
            f"offset {q} exceeds the saturation bound 2M = {2 * M}; "
            "the submodule fills the whole weight space there")
    chi01, chi10 = singular_pair(module, M)
    vectors = [act_word(w, chi) for chi in (chi01, chi10) for w in wbasis_words(q)]
    kets = list(enumerate_level(module, 2 * M + 1 + q))
    rows = [v.coords(kets) for v in vectors]
    if rank(rows) != 2 * (q + 1):
        raise ConsistencyError(
            f"spanning family at offset {q} has rank {rank(rows)}, "
            f"expected {2 * (q + 1)}")
    return vectors


def membership_matrix(M: int) -> list[list[int]]:
    """Coefficient matrix of the chi11 decomposition system (integer entries)."""
    a = [[0] * (M + 1) for _ in range(M + 1)]
    for j in range(M + 1):
        for p in range(M + 1):
            if 0 <= 2 * j - p <= M:
                a[j][p] = 2 ** (2 * j + 1 - p) * comb(M, 2 * j - p)
    return a


def membership_words(M: int) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """Word pairs (applied to chi01 and chi10) whose sums carry the decomposition.

    Entry p is the pair for the unknown c_p, ordered p = 0..M.
    """
    words: list[tuple[tuple[str, ...], tuple[str, ...]]] = [None] * (M + 1)
    for k in range(M // 2 + 1):
        w01 = ("atp",) + ("ap",) * (2 * (M - 2 * k)) + ("Ltp",) * (2 * k)
        w10 = ("ap",) * (2 * (M - 2 * k) + 1) + ("Ltp",) * (2 * k)
        words[2 * k] = (w01, w10)
    for k in range((M - 1) // 2 + 1):
        w01 = ("ap",) * (2 * (M - 2 * k) - 1) + ("Ltp",) * (2 * k + 1)
        w10 = ("atp",) + ("ap",) * (2 * (M - 2 * k - 1)) + ("Ltp",) * (2 * k + 1)
        words[2 * k + 1] = (w01, w10)
    return words


@dataclass
class MembershipReport:
    M: int
    coefficients: list[Fraction]
    matrix: list[list[int]]
    determinant: Fraction
    residual_zero: bool


def chi11_membership(M: int) -> MembershipReport:
    """Decompose the (1,1)-sector singular vector over raising words applied
    to chi01 and chi10, exactly.

    Solves the vector equation directly, then cross-checks the structured
    coefficient matrix: it must be nonsingular and reproduce the same unique
    solution.
    """
    module = VermaModule("Mr", Fraction(-2 * M))
    chi01, chi10 = singular_pair(module, M)
    chi11 = closed_form(module, "chi11", M)
    columns = [act_word(w01, chi01) + act_word(w10, chi10)
               for w01, w10 in membership_words(M)]
    kets = list(enumerate_level(module, 2 * (2 * M + 1)))
    a_rows = list(zip(*(col.coords(kets) for col in columns)))
    rhs = chi11.coords(kets)
    coeffs = solve_unique(a_rows, rhs)
    combo = sum((c * col for c, col in zip(coeffs, columns)),
                Vector(module, {}))
    residual_zero = (chi11 - combo).is_zero()
    matrix = membership_matrix(M)
    determinant = det(matrix)
    if determinant == 0:
        raise ConsistencyError("structured coefficient matrix is singular")
    structured = solve_unique(matrix,
                              [Fraction((-4) ** j * comb(M, j))
                               for j in range(M + 1)])
    if structured != coeffs:
        raise ConsistencyError("structured system disagrees with the vector system")
    return MembershipReport(M, coeffs, matrix, determinant, residual_zero)


# --- Cartan chain modules: an invariant subspace ------------------------------

def _mat_rt(hm: HModule) -> tuple[tuple[Fraction, ...], ...]:
    """Rt in the chain basis, built on first read and then kept."""
    n = hm.n
    mat_rt = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n - 1):
        mat_rt[k + 1][k] = Fraction(1)
    # last column: parity forces the image onto positions n-1 mod 2
    start = 1 if n % 2 else 0
    for j, coeff in enumerate(hm.c):
        mat_rt[start + 2 * j][n - 1] = coeff
    return tuple(map(tuple, mat_rt))


# classify reads the closing polynomial alone, so the engine's HModule holds
# only its inputs; the tests read the matrix of Rt as hm.mat_rt
HModule.mat_rt = cached_property(_mat_rt)
HModule.mat_rt.__set_name__(HModule, "mat_rt")


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
        return rref(list(zip(*rt)))[0] if n > 1 else None
    first = classify(hm).constituents[0]
    if first.kind == "nu_r_lambda" and n > 2:
        shifted = [[sum(rt[i][k] * rt[k][j] for k in range(n))
                    - (first.lam if i == j else 0) for j in range(n)] for i in range(n)]
        return nullspace(shifted, n)
    if first.kind == "nu_r":
        return nullspace(rt, n)
    return None
