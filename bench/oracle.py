"""Verdict oracle for the benchmark, independent of the engine.

Every expectation here comes from the paper's closed forms, written out
again from the formulas: nothing in this file imports z2rep.  Each check
takes the parsed output of one operation and returns None when it agrees,
or a one-line reason when it does not.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, isqrt


def fmt(x: Fraction) -> str:
    """The engine's canonical rational text, "p/q" with q > 0."""
    return f"{x.numerator}/{x.denominator}"


def _rational_sqrt(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    p, q = isqrt(x.numerator), isqrt(x.denominator)
    return Fraction(p, q) if p * p == x.numerator and q * q == x.denominator else None


def singular_orders(kind: str, r: Fraction, lam: Fraction | None) -> list[int]:
    """Every M >= 0 meeting the existence constraint, solved in closed form.

    Mr: r + 2M = 0.  MrLambda: (r + 2M)^2 = lambda, so M = (+-sqrt(lambda) - r)/2.
    """
    if kind == "Mr":
        cands = [-r / 2]
    else:
        s = _rational_sqrt(lam)
        cands = [] if s is None else [(s - r) / 2, (-s - r) / 2]
    return sorted({int(c) for c in cands if c.denominator == 1 and c >= 0})


def closed_form(kind: str, r: Fraction, which: str, M: int) -> dict[tuple, Fraction]:
    """The paper's singular vector as {(alpha, k, m, beta): coeff}."""
    terms: dict[tuple, Fraction] = {}
    if kind == "Mr":
        if which == "chi11":
            for j in range(M + 1):
                w = Fraction((-4) ** j * comb(M, j))
                terms[(0, 4 * (M - j), 2 * j + 1, None)] = -2 * w
                terms[(1, 4 * (M - j) + 1, 2 * j, None)] = w
            return terms
        even_a = 0 if which == "chi01" else 1  # alpha carrying the even binomials
        for j in range(M // 2 + 1):
            k = 2 * (M - 2 * j) + (1 - even_a)
            terms[(even_a, k, 2 * j, None)] = Fraction(4 ** j * comb(M, 2 * j))
        for j in range((M - 1) // 2 + 1):
            k = 2 * (M - 2 * j - 1) + even_a
            terms[(1 - even_a, k, 2 * j + 1, None)] = \
                Fraction(-2 * 4 ** j * comb(M, 2 * j + 1))
        return terms
    s = r + 2 * M
    flip = 0 if which == "chi01" else 1
    for j in range(M + 1):
        w = Fraction((-2) ** j * comb(M, j))
        terms[(0, 2 * (M - j) + 1, j, (j + flip) % 2)] = w * s ** ((j + 1 + flip) % 2)
        terms[(1, 2 * (M - j), j, (j + 1 + flip) % 2)] = w * s ** ((j + flip) % 2)
    return terms


def predicted_singular(kind: str, r: Fraction, lam: Fraction | None,
                       level: int, sector: tuple[int, int]):
    """(which, M, stated Rt coefficient) where the paper predicts a vector, else None."""
    orders = singular_orders(kind, r, lam)
    if level % 2 == 1:
        M = (level - 1) // 2
        if M in orders and sector in ((0, 1), (1, 0)):
            which = "chi01" if sector == (0, 1) else "chi10"
            return which, M, Fraction(2 * M + 1) if kind == "Mr" else 1 - r
        return None
    if kind == "Mr" and sector == (1, 1) and level % 4 == 2 and (level - 2) // 4 in orders:
        return "chi11", (level - 2) // 4, Fraction(0)
    return None


def _json_terms(vec: dict) -> dict[tuple, Fraction]:
    return {(t["alpha"], t["k"], t["m"], t.get("beta")): Fraction(t["coeff"])
            for t in vec["terms"]}


def _proportional(a: dict[tuple, Fraction], b: dict[tuple, Fraction]) -> bool:
    if not a or a.keys() != b.keys():
        return False
    key = next(iter(a))
    c = a[key] / b[key]
    return all(a[k] == c * b[k] for k in a)


def _parse(stdout: str):
    try:
        return json.loads(stdout), None
    except json.JSONDecodeError as exc:
        return None, f"stdout is not JSON: {exc}"


def check_classify(p: dict, rc: int, stdout: str) -> str | None:
    """Cases i-iv and the per-level quotient table, from the closed forms."""
    if rc != 0:
        return f"exit {rc}"
    out, err = _parse(stdout)
    if err:
        return err
    kind, r, lam = p["kind"], p["r"], p.get("lam")
    orders = singular_orders(kind, r, lam)
    if len(orders) > 1:
        return f"double-order module {orders} has no closed-form verdict"
    M = orders[0] if orders else None
    case = {("Mr", True): "ii", ("Mr", False): "i",
            ("MrLambda", True): "iv", ("MrLambda", False): "iii"}[(kind, M is not None)]
    head = {"kind": kind, "r": fmt(r), "case": case}
    if lam is not None:
        head["lambda"] = fmt(lam)
    for key, want in head.items():
        if out.get(key) != want:
            return f"{key} = {out.get(key)!r}, expected {want!r}"
    if out.get("M") != M:
        return f"M = {out.get('M')!r}, expected {M!r}"
    want_dim = (2 * M + 1) ** 2 if case == "ii" else "infinite"
    if out.get("dimension") != want_dim:
        return f"dimension = {out.get('dimension')!r}, expected {want_dim!r}"
    rows = out["per_level"]
    if [row["level"] for row in rows] != list(range(len(rows))):
        return "per_level levels are not 0..L"
    for row in rows:
        n = row["level"]
        verma = n + 1 if kind == "Mr" else 2 * (n + 1)
        if case == "ii":
            quot = verma if n <= 2 * M else verma - min(2 * (n - 2 * M), verma)
        elif case == "iv":
            quot = verma if n <= 2 * M else 4 * M + 2
        else:
            quot = verma
        want = {"level": n, "verma_dim": verma, "submodule_dim": verma - quot,
                "quotient_dim": quot}
        if row != want:
            return f"level {n}: {row}, expected {want}"
    if case == "ii":
        if rows[-1]["level"] < 4 * M + 1:
            return "table stops before the support 4M+1"
        total = sum(row["quotient_dim"] for row in rows)
        if total != (2 * M + 1) ** 2:
            return f"quotient total {total} != {(2 * M + 1) ** 2}"
    return None


def check_singular(p: dict, rc: int, stdout: str) -> str | None:
    """Each sector's nullspace is the closed form's span where one is predicted, else empty."""
    if rc != 0:
        return f"exit {rc}"
    out, err = _parse(stdout)
    if err:
        return err
    kind, r, lam = p["kind"], p["r"], p.get("lam")
    if len(singular_orders(kind, r, lam)) > 1:
        return "double-order module: the closed forms do not predict its nullspaces"
    want_rows = [(n, list(s)) for n in range(1, p["level_cap"] + 1)
                 for s in (((0, 1), (1, 0)) if n % 2 else ((0, 0), (1, 1)))]
    if [(row["level"], row["sector"]) for row in out] != want_rows:
        return "report rows are not every (level, sector) up to the cap"
    for row in out:
        n, sector = row["level"], tuple(row["sector"])
        pred = predicted_singular(kind, r, lam, n, sector)
        where = f"level {n} sector {sector}"
        if pred is None:
            if row["nullspace"] or row["closed_form_match"] != "no-closed-form" \
                    or "rtilde" in row:
                return f"{where}: unexpected singular vector ({row['closed_form_match']})"
            continue
        which, M, stated = pred
        if len(row["nullspace"]) != 1:
            return f"{where}: nullspace dim {len(row['nullspace'])}, expected 1"
        if not _proportional(_json_terms(row["nullspace"][0]), closed_form(kind, r, which, M)):
            return f"{where}: nullspace is not the span of {which}"
        if row["closed_form_match"] not in ("exact", "scalar-multiple"):
            return f"{where}: closed_form_match {row['closed_form_match']!r}"
        if row.get("rtilde") != {"computed": fmt(stated), "stated": fmt(stated)}:
            return f"{where}: rtilde {row.get('rtilde')}, expected {fmt(stated)}"
    return None


def check_verify_algebra(p: dict, rc: int, stdout: str) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    out, err = _parse(stdout)
    if err:
        return err
    want = {"passed": True, "antisymmetry_pairs": 100, "degree_pairs": 100,
            "jacobi_triples": 1000}
    return None if out == want else f"report {out}, expected {want}"


def check_residuals(p: dict, rc: int, stdout: str) -> str | None:
    """Every representation residual on the ket is exactly zero."""
    lines = stdout.splitlines()
    if len(lines) != 100:
        return f"{len(lines)} residuals, expected 100"
    bad = [line for line in lines if not line.endswith(" 0")]
    return f"nonzero residual {bad[0]}" if bad else None


def _q_at(c: list[Fraction], t: Fraction) -> Fraction:
    """q(t) = t^h - sum_j c_j t^j by one Horner pass over the companion column."""
    acc = Fraction(1)
    for cj in reversed(c):
        acc = acc * t - cj
    return acc


def check_cartan(p: dict, rc: int, stdout: str) -> str | None:
    """Constituent dimensions add up to n, each piece carries r, each lambda is a root of q."""
    if rc != 0:
        return f"exit {rc}"
    out, err = _parse(stdout)
    if err:
        return err
    n, r, c = p["n"], p["r"], p["c"]
    if out.get("dim") != n or out.get("r") != fmt(r):
        return f"header {out.get('dim')!r}, {out.get('r')!r}"
    total = 0
    for piece in out["constituents"]:
        if piece.get("r") != fmt(r):
            return f"piece r {piece.get('r')!r}, expected {fmt(r)}"
        kind = piece["kind"]
        if kind == "nu_r":
            total += 1
        elif kind == "nu_r_lambda":
            total += 2
            lam = Fraction(piece["lambda"])
            if lam == 0 or _q_at(c, lam) != 0:
                return f"lambda {piece['lambda']} is not a nonzero root of q"
        elif kind == "unresolved":
            total += piece["dim"]
        else:
            return f"unknown constituent kind {kind!r}"
    return None if total == n else f"constituent dims sum to {total}, expected {n}"


CHECKS = {"classify": check_classify, "singular": check_singular,
          "verify-algebra": check_verify_algebra, "residuals": check_residuals,
          "cartan": check_cartan}
