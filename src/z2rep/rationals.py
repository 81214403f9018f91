"""Exact rational helpers: parsing, canonical formatting, seeded sampling."""

from __future__ import annotations

import random
from fractions import Fraction


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or a plain integer string.

    Decimal input is rejected on purpose: it would silently round.
    """
    s = text.strip()
    if "/" in s:
        num, _, den = s.partition("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def format_rational(x) -> str:
    """Canonical "p/q" with q > 0 and gcd(|p|, q) = 1; integers render as "p/1"."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def sample_rationals(count: int, seed: int, lo: int = -50, hi: int = 50,
                     predicate=None) -> list[Fraction]:
    """Reproducible nonzero rationals, numerator in [lo, hi], denominator in [1, hi].

    An optional predicate filters the stream (rejection sampling), so the
    result is still fully determined by the seed.
    """
    rng = random.Random(seed)
    out: list[Fraction] = []
    while len(out) < count:
        num = rng.randint(lo, hi)
        den = rng.randint(1, hi)
        if num == 0:
            continue
        x = Fraction(num, den)
        if predicate is None or predicate(x):
            out.append(x)
    return out
