"""Exact rational helpers: parsing and canonical formatting.

The seeded sampling the tests draw parameters from is in tests/reference.py.
"""

from __future__ import annotations

import re
from fractions import Fraction

# each part in ASCII digits only: int() would also take "1_0" and non-ASCII digits
_INTEGER = re.compile(r"[+-]?[0-9]+")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or a plain integer string.

    Each part is an optionally signed run of ASCII digits.  Decimal input is
    rejected on purpose: it would silently round.
    """
    num, slash, den = text.strip().partition("/")
    if not (_INTEGER.fullmatch(num) and (not slash or _INTEGER.fullmatch(den))):
        raise ValueError(f"malformed rational {text!r}: expected p/q or an integer")
    num, den = int(num), (int(den) if slash else 1)
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(num, den)


def format_rational(x) -> str:
    """Canonical "p/q" with q > 0 and gcd(|p|, q) = 1; integers render as "p/1"."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"
