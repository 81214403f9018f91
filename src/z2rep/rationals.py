"""Exact rational helpers: parsing and canonical formatting.

The seeded sampling the tests draw parameters from is in tests/reference.py.
"""

from __future__ import annotations

from fractions import Fraction


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or a plain integer string.

    Decimal input is rejected on purpose: it would silently round.
    """
    num, slash, den = text.strip().partition("/")
    try:
        num, den = int(num), (int(den) if slash else 1)
    except ValueError:
        raise ValueError(f"malformed rational {text!r}: expected p/q or an integer") from None
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(num, den)


def format_rational(x) -> str:
    """Canonical "p/q" with q > 0 and gcd(|p|, q) = 1; integers render as "p/1"."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"
