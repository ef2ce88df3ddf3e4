"""Exact nonnegative rational scalars and their canonical text form."""
from __future__ import annotations

from fractions import Fraction
from math import gcd

ZERO = Fraction(0)


class RatParseError(ValueError):
    """Raised for text that is not a canonical nonnegative rational."""


def pow2(exponent: int) -> Fraction:
    """2**exponent as an exact rational (exponent may be negative)."""
    if exponent >= 0:
        return Fraction(2**exponent)
    return Fraction(1, 2**-exponent)


def scaled(value: Fraction, den: int) -> int:
    """``value`` as an integer over ``den``, which its denominator must divide."""
    q, r = divmod(den, value.denominator)
    if r:
        raise AssertionError(f"value {value} does not fit denominator {den}")
    return value.numerator * q


def parse_rat(text: str) -> Fraction:
    """Parse the canonical "num/den" form, den > 0, both nonnegative."""
    parts = text.split("/")
    if len(parts) != 2:
        raise RatParseError(f"expected num/den, got {text!r}")
    try:
        num, den = int(parts[0]), int(parts[1])
    except ValueError:
        raise RatParseError(f"non-integer component in {text!r}") from None
    if den <= 0:
        raise RatParseError(f"denominator must be positive in {text!r}")
    if num < 0:
        raise RatParseError(f"negative rational {text!r}")
    return Fraction(num, den)


def fmt_rat(value: Fraction) -> str:
    """Canonical "num/den" text, lowest terms, denominator always explicit."""
    if value < 0:
        raise ValueError(f"negative rational {value} has no canonical form")
    return f"{value.numerator}/{value.denominator}"


def fmt_scaled(num: int, den: int) -> str:
    """``fmt_rat(Fraction(num, den))`` for den > 0, without the Fraction."""
    if num < 0:
        raise ValueError(f"negative rational {num}/{den} has no canonical form")
    g = gcd(num, den)
    return f"{num // g}/{den // g}"
