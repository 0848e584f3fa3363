"""Exact rational plumbing: parsing, formatting and coercion helpers.

Exact values in the package are :class:`fractions.Fraction`s; the hot loops
(norms, certificate checks) put them over one common denominator with
:func:`scaled_ints` and work in integers.  The simplex takes its programs in
integers and hands them back over one denominator, so row generation needs
no conversion.
Serialized form is the reduced string ``"p/q"`` (denominator always
written, so ``Fraction(1)`` round-trips as ``"1/1"``).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

ZERO = Fraction(0)
ONE = Fraction(1)
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def as_fraction(value) -> Fraction:
    """Coerce ints, strings like ``"3/7"`` and Fractions to Fraction.

    Floats are rejected: they silently encode binary round-off, which would
    defeat the exactness guarantees everywhere downstream.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def format_rational(value: Fraction) -> str:
    """Reduced ``"p/q"`` form, denominator included even when it is 1."""
    f = as_fraction(value)
    return f"{f.numerator}/{f.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or ``"p"``: an optional sign, digits, and optionally
    ``/`` and digits.  Anything else raises ValueError, decimals and
    exponents included (``"1e30000000"`` would make ``Fraction`` build a
    number of thirty million digits)."""
    text = text.strip()
    quoted = repr(text) if len(text) <= 40 else f"{text[:16]!r}... ({len(text)} characters)"
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"malformed rational {quoted}: expected p or p/q in decimal digits")
    try:
        return Fraction(text)
    except ValueError:  # the text matched, so only int()'s limit on digits is left
        raise ValueError(f"malformed rational {quoted}: too many digits") from None
    except ZeroDivisionError:
        raise ValueError(f"malformed rational {quoted}: zero denominator") from None


def scaled_ints(values) -> tuple[list[int], int]:
    """Ints or Fractions as integers over their least common denominator."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den
