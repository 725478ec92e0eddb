"""Exact rational scalars.

Every quantity entering a monoid computation in this package is a
``fractions.Fraction``.  Fractions are kept in lowest terms with a positive
denominator by construction, which makes ``q.numerator`` and
``q.denominator`` total and unambiguous.  Floating point never appears on an exact
path: density and gap arguments collapse under rounding, so user-facing
values are parsed from strings only.

Monoid-facing values are nonnegative; signed rationals occur only inside
difference-group computations.  The split is enforced at API boundaries
(``parse_rational(..., signed=True)`` and the validators below) rather
than by separate runtime types.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

__all__ = [
    "Rational",
    "coerce_rational",
    "format_rational",
    "parse_rational",
    "require_nonnegative",
    "require_positive",
]

Rational = Fraction
RationalLike = Union[Fraction, int, str]

# "a" or "a/b": no whitespace, no leading "+", no leading zeros, b >= 1.
_UNSIGNED = re.compile(r"(?:0|[1-9][0-9]*)(?:/[1-9][0-9]*)?")
_SIGNED = re.compile(r"-?(?:0|[1-9][0-9]*)(?:/[1-9][0-9]*)?")


def parse_rational(text: str, *, signed: bool = False) -> Fraction:
    """Parse ``"a"`` or ``"a/b"``.

    No whitespace, no leading ``+``; ``-`` is accepted only when ``signed``
    is set.  Non-lowest-terms input is canonicalized.
    """
    pattern = _SIGNED if signed else _UNSIGNED
    if not pattern.fullmatch(text):
        kind = "signed rational" if signed else "nonnegative rational"
        raise ValueError(f"malformed {kind} literal: {text!r}")
    return Fraction(text)


def format_rational(q: Fraction) -> str:
    """Canonical string form: ``"a"`` for integers, ``"a/b"`` otherwise."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def coerce_rational(value: RationalLike, *, what: str = "value") -> Fraction:
    """Accept a Fraction, an int, or a canonical rational string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"{what} must be a rational, got a bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value, signed=True)
    raise TypeError(f"{what} must be an int, Fraction, or rational string, got {type(value).__name__}")


def require_positive(value: RationalLike, *, what: str = "value") -> Fraction:
    q = coerce_rational(value, what=what)
    if q <= 0:
        raise ValueError(f"{what} must be positive, got {q}")
    return q


def require_nonnegative(value: RationalLike, *, what: str = "value") -> Fraction:
    q = coerce_rational(value, what=what)
    if q < 0:
        raise ValueError(f"{what} must be nonnegative, got {q}")
    return q
