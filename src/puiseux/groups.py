"""Subgroups of Q that describe difference groups: cyclic (``q * Z``),
localized (``u * Z[1/p^e : allowed]``), or unknown with a reason.

Each catalog family builds its own (``Family.group``), and
``puiseux.closures`` reads the root closure off it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from . import sequences
from .rationals import RationalLike, coerce_rational, format_rational

__all__ = ["CyclicScaled", "GroupDescription", "LocalizedScaled", "UnknownGroup"]

INFINITE = None  # exponent cap marker


@dataclass(frozen=True)
class CyclicScaled:
    """Group q * Z; membership is divisibility by the step."""

    step: Fraction
    known = True

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be positive")

    def member(self, x: RationalLike) -> bool:
        return (coerce_rational(x) / self.step).denominator == 1

    def describe(self) -> dict:
        return {"kind": "cyclic", "step": format_rational(self.step)}


@dataclass(frozen=True)
class LocalizedScaled:
    """Group unit * {a/d : each prime power in d within its cap}.

    ``overrides`` maps primes to exponent caps (None meaning no cap);
    ``default_exponent`` applies to every other prime (0 blocks it, None
    allows any power).  ``indexed_rule`` switches to the dense-atom cap
    rule, under which every prime is capped by the exponent the
    construction assigns to it.
    """

    unit: int
    overrides: tuple[tuple[int, int | None], ...] = ()
    default_exponent: int | None = 0
    indexed_rule: str | None = None
    known = True

    def __post_init__(self):
        if self.unit < 1:
            raise ValueError("unit must be a positive integer")
        object.__setattr__(self, "overrides", tuple(sorted(self.overrides)))

    def exponent_cap(self, p: int) -> int | None:
        for q, cap in self.overrides:
            if q == p:
                return cap
        if self.indexed_rule == "dense_atoms":
            return sequences.dense_atom_exponent_cap(p)
        return self.default_exponent

    def member(self, x: RationalLike) -> bool:
        q = coerce_rational(x) / self.unit
        for p, e in sequences.factorize(q.denominator).items():
            cap = self.exponent_cap(p)
            if cap is not None and e > cap:
                return False
        return True

    def max_denominator(self) -> int | None:
        """Largest allowed denominator when the allowed set is finite, else None."""
        if self.indexed_rule is not None or self.default_exponent is None or self.default_exponent >= 1:
            return None
        if any(cap is None for _, cap in self.overrides):
            return None
        return math.prod(p**cap for p, cap in self.overrides)

    def allowed_denominator_above(self, threshold: int) -> int | None:
        """Some allowed denominator exceeding the threshold, if any exists."""
        d = 1
        if self.indexed_rule == "dense_atoms":
            for e in sequences.dense_atom_entries(64):
                d *= e.prime**e.exponent
                if d > threshold:
                    return d
            return None
        for p, cap in self.overrides:
            if cap is None:
                while d <= threshold:
                    d *= p
                return d
            d *= p**cap
            if d > threshold:
                return d
        if self.default_exponent is None:
            return threshold + 1
        if self.default_exponent >= 1:
            for p in sequences.iter_primes():
                if not any(p == q for q, _ in self.overrides):
                    d *= p**self.default_exponent
                    if d > threshold:
                        return d
        return d if d > threshold else None

    def describe(self) -> dict:
        out: dict = {"kind": "localized", "unit": self.unit}
        if self.overrides:
            out["prime_exponents"] = {
                str(p): ("inf" if cap is None else cap) for p, cap in self.overrides
            }
        out["default_exponent"] = "inf" if self.default_exponent is None else self.default_exponent
        if self.indexed_rule:
            out["exponent_rule"] = self.indexed_rule
        return out


@dataclass(frozen=True)
class UnknownGroup:
    reason: str
    known = False

    def describe(self) -> dict:
        return {"kind": "unknown", "reason": self.reason}


GroupDescription = Union[CyclicScaled, LocalizedScaled, UnknownGroup]
