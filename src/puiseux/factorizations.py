"""Atoms, factorization sets, and length sets.

An atom is a nonzero element with no split into two nonzero elements.  A
factorization of x is a multiset of atoms summing to x; its length is the
number of parts counted with multiplicity.  Membership, the atom filter
and factorizations all walk one search, ``families._combinations``: atoms
descending, each multiplicity from floor(remaining / atom) down, with a
denominator prune and a memo of dead states.  Factorizations of a finitely
generated family walk the integer minimal generators of its canonical form;
the prime-reciprocal family names the finitely many atoms that x allows.

Atomicity verdicts follow the family table.  A family's declared
``atom_row`` comes first:

* every generator is an atom: the prime-reciprocal family, bounded or not
  (all generators lie below 2, the least two-part sum), and the dense-atom
  family (distinct generators carry powers of distinct primes);
* antimatter: unit-fraction powers, and geometric ratios 1/b (every
  generator splits as base copies of the next one);
* unknown: contracting geometric ratios with nonunit numerator, for which
  no criterion is implemented, and guessing would be worse than saying so.

Every other finitely generated family is atomic, with atoms the minimal
generators of its canonical form; every other ascending stream is atomic,
and a generator is an atom iff it is not a sum of the earlier generators,
the only candidates below it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .errors import BudgetError
from .families import (
    DEFAULT_NODE_BUDGET,
    MonoidSpec,
    _combinations,
    as_family,
    canonical_fg,
    depth_for_complete,
    generator_count,
    generator_stream,
)
from .rationals import RationalLike, require_nonnegative

__all__ = [
    "AtomicityKind",
    "AtomicityVerdict",
    "Factorization",
    "FactorizationSet",
    "LengthSet",
    "atoms",
    "factorizations",
    "length_set",
]

DEFAULT_ATOM_LIMIT = 64
_ATOM_DEPTH_CAP = 64  # generators scanned when infinitely many lie at or below x
_BUDGET_NOTE = "node budget exhausted"


class AtomicityKind(str, Enum):
    ATOMIC = "atomic"
    ANTIMATTER = "antimatter"
    NOT_ATOMIC = "not_atomic"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class AtomicityVerdict:
    kind: AtomicityKind
    atoms_shown: tuple[Fraction, ...]
    truncated: bool
    rule: str


@dataclass(frozen=True)
class Factorization:
    """Multiset of atoms with multiplicities; parts keep atoms descending."""

    parts: tuple[tuple[Fraction, int], ...]

    def __post_init__(self):
        for (a, c) in self.parts:
            if c < 1:
                raise ValueError("multiplicities must be >= 1")
            if a <= 0:
                raise ValueError("atoms must be positive")
        for (a, _), (b, _) in zip(self.parts, self.parts[1:]):
            if not a > b:
                raise ValueError("parts must list atoms in strictly descending order")

    @property
    def length(self) -> int:
        return sum(c for _, c in self.parts)

    @property
    def value(self) -> Fraction:
        return sum((a * c for a, c in self.parts), Fraction(0))


@dataclass(frozen=True)
class FactorizationSet:
    """All factorizations found for x; ``complete`` means all that exist."""

    x: Fraction
    items: tuple[Factorization, ...]
    complete: bool
    note: str | None = None

    def lengths(self) -> tuple[int, ...]:
        return tuple(sorted({f.length for f in self.items}))


@dataclass(frozen=True)
class LengthSet:
    x: Fraction
    lengths: tuple[int, ...]
    complete: bool


_RULE_FINITE = "atoms.finite: minimal generators of the scaled numerical monoid"
_RULE_INCREASING = (
    "atoms.increasing-filter: a generator is an atom iff it is not a sum of earlier "
    "generators, the only candidates below it in an ascending stream"
)
_RULE_PRS = (
    "atoms.prime-reciprocal: every generator lies below 2, the least possible "
    "two-part sum, so all generators are atoms"
)
_RULE_ANTIMATTER = (
    "atoms.antimatter: each generator equals base times the next smaller one, "
    "so nothing is irreducible"
)
_RULE_DENSE = (
    "atoms.distinct-prime-powers: each generator's denominator is a power of its "
    "own prime, so no generator is a sum of the others"
)
_RULE_UNKNOWN = (
    "atoms.unknown: no criterion for contracting geometric ratios with nonunit numerator"
)
_EVERY_GENERATOR = {"prime-reciprocal": _RULE_PRS, "distinct-prime-powers": _RULE_DENSE}


def _increasing_filter(
    stream: Sequence[Fraction], budget: int
) -> list[Fraction]:
    kept: list[Fraction] = []
    for g in stream:
        if next(_combinations(kept, g, budget), None) is None:
            kept.append(g)
    return kept


def atoms(
    spec: MonoidSpec, limit: int = DEFAULT_ATOM_LIMIT, budget: int = DEFAULT_NODE_BUDGET
) -> AtomicityVerdict:
    """Atomicity verdict with up to ``limit`` atoms listed.

    Truncation is always reported via the ``truncated`` flag, never silent.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    spec = as_family(spec).simplest()
    row = spec.atom_row
    if row == "antimatter":
        return AtomicityVerdict(AtomicityKind.ANTIMATTER, (), truncated=False, rule=_RULE_ANTIMATTER)
    if row == "unknown":
        return AtomicityVerdict(AtomicityKind.UNKNOWN, (), truncated=False, rule=_RULE_UNKNOWN)
    if row is not None:  # every generator is an atom, for the reason the row names
        total = generator_count(spec)
        truncated = total is None or limit < total
        shown = generator_stream(spec, limit)  # the whole stream of a finite family
        return AtomicityVerdict(AtomicityKind.ATOMIC, shown, truncated, rule=_EVERY_GENERATOR[row])

    cf = canonical_fg(spec)
    if cf is not None:
        full = cf.atoms()
        return AtomicityVerdict(
            AtomicityKind.ATOMIC, full[:limit], truncated=len(full) > limit, rule=_RULE_FINITE
        )

    # The rest are ascending streams: geometric ratios above 1, non-affine tails.
    shown = _increasing_filter(generator_stream(spec, limit), budget)
    return AtomicityVerdict(AtomicityKind.ATOMIC, tuple(shown), truncated=True, rule=_RULE_INCREASING)


def factorizations(
    spec: MonoidSpec, x: RationalLike, budget: int = DEFAULT_NODE_BUDGET
) -> FactorizationSet:
    """The set of factorizations of x into atoms.

    Complete whenever the atoms below x form a computable finite set (finite
    generator lists, ascending streams below their limit, prime-reciprocal
    families); otherwise the result is flagged partial.  A spent node budget
    keeps the factorizations found so far, flagged partial.  Antimatter and
    unknown-atom families are errors.
    """
    q = require_nonnegative(x, what="element")
    spec = as_family(spec).simplest()
    row = spec.atom_row
    if row == "antimatter":
        raise ValueError("no atoms: the monoid is antimatter")
    if row == "unknown":
        raise ValueError("atom set unknown for contracting geometric ratios with nonunit numerator")
    if q == 0:
        return FactorizationSet(q, (Factorization(()),), complete=True)
    if row == "distinct-prime-powers":
        raise ValueError("infinitely many atoms below any positive bound; no complete enumeration")

    walk = spec.factorizations(q, budget)  # a family that names its own finite walk
    note = None
    if walk is None:
        cf = canonical_fg(spec)
        if cf is not None:
            # Walk the integer minimal generators of the canonical form towards
            # x / scale, then scale the parts back.
            t = q / cf.scale
            if t.denominator != 1:
                return FactorizationSet(q, (), complete=True)
            gens, target, scale = cf.nm.minimal_generators, t.numerator, cf.scale
        else:
            depth = depth_for_complete(spec, q)
            stream = generator_stream(spec, _ATOM_DEPTH_CAP if depth is None else depth)
            gens = _increasing_filter([g for g in stream if g <= q], budget)
            target, scale = q, 1
            if depth is None:
                note = "atom truncation: infinitely many atoms at or below x"
        walk = (
            tuple((scale * a, c) for a, c in parts) for parts in _combinations(gens, target, budget)
        )
    found = []
    try:
        for parts in walk:
            found.append(Factorization(parts))
    except BudgetError:
        note = note or _BUDGET_NOTE  # keep what the walk found
    items = tuple(sorted(found, key=lambda f: f.parts))
    return FactorizationSet(q, items, complete=note is None, note=note)


def length_set(
    spec: MonoidSpec, x: RationalLike, budget: int = DEFAULT_NODE_BUDGET
) -> LengthSet:
    """Image of the factorization set under length."""
    fs = factorizations(spec, x, budget)
    return LengthSet(fs.x, fs.lengths(), fs.complete)
