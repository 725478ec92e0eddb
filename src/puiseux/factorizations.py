"""Atoms, factorization sets, and length sets.

An atom is a nonzero element with no split into two nonzero elements.  A
factorization of x is a multiset of atoms summing to x; its length is the
number of parts counted with multiplicity.  Enumeration orders atoms
descending and bounds each multiplicity by floor(remaining / atom), which
gives canonical output order and tight pruning without heuristics.

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
    _bounded_member,
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
        found, _ = _bounded_member(kept, g, budget)
        if found is None:
            raise BudgetError("atom filter exceeded node budget", node_budget=budget)
        if not found:
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


def _atoms_below(
    spec: MonoidSpec, x: Fraction, budget: int, depth_cap: int = 64
) -> tuple[list[Fraction], bool]:
    """Atoms of the monoid that are <= x, with a completeness flag."""
    cf = canonical_fg(spec)
    if cf is not None:
        return [a for a in cf.atoms() if a <= x], True
    depth = depth_for_complete(spec, x)
    gens = [g for g in generator_stream(spec, depth_cap if depth is None else depth) if g <= x]
    return _increasing_filter(gens, budget), depth is not None


def _enumerate(
    atoms_desc: list[Fraction], x: Fraction, node_budget: int
) -> tuple[list[Factorization], bool]:
    """Complete descending-atom enumeration of multisets summing to x.

    Depth first, low multiplicities first, on an explicit stack so that
    long atom lists cannot exhaust the interpreter's recursion limit.
    """
    found: list[Factorization] = []
    parts: list[tuple[Fraction, int]] = []
    frames: list[list] = []  # [i, rem, c]: atoms_desc[i] taken c times leaves rem
    nodes = 0
    i, rem = 0, x
    while True:
        nodes += 1
        if nodes > node_budget:
            return sorted(found, key=lambda f: f.parts), False
        if rem == 0:
            found.append(Factorization(tuple(parts)))
        elif i < len(atoms_desc):
            frames.append([i, rem, 0])
            i += 1  # multiplicity 0 first
            continue
        # move to the next multiplicity of the innermost open frame
        while frames:
            frame = frames[-1]
            j, rest, c = frame
            a = atoms_desc[j]
            if c:
                parts.pop()
            rest -= a
            if rest >= 0:
                frame[1:] = rest, c + 1
                parts.append((a, c + 1))
                i, rem = j + 1, rest
                break
            frames.pop()
        else:
            return sorted(found, key=lambda f: f.parts), True


def factorizations(
    spec: MonoidSpec, x: RationalLike, budget: int = DEFAULT_NODE_BUDGET
) -> FactorizationSet:
    """The set of factorizations of x into atoms.

    Complete whenever the atoms below x form a computable finite set (finite
    generator lists, ascending streams below their limit, prime-reciprocal
    families); otherwise the result is flagged partial.  Antimatter and
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

    try:
        own = spec.factorizations(q, budget)  # a family with an exact search of its own
    except BudgetError:
        return FactorizationSet(q, (), complete=False, note="node budget exhausted")
    if own is not None:
        items = sorted(map(Factorization, own), key=lambda f: f.parts)
        return FactorizationSet(q, tuple(items), complete=True)

    below, below_complete = _atoms_below(spec, q, budget)
    items, exhausted = _enumerate(sorted(below, reverse=True), q, budget)
    complete = below_complete and exhausted
    note = None
    if not below_complete:
        note = "atom truncation: infinitely many atoms at or below x"
    elif not exhausted:
        note = "node budget exhausted"
    return FactorizationSet(q, tuple(items), complete=complete, note=note)


def length_set(
    spec: MonoidSpec, x: RationalLike, budget: int = DEFAULT_NODE_BUDGET
) -> LengthSet:
    """Image of the factorization set under length."""
    fs = factorizations(spec, x, budget)
    return LengthSet(fs.x, fs.lengths(), fs.complete)
