"""Brute-force enumeration ground truth.

Everything here optimizes for obviousness, not speed: truncated generator
lists, bounded coefficients, exhaustive sums.  The fast paths elsewhere in
the package are tested against these functions, so they must stay
independent of the residue-table and canonical-form machinery.

Two element-enumeration strategies are used behind one interface: an exact
integer-lattice bitmask when the truncated generators share a small common
denominator, and a plain set of fractions otherwise.  Both enumerate the
same set: all bounded-coefficient sums of the truncated generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import BudgetError
from .families import MonoidSpec, generator_stream, omitted_generators_exceed
from .numerical import reachable_bitmask
from .rationals import RationalLike, require_nonnegative, require_positive

__all__ = [
    "Enumeration",
    "LatticeEnumeration",
    "Truncation",
    "enumerate_monoid",
    "lattice_enumeration",
    "naive_atoms",
    "naive_factorization_parts",
]

DEFAULT_ELEMENT_CAP = 5_000_000
_LATTICE_BIT_CAP = 50_000_000


@dataclass(frozen=True)
class Truncation:
    """What was actually enumerated: how many generators, coefficient bound, cutoff."""

    generator_count: int
    max_coefficient: int
    bound: Fraction


@dataclass(frozen=True)
class Enumeration:
    """Sorted elements of the truncated monoid inside [0, bound].

    ``complete`` is set only when every omitted generator exceeds the bound,
    in which case the elements are exactly the monoid's elements up to it.
    """

    elements: tuple[Fraction, ...]
    truncation: Truncation
    complete: bool


@dataclass(frozen=True)
class LatticeEnumeration:
    """Bitmask form of an enumeration on the lattice (1/denominator) * Z.

    Bit i of ``mask`` is set iff i/denominator is an enumerated element.
    """

    mask: int
    denominator: int
    truncation: Truncation
    complete: bool

    @property
    def count(self) -> int:
        return bin(self.mask).count("1")

    def elements(self) -> tuple[Fraction, ...]:
        out = []
        mask = self.mask
        while mask:
            low = mask & -mask
            out.append(Fraction(low.bit_length() - 1, self.denominator))
            mask ^= low
        return tuple(out)


def _truncated_generators(spec: MonoidSpec, bound: Fraction, depth: int) -> tuple[list[Fraction], Truncation, bool]:
    if depth < 1:
        raise ValueError("depth must be >= 1")
    gens = sorted({g for g in generator_stream(spec, depth) if g <= bound})
    complete = omitted_generators_exceed(spec, depth, bound)
    max_coeff = max((int(bound / g) for g in gens), default=0)
    return gens, Truncation(depth, max_coeff, bound), complete


def lattice_enumeration(
    spec: MonoidSpec, bound: RationalLike, depth: int
) -> LatticeEnumeration | None:
    """Integer-lattice enumeration, or None when the lattice is too fine.

    All truncated generators are scaled by the lcm of their denominators and
    closed under addition by shifting, which visits exactly the bounded sums.
    """
    t = require_positive(bound, what="bound")
    gens, trunc, complete = _truncated_generators(spec, t, depth)
    if not gens:
        return LatticeEnumeration(mask=1, denominator=1, truncation=trunc, complete=complete)
    den = math.lcm(t.denominator, *(g.denominator for g in gens))
    bits = int(t * den)
    if bits > _LATTICE_BIT_CAP:
        return None
    mask = reachable_bitmask([int(g * den) for g in gens], bits)
    return LatticeEnumeration(mask=mask, denominator=den, truncation=trunc, complete=complete)


def _over_cap(elements: int, cap: int, truncation: Truncation) -> BudgetError:
    return BudgetError("enumeration exceeds element cap", elements=elements, cap=cap, truncation=truncation)


def enumerate_monoid(
    spec: MonoidSpec,
    bound: RationalLike,
    depth: int,
    element_cap: int = DEFAULT_ELEMENT_CAP,
) -> Enumeration:
    """All sums of the first ``depth`` generators that stay within the bound.

    Coefficients are implicitly bounded by floor(bound / generator).  Raises
    BudgetError as soon as the element count passes ``element_cap``, inside
    a generator's sweep, so runaway enumerations fail loudly, in bounded
    time, with the truncation they attempted.
    """
    t = require_positive(bound, what="bound")
    lattice = lattice_enumeration(spec, t, depth)
    if lattice is not None:
        if lattice.count > element_cap:
            raise _over_cap(lattice.count, element_cap, lattice.truncation)
        return Enumeration(lattice.elements(), lattice.truncation, lattice.complete)

    gens, trunc, complete = _truncated_generators(spec, t, depth)
    elements = {Fraction(0)}
    for g in gens:
        # This sweep's sums: known elements go in too (one hash per sum) until the
        # count nears the cap, then stay out, so the count that passes the cap is exact.
        sums: set[Fraction] = set()
        near_cap = False
        for e in elements:
            v = e + g
            while v <= t:
                if not (near_cap and v in elements):
                    sums.add(v)
                    if len(elements) + len(sums) > element_cap:
                        sums -= elements
                        near_cap = True
                        if len(elements) + len(sums) > element_cap:
                            raise _over_cap(len(elements) + len(sums), element_cap, trunc)
                v += g
        elements |= sums
    return Enumeration(tuple(sorted(elements)), trunc, complete)


def naive_atoms(enum: Enumeration) -> tuple[Fraction, ...]:
    """Elements with no two-part split into nonzero enumerated elements.

    Sound only on complete enumerations: any split of an element uses parts
    below it, and those are all present.
    """
    if not enum.complete:
        raise ValueError("atom detection needs a complete enumeration")
    elements = set(enum.elements)
    nonzero = [e for e in enum.elements if e > 0]
    atoms = []
    for e in nonzero:
        if not any(u <= e - u and (e - u) in elements for u in nonzero if 2 * u <= e):
            atoms.append(e)
    return tuple(atoms)


def naive_factorization_parts(
    atoms: Sequence[Fraction], x: RationalLike
) -> tuple[tuple[tuple[Fraction, int], ...], ...]:
    """Every multiset of atoms summing to x, by plain nested enumeration.

    Reference implementation: ascending atoms, one coefficient loop per
    atom, no pruning beyond the running partial sum.  Each result lists
    (atom, multiplicity) pairs with atoms descending.  The atom list must be
    complete below x for the output to be the full factorization set.
    """
    target = require_nonnegative(x, what="element")
    ordered = sorted(set(atoms))
    if any(a <= 0 for a in ordered):
        raise ValueError("atoms must be positive")
    results: list[tuple[tuple[Fraction, int], ...]] = []
    counts: list[int] = []

    def sweep(i: int, remaining: Fraction) -> None:
        if i == len(ordered):
            if remaining == 0:
                parts = tuple(
                    (ordered[j], counts[j]) for j in range(len(ordered) - 1, -1, -1) if counts[j]
                )
                results.append(parts)
            return
        a = ordered[i]
        c = 0
        while c * a <= remaining:
            counts.append(c)
            sweep(i + 1, remaining - c * a)
            counts.pop()
            c += 1

    sweep(0, target)
    return tuple(sorted(results))
