"""Cofinite additive submonoids of the nonnegative integers.

The workhorse structure is the residue table: for each residue class
modulo the smallest generator, the least monoid element in that class.
The table decides membership in O(1), yields the largest gap (maximum
table entry minus the modulus) and the conductor tail.  It is computed by
the round-robin algorithm of Böcker and Lipták, one walk around each
residue cycle per generator, in O(generators * modulus) steps, so no
search bound ever has to be guessed.  The same pass keeps the minimal
generators (a generator already reached by the smaller ones adds nothing)
and, for each class, the generator of its last improvement, from which a
factorization of any element is read off in one walk.

``reachable_bitmask`` is the deliberately separate ground truth: plain
closure-by-shifting reachability with no residue reasoning, used by tests
and by the oracle to cross-check the table route.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .errors import BudgetError

__all__ = ["NumericalMonoid", "reachable_bitmask"]

_BITMASK_LIMIT = 200_000_000  # bits; ~25 MB of big-int
_RESIDUE_LIMIT = 2_000_000


def reachable_bitmask(generators: Sequence[int], bound: int) -> int:
    """Bitmask of all generator sums in [0, bound]; bit i set iff i is a sum.

    Closure under each generator is achieved by doubling shifts, so the cost
    is O(len(generators) * log(bound)) big-int operations.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if bound > _BITMASK_LIMIT:
        raise BudgetError("reachability bitmask too large", bound=bound, limit=_BITMASK_LIMIT)
    mask = (1 << (bound + 1)) - 1
    reach = 1
    for g in sorted(set(generators)):
        if g <= 0:
            raise ValueError(f"generators must be positive integers, got {g}")
        shift = g
        while shift <= bound:
            reach |= (reach << shift) & mask
            shift <<= 1
    return reach


def _relax_residues(generators: Sequence[int], modulus: int) -> tuple[list[int], list[int], list[int]]:
    # Least element of <modulus, generators> in each class mod `modulus`
    # (the residue table of the monoid when `modulus` belongs to it), by
    # the round-robin of Boecker & Liptak (Algorithmica 2007): after
    # generator g, table[r] is least in its class for <modulus, gens so far>.
    # Adding g permutes each class p mod gcd(g, modulus) in one cycle;
    # walking it once from its least entry settles the whole class, so the
    # cost is O(len(generators) * modulus) with no repeat passes.
    # A least entry uses at most modulus - 1 generators (a longer sum has
    # a nonempty part divisible by modulus, which could be dropped), so
    # `unreached` is larger than any entry.
    # Generators must come in ascending order: then g is a sum of earlier
    # ones (and changes nothing) iff table[g % modulus] <= g, and the others
    # are returned as `kept`.  via[r] is the generator that last lowered
    # table[r], to an element plus via[r]; since the final table is least,
    # table[r] - via[r] is then exactly the entry of class r - via[r].
    unreached = modulus * generators[-1] + 1
    table = [unreached] * modulus
    table[0] = 0
    via = [0] * modulus
    kept = []
    for g in generators:
        step = g % modulus
        if table[step] <= g:
            continue
        kept.append(g)
        d = math.gcd(step, modulus)
        cycle = modulus // d
        for p in range(d):
            cls = table[p::d]
            best = min(cls)
            if best == unreached:
                continue
            r = p + d * cls.index(best)
            for _ in range(cycle - 1):
                r += step
                if r >= modulus:
                    r -= modulus
                best += g
                cur = table[r]
                if best < cur:
                    table[r] = best
                    via[r] = g
                else:
                    best = cur
    assert unreached not in table
    return table, via, kept


class NumericalMonoid:
    """Submonoid of the nonnegative integers with finite complement.

    Construction requires gcd 1 of the generators (otherwise the complement
    is infinite: divide the gcd out first).  Generators are deduplicated,
    sorted, and stripped down to the unique minimal generating set, so input
    order never affects results.  Instances are immutable; one round-robin
    pass at construction gives the residue table, the minimal generators and
    the data behind ``factorization``.
    """

    __slots__ = ("_min_gens", "_apery", "_via", "_frobenius")

    def __init__(self, generators: Iterable[int]):
        gens = sorted(set(generators))
        if not gens:
            raise ValueError("at least one generator is required")
        for g in gens:
            if not isinstance(g, int) or isinstance(g, bool) or g < 1:
                raise ValueError(f"generators must be integers >= 1, got {g!r}")
        if math.gcd(*gens) != 1:
            raise ValueError(
                f"not cofinite: gcd of generators is {math.gcd(*gens)}; divide it out first"
            )
        m = gens[0]
        if m > _RESIDUE_LIMIT:
            raise BudgetError("multiplicity too large for the residue table", multiplicity=m, limit=_RESIDUE_LIMIT)
        table, self._via, kept = _relax_residues(gens, m)
        self._min_gens = (m, *kept)
        self._apery = tuple(table)
        self._frobenius = max(table) - m

    @property
    def minimal_generators(self) -> tuple[int, ...]:
        return self._min_gens

    @property
    def multiplicity(self) -> int:
        """Smallest nonzero element."""
        return self._min_gens[0]

    @property
    def apery(self) -> tuple[int, ...]:
        """Residue table with respect to the multiplicity; entry 0 is 0."""
        return self._apery

    @property
    def frobenius(self) -> int:
        """Largest integer outside the monoid; -1 when the monoid is all of N0."""
        return self._frobenius

    @property
    def conductor(self) -> int:
        """Least c with every integer >= c inside the monoid."""
        return self._frobenius + 1

    def contains(self, x: int) -> bool:
        if x < 0:
            raise ValueError(f"membership is defined on nonnegative integers, got {x}")
        m = self._min_gens[0]
        return self._apery[x % m] <= x

    def factorization(self, x: int) -> tuple[tuple[int, int], ...]:
        """One way to write ``x`` as a sum of minimal generators.

        Pairs (generator, copies), largest generator first, read off the
        residue table in at most ``multiplicity`` steps: no search, no budget.
        Raises ValueError when ``x`` is not an element.
        """
        if not self.contains(x):
            raise ValueError(f"{x} is not an element of the monoid")
        m = self._min_gens[0]
        r = x % m
        copies = {m: (x - self._apery[r]) // m}
        while r:
            g = self._via[r]
            copies[g] = copies.get(g, 0) + 1
            r = (r - g) % m
        return tuple((g, copies[g]) for g in sorted(copies, reverse=True) if copies[g])

    def __contains__(self, x: int) -> bool:
        return self.contains(x)

    def apery_set(self, modulus: int | None = None) -> tuple[int, ...]:
        """Least monoid element in each residue class mod ``modulus``.

        ``modulus`` must itself belong to the monoid (default: the
        multiplicity, for which the table is cached).
        """
        if modulus is None or modulus == self._min_gens[0]:
            return self._apery
        if modulus < 1 or not self.contains(modulus):
            raise ValueError(f"{modulus} is not a nonzero element of the monoid")
        if modulus > _RESIDUE_LIMIT:
            raise BudgetError("residue table too large", modulus=modulus, limit=_RESIDUE_LIMIT)
        return tuple(_relax_residues(self._min_gens, modulus)[0])

    def gaps(self) -> tuple[int, ...]:
        """All nonnegative integers outside the monoid, in increasing order."""
        return tuple(x for x in range(self._frobenius + 1) if not self.contains(x))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NumericalMonoid):
            return NotImplemented
        return self._min_gens == other._min_gens

    def __hash__(self) -> int:
        return hash(self._min_gens)

    def __repr__(self) -> str:
        return f"NumericalMonoid({list(self._min_gens)})"
