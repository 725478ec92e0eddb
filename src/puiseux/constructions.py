"""Executable example constructions, each emitting a monoid description.

Three builders:

* ``build_dense_atoms``: an atomic monoid whose atoms spread through the
  nonnegative reals.  Entry k approximates the k-th term of a dense
  rational enumeration by a fraction with denominator a power of the k-th
  prime, within 1/k.  Distinct prime denominators make every entry an
  atom, and the atoms inherit the enumeration's density in the limit.
  The default enumeration, ``low_discrepancy``, opens with two sweeps of
  (0, 5], so a short prefix of atoms already spreads over that window;
  ``calkin_wilf`` stays selectable but reaches 1/n only at position
  2**(n-1).
* ``build_cantor_shift``: the monoid generated by 1 + E, E the surviving
  interval endpoints after ``depth`` middle-third removals on [0, 1].  The
  generators sit inside a nowhere dense set, yet their pairwise sums tile
  [2, 4] at resolution 3**-depth.
* ``build_increasing``: strictly increasing generator sequences from the
  tail catalog (affine, harmonic, prime-indexed harmonic), with the
  geometric form aliased to its own family.

The numeric rules here are one valid instantiation of the constructions;
the invariants (prime never divides the numerator, error below 1/k), not
the specific values, are the contract.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Iterable

from .families import (
    _TAIL_FORMS,
    CantorShift,
    DenseAtoms,
    Geometric,
    IncreasingSequence,
    MonoidSpec,
    cantor_generators,
)
from .rationals import RationalLike, require_positive
from .sequences import DEFAULT_SEED, DenseAtomEntry, dense_atom_entries

__all__ = [
    "CantorShiftResult",
    "DenseAtomsResult",
    "build_cantor_shift",
    "build_dense_atoms",
    "build_increasing",
]


@dataclass(frozen=True)
class DenseAtomsResult:
    spec: DenseAtoms
    entries: tuple[DenseAtomEntry, ...]

    def atoms(self) -> tuple[Fraction, ...]:
        return tuple(e.atom for e in self.entries)


def build_dense_atoms(count: int, seed: str = DEFAULT_SEED) -> DenseAtomsResult:
    """Materialize ``count`` entries of the dense-atom construction.

    Every entry satisfies: the prime does not divide the numerator, primes
    are distinct and increasing, and |target - atom| < 1/index.
    """
    entries = dense_atom_entries(count, seed)
    return DenseAtomsResult(spec=DenseAtoms(count=count, seed=seed), entries=entries)


@dataclass(frozen=True)
class CantorShiftResult:
    spec: CantorShift
    generators: tuple[Fraction, ...]

    def endpoints(self) -> tuple[Fraction, ...]:
        return tuple(g - 1 for g in self.generators)


def build_cantor_shift(depth: int) -> CantorShiftResult:
    """Generators 1 + E for the depth-round endpoint set E (2**(depth+1) values)."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    spec = CantorShift(depth)
    return CantorShiftResult(spec=spec, generators=cantor_generators(depth))


def build_increasing(
    form: str,
    *,
    prefix: Iterable[RationalLike] = (),
    offset: RationalLike | None = None,
    slope: RationalLike | None = None,
    limit: RationalLike | None = None,
    coeff: RationalLike | None = None,
    ratio: RationalLike | None = None,
) -> MonoidSpec:
    """Increasing-sequence description from the tail catalog.

    Forms: ``affine`` (offset, slope), ``harmonic`` (limit, coeff),
    ``prime_harmonic`` (limit, coeff), and ``geometric`` (ratio > 1), which
    aliases to the geometric family.  Parameters that would not produce a
    strictly increasing positive sequence are rejected.
    """
    prefix = tuple(prefix)
    tail = _TAIL_FORMS.get(form) if isinstance(form, str) else None
    if tail is not None:
        given = {"offset": offset, "slope": slope, "limit": limit, "coeff": coeff}
        names = [f.name for f in fields(tail)]
        if any(given[n] is None for n in names):
            raise ValueError(f"{form} form needs {' and '.join(names)}")
        return IncreasingSequence(tail(*(given[n] for n in names)), prefix=prefix)
    if form == "geometric":
        if ratio is None:
            raise ValueError("geometric form needs ratio")
        r = require_positive(ratio, what="ratio")
        if r <= 1:
            raise ValueError("geometric increasing sequences need ratio > 1")
        if prefix:
            raise ValueError("the geometric family takes no prefix")
        return Geometric(r)
    raise ValueError(f"unknown increasing form {form!r}; available: affine, harmonic, prime_harmonic, geometric")
