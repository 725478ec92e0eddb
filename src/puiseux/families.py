"""Descriptions of Puiseux monoids.

A monoid is described either by a finite list of positive rational
generators or by one member of a closed catalog of symbolic infinite
families (geometric powers, unit-fraction powers, increasing sequences
with a declared tail law, the prime-reciprocal family, shifted ternary
Cantor endpoints, and the dense-atom construction).  The catalog is
deliberately closed: every downstream classification rule must know each
family's limit-point structure, so arbitrary generator callbacks are
rejected by design.

Each family is one ``Family`` class that states its facts once; the rule
modules read those facts and never test a family's type.

This module owns canonicalization of finitely generated monoids (as
scale * numerical monoid), deterministic generator streaming, exact or
budgeted membership, and the JSON wire format used by the CLI.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from enum import Enum
from fractions import Fraction
from typing import ClassVar, Iterable, Iterator

from . import sequences
from .errors import BudgetError
from .groups import INFINITE, CyclicScaled, GroupDescription, LocalizedScaled, UnknownGroup
from .numerical import NumericalMonoid
from .rationals import (
    RationalLike,
    coerce_rational,
    format_rational,
    parse_rational,
    require_nonnegative,
    require_positive,
)

__all__ = [
    "AffineTail",
    "CanonicalFG",
    "CantorShift",
    "DenseAtoms",
    "Family",
    "FiniteGenerators",
    "Geometric",
    "HarmonicTail",
    "IncreasingSequence",
    "Membership",
    "MembershipResult",
    "MonoidSpec",
    "PrimeHarmonicTail",
    "PrimeReciprocalShift",
    "Tail",
    "UnitFractionPowers",
    "affine_finite_generators",
    "as_family",
    "canonical_fg",
    "canonicalize",
    "cantor_generators",
    "depth_for_complete",
    "dumps_spec",
    "generator_count",
    "generator_stream",
    "is_finitely_generated",
    "loads_spec",
    "omitted_generators_exceed",
    "prime_reciprocal_solutions",
    "spec_from_dict",
    "spec_member",
    "spec_to_dict",
]

DEFAULT_NODE_BUDGET = 200_000
DEFAULT_TRUNCATION_DEPTH = 48

_CANTOR_DEPTH_LIMIT = 18
_CANONICALIZE_LCM_LIMIT = 10**7


def _positive_tuple(values: Iterable[RationalLike], *, what: str) -> tuple[Fraction, ...]:
    return tuple(require_positive(v, what=what) for v in values)


# ---------------------------------------------------------------------------
# The family table


class Family:
    """A catalog family.  Each one states its facts here, once:

    * its generator law: ``stream(count)``, the first ``count`` generators
      in canonical order, or ``term(k)``, the k-th one; and ``size``, the
      number of generators (None when infinite);
    * ``finitely_generated``, with ``canonical()`` its canonical form;
    * ``ascends``: the stream is strictly increasing, towards ``limit``
      (None when unbounded), which gives the shared ascending-stream route:
      complete below the limit at a finite depth, nowhere dense (D3), empty
      conductor (R3), atoms by the increasing filter;
    * ``floor``: for a stream that does not ascend, its first generator
      when every later one exceeds it; None when the generators come
      arbitrarily close to zero;
    * ``group()``: the difference group, from the localized denominators;
    * the rows of the paper's table that finite generation and an
      ascending stream leave open: ``dense_witness()`` (D1: zero is a
      limit point of the generators), ``density_row`` ("D4" for the
      Cantor lattice), ``conductor_row`` ("R1", "R4" or "R5", the last
      with ``conductor_reason``), ``atom_row`` ("antimatter", "unknown",
      or why every generator is an atom), and ``decide(q, budget)`` and
      ``factorizations(q, budget)`` for a family that names, for each q,
      a finite generator set that is exact for q: ``_combinations`` walks
      it, and ``factorizations`` returns the walk's iterator;
    * ``simplest()``: the simplest catalog description of the same monoid;
    * its wire form: ``variant``, ``wire()`` and ``from_wire(obj)``, whose
      keys are the dataclass fields.
    """

    variant: ClassVar[str]
    size: int | None = None
    finitely_generated = False
    ascends = False
    limit: Fraction | None = None
    floor: Fraction | None = None
    density_row: str | None = None
    conductor_row: str | None = None
    conductor_reason: str | None = None
    atom_row: str | None = None

    # A family defines stream or term; each default builds on the other.
    def stream(self, count: int) -> tuple[Fraction, ...]:
        return tuple(self.term(k) for k in range(1, count + 1))

    def term(self, k: int) -> Fraction:
        return self.stream(k)[k - 1]

    def canonical(self) -> CanonicalFG:
        return canonicalize(self.stream(self.size))

    def dense_witness(self) -> tuple[tuple[Fraction, ...], str] | None:
        return None

    def decide(self, q: Fraction, budget: int) -> MembershipResult | None:
        return None

    def factorizations(
        self, q: Fraction, budget: int
    ) -> Iterator[tuple[tuple[Fraction, int], ...]] | None:
        return None

    def simplest(self) -> Family:
        return self

    # The default wire form is the raw field values.
    def wire(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_wire(cls, obj: dict) -> Family:
        return cls(**{f.name: obj[f.name] for f in fields(cls)})


class Tail:
    """A tail law of ``IncreasingSequence``: ``term(k)``, ``bounded`` (towards
    ``limit_value``), ``finitely_generated``, the difference ``group(seq)``
    of a sequence ending in it, and its wire ``form``."""

    form: ClassVar[str]
    finitely_generated = False
    signed: ClassVar[tuple[str, ...]] = ()  # fields that may be zero or negative

    def wire(self) -> dict:
        return {f.name: format_rational(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_wire(cls, obj: dict) -> Tail:
        return cls(*(_rat(obj, f.name, signed=f.name in cls.signed) for f in fields(cls)))


@dataclass(frozen=True)
class FiniteGenerators(Family):
    """Monoid generated by a finite set of positive rationals.

    Generators are deduplicated and sorted ascending on construction, so
    input order never affects results.
    """

    generators: tuple[Fraction, ...]
    variant = "finite"
    finitely_generated = True
    ascends = True

    def __init__(self, generators: Iterable[RationalLike]):
        gens = tuple(sorted(set(_positive_tuple(generators, what="generator"))))
        if not gens:
            raise ValueError("at least one generator is required")
        object.__setattr__(self, "generators", gens)

    @property
    def size(self) -> int:
        return len(self.generators)

    def stream(self, count: int) -> tuple[Fraction, ...]:
        return self.generators[:count]

    def group(self) -> GroupDescription:
        return _cyclic(self.generators)

    def wire(self) -> dict:
        return {"generators": [format_rational(g) for g in self.generators]}

    @classmethod
    def from_wire(cls, obj: dict) -> FiniteGenerators:
        return cls(_rats(obj, "generators"))


@dataclass(frozen=True)
class Geometric(Family):
    """Monoid generated by all nonnegative powers of a fixed ratio r != 1.

    An integer ratio gives the nonnegative integers, any other ratio above
    1 an unbounded ascending stream.  A ratio 1/d gives the same monoid as
    ``UnitFractionPowers(d)`` (``simplest``), so the atom and conductor
    rows here are those of the other contracting ratios, for which no
    criterion is implemented.
    """

    ratio: Fraction
    variant = "geometric"
    conductor_row = "R5"
    conductor_reason = (
        "supremum of closure-minus-monoid undetermined for contracting ratios "
        "with nonunit numerator"
    )

    def __init__(self, ratio: RationalLike):
        r = require_positive(ratio, what="ratio")
        if r == 1:
            raise ValueError("ratio 1 generates the nonnegative integers; use FiniteGenerators([1])")
        object.__setattr__(self, "ratio", r)

    @property
    def finitely_generated(self) -> bool:
        return self.ratio.denominator == 1

    @property
    def ascends(self) -> bool:
        return self.ratio > 1

    @property
    def atom_row(self) -> str | None:
        return None if self.ratio > 1 else "unknown"  # ratios above 1 are FG or ascend

    def term(self, k: int) -> Fraction:
        return self.ratio ** (k - 1)

    def canonical(self) -> CanonicalFG:
        return canonicalize(self.stream(1))  # integer ratio: 1 generates all of N0

    def group(self) -> GroupDescription:
        if self.ratio.denominator == 1:
            return CyclicScaled(Fraction(1))  # the monoid is all of N0
        return _localized_at(self.ratio.denominator)

    def dense_witness(self) -> tuple[tuple[Fraction, ...], str]:
        return tuple(self.ratio**n for n in range(1, 9)), f"generator n is ({self.ratio})**n"

    def simplest(self) -> Family:
        if self.ratio.numerator == 1:
            return UnitFractionPowers(self.ratio.denominator)  # 1 = d * (1/d)
        return self

    def wire(self) -> dict:
        return {"ratio": format_rational(self.ratio)}

    @classmethod
    def from_wire(cls, obj: dict) -> Geometric:
        return cls(_rat(obj, "ratio"))


@dataclass(frozen=True)
class UnitFractionPowers(Family):
    """Monoid generated by 1/base**n for n >= 1 (base >= 2).

    It is root-closed, so its conductor is the whole monoid (R1), and
    antimatter: every generator is base copies of the next one.
    """

    base: int
    variant = "unit_fraction_powers"
    conductor_row = "R1"
    atom_row = "antimatter"

    def __post_init__(self):
        if not isinstance(self.base, int) or isinstance(self.base, bool) or self.base < 2:
            raise ValueError(f"base must be an integer >= 2, got {self.base!r}")

    def term(self, k: int) -> Fraction:
        return Fraction(1, self.base**k)

    def group(self) -> GroupDescription:
        return _localized_at(self.base)

    def dense_witness(self) -> tuple[tuple[Fraction, ...], str]:
        return self.stream(8), f"generator n is 1/{self.base}**n"

    def decide(self, q: Fraction, budget: int) -> MembershipResult:
        if not self.group().member(q):
            return MembershipResult(Membership.OUT)
        # q = a / d with d | base**n: a copies of 1/base**n certify membership.
        n = 1
        while (q * self.base**n).denominator != 1:
            n += 1
        return MembershipResult(
            Membership.IN, certificate=((Fraction(1, self.base**n), int(q * self.base**n)),)
        )


@dataclass(frozen=True)
class AffineTail(Tail):
    """term(k) = offset + slope * k; strictly increasing and unbounded.

    Its denominators are bounded, so a scaled copy of the monoid sits
    inside the nonnegative integers and is finitely generated.
    """

    offset: Fraction
    slope: Fraction
    form = "affine"
    signed = ("offset",)
    bounded = False
    limit_value = None
    finitely_generated = True

    def __init__(self, offset: RationalLike, slope: RationalLike):
        object.__setattr__(self, "offset", coerce_rational(offset, what="offset"))
        object.__setattr__(self, "slope", require_positive(slope, what="slope"))

    def term(self, k: int) -> Fraction:
        return self.offset + self.slope * k

    def group(self, seq: IncreasingSequence) -> GroupDescription:
        # the prefix, the first tail term and the slope span the progression's group
        return _cyclic((*seq.prefix, self.term(len(seq.prefix) + 1), self.slope))


@dataclass(frozen=True)
class _LimitTail(Tail):
    limit: Fraction
    coeff: Fraction
    bounded = True

    def __post_init__(self):
        object.__setattr__(self, "limit", require_positive(self.limit, what="limit"))
        object.__setattr__(self, "coeff", require_positive(self.coeff, what="coeff"))

    @property
    def limit_value(self) -> Fraction:
        return self.limit


@dataclass(frozen=True)
class HarmonicTail(_LimitTail):
    """term(k) = limit - coeff / k; strictly increasing with the given limit."""

    form = "harmonic"

    def term(self, k: int) -> Fraction:
        return self.limit - self.coeff / k

    def group(self, seq: IncreasingSequence) -> GroupDescription:
        unit = _numerator_gcd(seq.stream(512))
        if unit is None:
            return _UNSCANNED
        # Denominators c*k / gcd(...) realize every prime power as k runs.
        return LocalizedScaled(unit=unit, overrides=(), default_exponent=INFINITE)


@dataclass(frozen=True)
class PrimeHarmonicTail(_LimitTail):
    """term(k) = limit - coeff / p_k with p_k the k-th prime."""

    form = "prime_harmonic"

    def term(self, k: int) -> Fraction:
        return self.limit - self.coeff / sequences.nth_prime(k)

    def group(self, seq: IncreasingSequence) -> GroupDescription:
        unit = _numerator_gcd(seq.stream(512))
        if unit is None:
            return _UNSCANNED
        if self.limit.denominator != 1 or self.coeff.denominator != 1:
            return UnknownGroup("prime-indexed tail with non-integer parameters")
        prefix_den = math.lcm(*(t.denominator for t in seq.prefix), 1)
        caps: dict[int, int | None] = dict(sequences.factorize(prefix_den))
        for p in sequences.factorize(int(self.coeff)):
            # term k with p_k = p is an integer: p never enters through the tail
            caps.setdefault(p, 0)
        return LocalizedScaled(unit=unit, overrides=tuple(caps.items()), default_exponent=1)


@dataclass(frozen=True)
class IncreasingSequence(Family):
    """Monoid generated by a strictly increasing rational sequence.

    An explicit finite prefix may override the first terms; from index
    len(prefix)+1 on, terms follow the declared tail law.  ``bounded`` and
    ``limit`` are stored explicitly (they are part of the wire format) and
    validated against the tail.  The tail decides finite generation and
    the difference group.
    """

    prefix: tuple[Fraction, ...]
    tail: Tail
    bounded: bool
    limit: Fraction | None
    variant = "increasing"
    ascends = True

    def __init__(
        self,
        tail: Tail,
        prefix: Iterable[RationalLike] = (),
        bounded: bool | None = None,
        limit: RationalLike | None = None,
    ):
        if not isinstance(tail, Tail):
            raise ValueError(f"tail must come from the tail catalog, got {type(tail).__name__}")
        pre = _positive_tuple(prefix, what="prefix term")
        for a, b in zip(pre, pre[1:]):
            if not a < b:
                raise ValueError(f"prefix must be strictly increasing, got {a} then {b}")
        first_tail = tail.term(len(pre) + 1)
        if first_tail <= 0:
            raise ValueError(f"first tail term must be positive, got {first_tail}")
        if pre and first_tail <= pre[-1]:
            raise ValueError(
                f"tail must continue increasing: term {len(pre)+1} is {first_tail} <= prefix end {pre[-1]}"
            )
        if bounded is None:
            bounded = tail.bounded
        if bounded != tail.bounded:
            raise ValueError(f"bounded={bounded} contradicts the tail law")
        lim = None if limit is None else require_positive(limit, what="limit")
        if tail.bounded:
            if lim is None:
                lim = tail.limit_value
            if lim != tail.limit_value:
                raise ValueError(f"limit {lim} contradicts the tail law limit {tail.limit_value}")
            if pre and pre[-1] >= lim:
                raise ValueError("prefix terms must stay below the limit")
        elif lim is not None:
            raise ValueError("an unbounded sequence cannot declare a limit")
        object.__setattr__(self, "prefix", pre)
        object.__setattr__(self, "tail", tail)
        object.__setattr__(self, "bounded", bounded)
        object.__setattr__(self, "limit", lim)

    @property
    def finitely_generated(self) -> bool:
        return self.tail.finitely_generated

    def term(self, k: int) -> Fraction:
        if k < 1:
            raise ValueError("term index must be >= 1")
        if k <= len(self.prefix):
            return self.prefix[k - 1]
        return self.tail.term(k)

    def canonical(self) -> CanonicalFG:
        return _affine_reduction(self)[1]

    def group(self) -> GroupDescription:
        return self.tail.group(self)

    def wire(self) -> dict:
        return {
            "prefix": [format_rational(t) for t in self.prefix],
            "tail": {"form": self.tail.form, **self.tail.wire()},
            "bounded": self.bounded,
            "limit": None if self.limit is None else format_rational(self.limit),
        }

    @classmethod
    def from_wire(cls, obj: dict) -> IncreasingSequence:
        prefix = _rats(obj, "prefix")
        return cls(
            tail=_from_table(obj["tail"], _TAIL_FORMS, "tail", "form"),
            prefix=prefix,
            bounded=obj["bounded"],
            limit=None if obj["limit"] is None else _rat(obj, "limit"),
        )


@dataclass(frozen=True)
class PrimeReciprocalShift(Family):
    """Monoid generated by {1} and {1 + 1/p} for primes p.

    ``prime_bound`` None means all primes; an integer P keeps only p <= P,
    which makes the monoid finitely generated.  Every generator lies in
    [1, 2), below the least two-part sum, so every generator is an atom.
    Membership and factorizations walk ``_combinations`` over the finitely
    many generators that x's denominator and size allow, bounded or not
    (``decide``, ``prime_reciprocal_solutions``).
    """

    prime_bound: int | None
    variant = "prime_reciprocal_shift"
    floor = Fraction(1)
    conductor_row = "R4"  # all primes; a bound makes the monoid finitely generated
    atom_row = "prime-reciprocal"

    def __post_init__(self):
        b = self.prime_bound
        if b is not None and (not isinstance(b, int) or isinstance(b, bool) or b < 2):
            raise ValueError(f"prime_bound must be None or an integer >= 2, got {b!r}")

    @property
    def size(self) -> int | None:
        return None if self.prime_bound is None else 1 + len(sequences.primes_upto(self.prime_bound))

    @property
    def finitely_generated(self) -> bool:
        return self.prime_bound is not None

    def stream(self, count: int) -> tuple[Fraction, ...]:
        size = self.size
        if size is not None:
            count = min(count, size)
        return (Fraction(1), *(1 + Fraction(1, sequences.nth_prime(k)) for k in range(1, count)))

    def group(self) -> GroupDescription:
        if self.prime_bound is None:
            return LocalizedScaled(unit=1, overrides=(), default_exponent=1)
        overrides = tuple((p, 1) for p in sequences.primes_upto(self.prime_bound))
        return LocalizedScaled(unit=1, overrides=overrides, default_exponent=0)

    def decide(self, q: Fraction, budget: int) -> MembershipResult:
        if q < self.floor:
            return MembershipResult(Membership.OUT)  # every nonzero element is >= 1
        # p copies of 1 + 1/p make p + 1 ones, so some factorization keeps each
        # multiplicity below p, and each prime it uses then divides den(q).
        gens = _reciprocal_shifts(sequences.factorize(q.denominator), self.prime_bound)
        try:
            found = next(_combinations(gens, q, budget), None)
        except BudgetError:
            return MembershipResult(
                Membership.UNKNOWN, reason={"kind": "node_budget", "node_budget": budget}
            )
        if found is None:
            return MembershipResult(Membership.OUT)
        return MembershipResult(Membership.IN, certificate=found[::-1])  # atoms ascending

    def factorizations(self, q: Fraction, budget: int) -> Iterator[tuple[tuple[Fraction, int], ...]]:
        return prime_reciprocal_solutions(q, self.prime_bound, budget)

    def wire(self) -> dict:
        return {"prime_bound": "all" if self.prime_bound is None else self.prime_bound}

    @classmethod
    def from_wire(cls, obj: dict) -> PrimeReciprocalShift:
        bound = obj["prime_bound"]
        return cls(None if bound == "all" else bound)


@dataclass(frozen=True)
class CantorShift(Family):
    """Monoid generated by 1 + E, E the ternary-removal endpoints after `depth` rounds.

    Finitely generated, with its own density rule (D4).
    """

    depth: int
    variant = "cantor_shift"
    finitely_generated = True
    ascends = True
    density_row = "D4"

    def __post_init__(self):
        if not isinstance(self.depth, int) or isinstance(self.depth, bool) or self.depth < 1:
            raise ValueError(f"depth must be an integer >= 1, got {self.depth!r}")

    @property
    def size(self) -> int:
        return 2 ** (self.depth + 1)

    def stream(self, count: int) -> tuple[Fraction, ...]:
        return cantor_generators(self.depth)[:count]

    def group(self) -> GroupDescription:
        return LocalizedScaled(unit=1, overrides=((3, self.depth),), default_exponent=0)


@dataclass(frozen=True)
class DenseAtoms(Family):
    """The dense-atom construction over a seed enumeration of the rationals.

    The family is infinite (one generator per index k); ``count`` records the
    materialization depth used when the description was built and serves as
    the default enumeration depth downstream.  Distinct generators carry
    powers of distinct primes in their denominators, so every generator is
    an atom, and the atoms enter every neighborhood of zero.
    """

    count: int
    seed: str = sequences.DEFAULT_SEED
    variant = "dense_atoms"
    conductor_row = "R5"
    conductor_reason = "dense non-increasing family: neither the tail nor the empty criterion applies"
    atom_row = "distinct-prime-powers"

    def __post_init__(self):
        if not isinstance(self.count, int) or isinstance(self.count, bool) or self.count < 1:
            raise ValueError(f"count must be an integer >= 1, got {self.count!r}")
        if not isinstance(self.seed, str) or self.seed not in sequences.SEED_SEQUENCES:
            raise ValueError(
                f"unknown seed {self.seed!r}; available: {sorted(sequences.SEED_SEQUENCES)}"
            )

    def stream(self, count: int) -> tuple[Fraction, ...]:
        return tuple(e.atom for e in sequences.dense_atom_entries(count, self.seed))

    def group(self) -> GroupDescription:
        unit = _numerator_gcd(e.atom for e in sequences.dense_atom_entries(512, self.seed))
        if unit is None:
            return _UNSCANNED
        return LocalizedScaled(unit=unit, indexed_rule="dense_atoms", default_exponent=0)

    def dense_witness(self) -> tuple[tuple[Fraction, ...], str]:
        sample: list[Fraction] = []
        for entry in sequences.dense_atom_entries(2048, self.seed):
            if not sample or entry.atom < sample[-1]:
                sample.append(entry.atom)
            if len(sample) >= 8:
                break
        return tuple(sample), (
            "atoms track a dense enumeration of the positive rationals within 1/k, "
            "so they enter every neighborhood of zero"
        )


MonoidSpec = Family

# Wire-format names: every catalog family is a direct subclass of Family.
_VARIANTS = {cls.variant: cls for cls in Family.__subclasses__()}
_TAIL_FORMS = {cls.form: cls for cls in (AffineTail, HarmonicTail, PrimeHarmonicTail)}


def as_family(spec: object) -> Family:
    """``spec`` itself when it is a catalog description; TypeError otherwise."""
    if not isinstance(spec, Family):
        raise TypeError(f"not a monoid description: {spec!r}")
    return spec


# ---------------------------------------------------------------------------
# Difference groups from the declared denominators

_UNSCANNED = UnknownGroup("numerator gcd undetermined within the scan horizon")


def _cyclic(values: Iterable[Fraction]) -> CyclicScaled:
    """The group spanned by finitely many rationals: gcd / lcm times Z."""
    values = tuple(values)
    den = math.lcm(*(v.denominator for v in values))
    return CyclicScaled(Fraction(math.gcd(*(int(v * den) for v in values)), den))


def _localized_at(n: int) -> LocalizedScaled:
    """Z localized at the primes of n: every power of them may divide a denominator."""
    overrides = tuple((p, INFINITE) for p in sequences.factorize(n))
    return LocalizedScaled(unit=1, overrides=overrides, default_exponent=0)


def _numerator_gcd(generators: Iterable[Fraction]) -> int | None:
    """gcd of all element numerators, exact when the scanned generators reach 1."""
    g = 0
    for v in generators:
        g = math.gcd(g, v.numerator)
        if g == 1:
            return 1
    return None


# ---------------------------------------------------------------------------
# Canonical form of finitely generated monoids


@dataclass(frozen=True)
class CanonicalFG:
    """Finitely generated monoid normalized as scale * (numerical monoid).

    x belongs to the monoid iff x / scale is a nonnegative integer inside
    ``nm``.  ``den_lcm`` is the lcm L of the generator denominators and
    ``num_gcd`` the gcd g of the L-scaled generators, so scale == g / L.
    """

    scale: Fraction
    nm: NumericalMonoid
    den_lcm: int
    num_gcd: int

    def member(self, x: RationalLike) -> bool:
        q = coerce_rational(x, what="element")
        if q < 0:
            return False
        t = q / self.scale
        return t.denominator == 1 and self.nm.contains(int(t))

    def atoms(self) -> tuple[Fraction, ...]:
        return tuple(self.scale * a for a in self.nm.minimal_generators)


def _denominator_lcm(values: Iterable[Fraction]) -> int:
    den_lcm = math.lcm(*(v.denominator for v in values))
    if den_lcm > _CANONICALIZE_LCM_LIMIT:
        raise BudgetError(
            "denominator lcm too large to canonicalize",
            den_lcm=den_lcm,
            limit=_CANONICALIZE_LCM_LIMIT,
        )
    return den_lcm


def canonicalize(generators: Iterable[RationalLike]) -> CanonicalFG:
    """Normalize a finite generator list as scale * numerical monoid."""
    gens = sorted(set(_positive_tuple(generators, what="generator")))
    if not gens:
        raise ValueError("at least one generator is required")
    den_lcm = _denominator_lcm(gens)
    scaled = [int(g * den_lcm) for g in gens]
    num_gcd = math.gcd(*scaled)
    nm = NumericalMonoid(h // num_gcd for h in scaled)
    return CanonicalFG(
        scale=Fraction(num_gcd, den_lcm), nm=nm, den_lcm=den_lcm, num_gcd=num_gcd
    )


# ---------------------------------------------------------------------------
# Generator streaming


def _cantor_endpoints(depth: int) -> tuple[Fraction, ...]:
    if depth > _CANTOR_DEPTH_LIMIT:
        raise BudgetError("cantor depth too large", depth=depth, limit=_CANTOR_DEPTH_LIMIT)
    scale = 3**depth
    intervals = [(0, scale)]
    for _ in range(depth):
        nxt = []
        for a, b in intervals:
            w = (b - a) // 3
            nxt.append((a, a + w))
            nxt.append((b - w, b))
        intervals = nxt
    points = set()
    for a, b in intervals:
        points.add(a)
        points.add(b)
    return tuple(Fraction(p, scale) for p in sorted(points))


def cantor_generators(depth: int) -> tuple[Fraction, ...]:
    """1 + endpoints, ascending; 2**(depth+1) generators with denominators | 3**depth."""
    return tuple(1 + e for e in _cantor_endpoints(depth))


def generator_count(spec: MonoidSpec) -> int | None:
    """Number of generators in the family's canonical stream; None if infinite."""
    return as_family(spec).size


def generator_stream(spec: MonoidSpec, count: int) -> tuple[Fraction, ...]:
    """First ``count`` generators in the family's canonical order.

    Finite families return their whole generating set when ``count``
    exceeds it.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    return as_family(spec).stream(count)


def is_finitely_generated(spec: MonoidSpec) -> bool:
    """Whether the described monoid is finitely generated."""
    return as_family(spec).finitely_generated


def omitted_generators_exceed(spec: MonoidSpec, depth: int, bound: Fraction) -> bool:
    """True iff every generator beyond the first ``depth`` exceeds ``bound``.

    This is the completeness certificate for truncated enumerations: when it
    holds, the omitted generators cannot contribute any element <= bound.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    total = generator_count(spec)
    if total is not None and depth >= total:
        return True
    if spec.ascends:
        return spec.term(depth + 1) > bound  # the omitted generators start at the next one
    floor = spec.floor  # the first generator; every later one exceeds it
    return floor is not None and (bound < floor or (depth >= 1 and bound == floor))


def depth_for_complete(spec: MonoidSpec, bound: Fraction, cap: int = 100_000) -> int | None:
    """Smallest stream depth whose omitted generators all exceed ``bound``.

    None when no finite depth works (families with arbitrarily small or
    accumulating generators below the bound).
    """
    total = generator_count(spec)
    if total is not None:
        return total
    if not spec.ascends:
        return 1 if spec.floor is not None and bound <= spec.floor else None
    if spec.limit is not None and spec.limit <= bound:
        return None  # infinitely many generators below the bound
    k = 1
    while spec.term(k) <= bound:
        k += 1
        if k > cap:
            raise BudgetError("depth search exceeded cap", cap=cap)
    return max(k - 1, 1)


# ---------------------------------------------------------------------------
# Membership


class Membership(str, Enum):
    IN = "in"
    OUT = "out"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class MembershipResult:
    status: Membership
    certificate: tuple[tuple[Fraction, int], ...] | None = None
    reason: dict | None = None


_IN0 = MembershipResult(Membership.IN, certificate=())


def _combinations(
    generators: Iterable[Fraction], x: Fraction, node_budget: int
) -> Iterator[tuple[tuple[Fraction, int], ...]]:
    """Every way to write x as a nonnegative combination of the generators.

    Yields (generator, multiplicity) parts, generators descending, in the
    order of a depth-first walk that takes the largest multiplicity first;
    raises BudgetError once the walk has visited ``node_budget`` nodes.
    Denominator pruning: a partial remainder is only viable if its
    denominator divides the lcm of the remaining generators'.  A state
    (index, remainder) whose subtree yielded nothing is remembered as dead.
    The walk keeps its own stack, so long generator lists cannot exhaust
    the interpreter's recursion limit, and ``rem // g`` serves ``Fraction``
    and ``int`` inputs alike.
    """
    if x == 0:
        yield ()
        return
    gens = sorted(set(g for g in generators if 0 < g <= x), reverse=True)
    suffix_lcm = [1] * (len(gens) + 1)
    for i in range(len(gens) - 1, -1, -1):
        suffix_lcm[i] = math.lcm(suffix_lcm[i + 1], gens[i].denominator)
    dead: set = set()
    # [i, rest, c, seen]: gens[i] taken c times leaves rest, largest c first;
    # seen is the number of combinations yielded when the frame opened
    frames: list[list] = []
    nodes = found = 0
    i, rem = 0, x
    while True:
        nodes += 1
        if nodes > node_budget:
            raise BudgetError("combination search exceeded node budget", node_budget=node_budget)
        if rem == 0:
            yield tuple((gens[j], c) for j, _, c, _ in frames if c)
            found += 1
        elif i < len(gens) and (i, rem) not in dead:
            if suffix_lcm[i] % rem.denominator == 0:
                c = rem // gens[i]
                rest = rem - c * gens[i]
                frames.append([i, rest, c, found])
                i, rem = i + 1, rest
                continue
            dead.add((i, rem))
        # the node is done: retry the innermost frame with one copy fewer
        while frames:
            frame = frames[-1]
            j, rest, c, seen = frame
            if c > 0:
                rest += gens[j]
                frame[1:3] = rest, c - 1
                i, rem = j + 1, rest
                break
            frames.pop()
            if seen == found:  # the subtree yielded nothing
                dead.add((j, rest))  # with no copy taken, rest is the frame's own remainder
        else:
            return


def _reciprocal_shifts(primes: Iterable[int], prime_bound: int | None) -> list[Fraction]:
    """1 and 1 + 1/p for each of the primes that is at most ``prime_bound``."""
    kept = (p for p in primes if prime_bound is None or p <= prime_bound)
    return [Fraction(1), *(1 + Fraction(1, p) for p in kept)]


def prime_reciprocal_solutions(
    x: Fraction,
    prime_bound: int | None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Iterator[tuple[tuple[Fraction, int], ...]]:
    """Every factorization of x into 1 and the atoms 1 + 1/p, p <= prime_bound.

    Yields (atom, multiplicity) parts, atoms descending: 1 + 1/p for p
    ascending, then 1.  A prime whose multiplicity is prime to p divides
    den(x); one with a multiplicity of at least p has p + 1 <= x.  So
    ``_combinations`` over the primes p | den(x) and p <= floor(x) - 1 finds
    them all.  Raises BudgetError when the node budget runs out, and before
    listing more primes than the budget has nodes.
    """
    top = x.numerator // x.denominator - 1
    if prime_bound is not None:
        top = min(top, prime_bound)
    if top > node_budget:
        raise BudgetError("prime-reciprocal search exceeded node budget", node_budget=node_budget)
    primes = set(sequences.factorize(x.denominator)).union(sequences.primes_upto(top))
    yield from _combinations(_reciprocal_shifts(primes, prime_bound), x, node_budget)


def spec_member(
    spec: MonoidSpec,
    x: RationalLike,
    budget: int = DEFAULT_NODE_BUDGET,
    depth: int = DEFAULT_TRUNCATION_DEPTH,
) -> MembershipResult:
    """Decide whether x belongs to the described monoid.

    Exact for families with a procedure of their own (``Family.decide``),
    for every finitely generated family, and for ascending streams whose
    generators below x form a finite set.  A finitely generated family is
    decided and certified by the residue table of its canonical form, with
    no search, so ``budget`` does not apply (UNKNOWN when that form is out
    of reach).  Otherwise IN comes with a certificate found within budget,
    OUT only from the difference group of a family whose generators
    approach zero, and UNKNOWN is never a guess.
    """
    spec = as_family(spec).simplest()
    q = require_nonnegative(x, what="element")
    if q == 0:
        return _IN0
    decided = spec.decide(q, budget)
    if decided is not None:
        return decided

    try:
        cf = canonical_fg(spec)
    except BudgetError as e:
        return MembershipResult(
            Membership.UNKNOWN, reason={"kind": "canonicalization_budget", **e.detail}
        )
    if cf is not None:
        # The residue table decides and certifies: no search, no budget.
        if not cf.member(q):
            return MembershipResult(Membership.OUT)
        parts = cf.nm.factorization(int(q / cf.scale))
        return MembershipResult(
            Membership.IN, certificate=tuple((cf.scale * a, c) for a, c in parts)
        )

    # The rest search: every generator <= x of an ascending stream below its
    # limit, else the first ``depth`` of infinitely many usable ones.
    finite_depth = depth_for_complete(spec, q)
    if finite_depth is None and not spec.ascends:
        group = spec.group()  # generators approach zero: only the group rules x out
        if group.known and not group.member(q):
            return MembershipResult(Membership.OUT)
    gens = [g for g in generator_stream(spec, finite_depth or depth) if g <= q]
    try:
        cert = next(_combinations(gens, q, budget), None)
    except BudgetError:
        spent = True
    else:
        if cert is not None:
            return MembershipResult(Membership.IN, certificate=cert)
        spent = False
    if finite_depth is None:
        return MembershipResult(
            Membership.UNKNOWN,
            reason={"kind": "generator_truncation", "depth": depth, "node_budget": budget},
        )
    if spent:
        return MembershipResult(
            Membership.UNKNOWN, reason={"kind": "node_budget", "node_budget": budget}
        )
    return MembershipResult(Membership.OUT)


def canonical_fg(spec: MonoidSpec) -> CanonicalFG | None:
    """Canonical scale * numerical-monoid form for finitely generated specs.

    This is the one route by which every question about a finitely
    generated spec is answered.  None for families that are not finitely
    generated.  May raise BudgetError when the canonical form is finite but
    out of reach (for example prime-reciprocal truncations, whose
    denominator lcm is a primorial).
    """
    spec = as_family(spec)
    return spec.canonical() if spec.finitely_generated else None


def affine_finite_generators(spec: IncreasingSequence, cap: int = 4096) -> tuple[Fraction, ...]:
    """A finite generator list for an affine-tail increasing monoid.

    Affine tails have bounded denominators, so a scaled copy of the monoid
    sits inside the nonnegative integers and finitely many terms generate
    it.  We extend the term list until the residue table of the terms so
    far absorbs the whole remaining progression: with d the gcd of the
    terms taken, it suffices that d divides the slope and the next term and
    that the next term is already past the table's conductor.
    """
    return _affine_reduction(spec, cap)[0]


def _affine_reduction(spec: IncreasingSequence, cap: int = 4096) -> tuple[tuple[Fraction, ...], CanonicalFG]:
    # The terms of ``affine_finite_generators`` and the canonical form built
    # from the numerical monoid of the last doubling step.  The terms hold
    # two consecutive tail terms, so their denominator lcm is ``den``.
    if not spec.tail.finitely_generated:
        raise ValueError("only affine tails reduce to a finite generator list")
    den = _denominator_lcm((spec.tail.offset, spec.tail.slope, *spec.prefix))
    slope_scaled = int(spec.tail.slope * den)
    count = max(2, len(spec.prefix) + 2)
    while count <= cap:
        terms = [spec.term(k) for k in range(1, count + 1)]
        scaled = [int(t * den) for t in terms]
        g = math.gcd(*scaled)
        nxt = int(spec.term(count + 1) * den)
        if nxt % g == 0 and slope_scaled % g == 0:
            nm = NumericalMonoid(s // g for s in scaled)
            if nxt // g >= nm.conductor:
                cf = CanonicalFG(scale=Fraction(g, den), nm=nm, den_lcm=den, num_gcd=g)
                return tuple(terms), cf
        count *= 2
    raise BudgetError("affine reduction did not stabilize", cap=cap)


# ---------------------------------------------------------------------------
# JSON wire format


def _require_keys(obj: dict, keys: set[str], what: str) -> None:
    extra = set(obj) - keys
    if extra:
        raise ValueError(f"unexpected {what} fields: {sorted(extra)}")
    missing = keys - set(obj)
    if missing:
        raise ValueError(f"missing {what} fields: {sorted(missing)}")


def _rat(obj: dict, key: str, signed: bool = False) -> Fraction:
    v = obj[key]
    if not isinstance(v, str):
        raise ValueError(f"field {key!r} must be a rational string, got {v!r}")
    return parse_rational(v, signed=signed)


def _rats(obj: dict, key: str) -> list[Fraction]:
    v = obj[key]
    if not isinstance(v, list) or not all(isinstance(t, str) for t in v):
        raise ValueError(f"{key} must be a list of rational strings")
    return [parse_rational(t) for t in v]


def _from_table(obj: dict, table: dict, kind: str, tag: str):
    # The class a wire tag names, checked for exactly its fields, parsed by it.
    if not isinstance(obj, dict):
        raise ValueError(f"{kind} must be a JSON object, got {type(obj).__name__}")
    name = obj.get(tag)
    cls = table.get(name) if isinstance(name, str) else None
    if cls is None:
        raise ValueError(f"unknown {kind} {tag} {name!r}")
    _require_keys(obj, {tag, *(f.name for f in fields(cls))}, kind)
    return cls.from_wire(obj)


def spec_to_dict(spec: MonoidSpec) -> dict:
    """Plain-JSON form; all rationals as canonical strings."""
    spec = as_family(spec)
    return {"variant": spec.variant, **spec.wire()}


def spec_from_dict(obj: dict) -> MonoidSpec:
    return _from_table(obj, _VARIANTS, "spec", "variant")


def dumps_spec(spec: MonoidSpec) -> str:
    """Canonical serialization: parse -> serialize is byte-stable."""
    return json.dumps(spec_to_dict(spec), sort_keys=True, separators=(", ", ": "))


def loads_spec(text: str) -> MonoidSpec:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"invalid spec JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None
    return spec_from_dict(obj)
