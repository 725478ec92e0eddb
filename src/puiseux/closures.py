"""Difference group, root closure, and conductor.

For a monoid M of nonnegative rationals the difference group is
{x - y | x, y in M}; the root closure collects the group elements with
some positive multiple inside M and equals the nonnegative part of the
group.  Concretely the group is u * G where u is the gcd of the element
numerators (which equals the gcd of the generator numerators: each
generator's denominator is coprime to that gcd, so scaling never divides
it out) and G is the group generated by 1/d over the element
denominators d.  Two shapes cover the catalog:

* a cyclic group q * Z when denominators are bounded (finitely generated
  monoids, affine increasing tails);
* a localized lattice u * Z[1/p^e : allowed] when denominators grow, with
  per-prime exponent caps (possibly infinite) describing exactly which
  denominators occur.

The conductor is {x in the group | x + closure <= M}.  Its shape follows
a small rule table: root-closed monoids keep everything (R1); finitely
generated monoids keep the tail from sigma = scale * (largest gap) (R2),
read off the canonical form, so R2 covers every finitely generated family,
bounded prime-reciprocal truncations included, whenever that form fits its
budget; non-finitely-generated increasing monoids have unbounded closure-
minus-monoid, hence empty conductor (R3); the all-primes reciprocal family
is empty as well (R4); everything else, a canonical form out of reach
included, is reported unknown rather than extrapolated (R5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Union

from . import sequences
from .errors import BudgetError
from .families import (
    AffineTail,
    CantorShift,
    DenseAtoms,
    FiniteGenerators,
    Geometric,
    HarmonicTail,
    IncreasingSequence,
    MonoidSpec,
    PrimeHarmonicTail,
    PrimeReciprocalShift,
    UnitFractionPowers,
    canonical_fg,
    generator_stream,
    is_finitely_generated,
)
from .rationals import RationalLike, coerce_rational, format_rational

__all__ = [
    "ClosureDescription",
    "ConductorKind",
    "ConductorResult",
    "CyclicScaled",
    "GpDensity",
    "GpDensityVerdict",
    "GroupDescription",
    "LocalizedScaled",
    "UnknownGroup",
    "conductor",
    "difference_group",
    "fg_lattice_step",
    "gp_density",
    "root_closure",
]

INFINITE = None  # exponent cap marker


@dataclass(frozen=True)
class CyclicScaled:
    """Group q * Z; membership is divisibility by the step."""

    step: Fraction

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

    def describe(self) -> dict:
        return {"kind": "unknown", "reason": self.reason}


GroupDescription = Union[CyclicScaled, LocalizedScaled, UnknownGroup]


def _running_numerator_gcd(spec: MonoidSpec, scan: int = 512) -> int | None:
    """gcd of all element numerators, exact when the generator scan hits 1."""
    g = 0
    for v in generator_stream(spec, scan):
        g = math.gcd(g, v.numerator)
        if g == 1:
            return 1
    return None


def difference_group(spec: MonoidSpec) -> GroupDescription:
    """Description of {x - y | x, y in the monoid} as a subgroup of Q."""
    if isinstance(spec, FiniteGenerators):
        den = math.lcm(*(g.denominator for g in spec.generators))
        num = math.gcd(*(int(g * den) for g in spec.generators))
        return CyclicScaled(Fraction(num, den))

    if isinstance(spec, Geometric):
        r = spec.ratio
        if r.denominator == 1:
            return CyclicScaled(Fraction(1))  # the monoid is all of N0
        overrides = tuple((p, INFINITE) for p in sequences.factorize(r.denominator))
        return LocalizedScaled(unit=1, overrides=overrides, default_exponent=0)

    if isinstance(spec, UnitFractionPowers):
        overrides = tuple((p, INFINITE) for p in sequences.factorize(spec.base))
        return LocalizedScaled(unit=1, overrides=overrides, default_exponent=0)

    if isinstance(spec, PrimeReciprocalShift):
        if spec.prime_bound is None:
            return LocalizedScaled(unit=1, overrides=(), default_exponent=1)
        overrides = tuple((p, 1) for p in sequences.primes_upto(spec.prime_bound))
        return LocalizedScaled(unit=1, overrides=overrides, default_exponent=0)

    if isinstance(spec, CantorShift):
        return LocalizedScaled(unit=1, overrides=((3, spec.depth),), default_exponent=0)

    if isinstance(spec, DenseAtoms):
        unit = sequences.dense_atom_numerator_gcd(spec.seed)
        if unit is None:
            return UnknownGroup("numerator gcd undetermined within the scan horizon")
        return LocalizedScaled(unit=unit, indexed_rule="dense_atoms", default_exponent=0)

    if isinstance(spec, IncreasingSequence):
        tail = spec.tail
        if isinstance(tail, AffineTail):
            den = math.lcm(
                tail.offset.denominator,
                tail.slope.denominator,
                *(t.denominator for t in spec.prefix),
                1,
            )
            k0 = len(spec.prefix) + 1
            ints = [int(t * den) for t in spec.prefix]
            ints.append(int(tail.term(k0) * den))
            ints.append(int(tail.slope * den))  # gcd over an arithmetic progression
            return CyclicScaled(Fraction(math.gcd(*ints), den))
        unit = _running_numerator_gcd(spec)
        if unit is None:
            return UnknownGroup("numerator gcd undetermined within the scan horizon")
        if isinstance(tail, HarmonicTail):
            # Denominators c*k / gcd(...) realize every prime power as k runs.
            return LocalizedScaled(unit=unit, overrides=(), default_exponent=INFINITE)
        assert isinstance(tail, PrimeHarmonicTail)
        if tail.limit.denominator != 1 or tail.coeff.denominator != 1:
            return UnknownGroup("prime-indexed tail with non-integer parameters")
        prefix_den = math.lcm(*(t.denominator for t in spec.prefix), 1)
        caps: dict[int, int | None] = {
            p: e for p, e in sequences.factorize(prefix_den).items()
        }
        for p in sequences.factorize(int(tail.coeff)):
            # term k with p_k = p is an integer: p never enters through the tail
            caps.setdefault(p, 0)
        overrides = tuple(caps.items())
        return LocalizedScaled(unit=unit, overrides=overrides, default_exponent=1)

    raise TypeError(f"not a monoid description: {spec!r}")


@dataclass(frozen=True)
class ClosureDescription:
    """Root closure: the nonnegative part of the difference group.

    Every monoid element lies in the closure, every closure element has a
    positive multiple inside the monoid, and applying the construction to
    the closure itself changes nothing.
    """

    group: GroupDescription

    @property
    def known(self) -> bool:
        return not isinstance(self.group, UnknownGroup)

    def member(self, x: RationalLike) -> bool:
        if isinstance(self.group, UnknownGroup):
            raise ValueError(f"closure unknown: {self.group.reason}")
        q = coerce_rational(x)
        return q >= 0 and self.group.member(q)

    def generators(self, count: int = 16) -> tuple[Fraction, ...]:
        """Generating elements unit/d with allowed denominators d ascending."""
        if isinstance(self.group, UnknownGroup):
            raise ValueError(f"closure unknown: {self.group.reason}")
        if isinstance(self.group, CyclicScaled):
            return (self.group.step,)
        g = self.group
        stop = g.max_denominator()
        out = []
        d = 1
        while len(out) < count and (stop is None or d <= stop) and d <= 10_000_000:
            if g.member(Fraction(g.unit, d)):
                out.append(Fraction(g.unit, d))
            d += 1
        return tuple(out)

    def element_below(self, epsilon: RationalLike) -> Fraction | None:
        """A positive closure element below epsilon, or None if none exists."""
        eps = coerce_rational(epsilon)
        if eps <= 0:
            raise ValueError("epsilon must be positive")
        if isinstance(self.group, UnknownGroup):
            raise ValueError(f"closure unknown: {self.group.reason}")
        if isinstance(self.group, CyclicScaled):
            return self.group.step if self.group.step < eps else None
        g = self.group
        threshold = int(g.unit / eps)
        d = g.allowed_denominator_above(threshold)
        if d is None:
            return None  # unit/d >= eps for every allowed denominator
        return Fraction(g.unit, d)

    def describe(self) -> dict:
        return {
            "rule": "closure.formula: the elements with a positive multiple in the monoid "
            "are exactly the nonnegative part of the difference group, generated by "
            "unit/d over the element denominators d",
            "membership": "x >= 0 and x in the difference group",
            "group": self.group.describe(),
        }


def root_closure(spec: MonoidSpec) -> ClosureDescription:
    return ClosureDescription(difference_group(spec))


class GpDensity(str, Enum):
    GROUP_DENSE_CLOSURE_DENSE = "group_dense_in_R_closure_dense_in_R_nonneg"
    NOWHERE_DENSE_FG = "nowhere_dense_finitely_generated"


@dataclass(frozen=True)
class GpDensityVerdict:
    kind: GpDensity
    rule: str
    witness: tuple[Fraction, ...] = ()
    lattice_step: Fraction | None = None


_GP_RULE_FG = (
    "gp.fg: finitely generated, so a scaled copy of the closure sits inside the "
    "nonnegative integers; both group and closure are lattices"
)
_GP_RULE_NONFG = (
    "gp.non-fg: denominators are unbounded, so the closure has elements below any "
    "positive bound; the closure is dense in the nonnegative reals and the group in the reals"
)


def fg_lattice_step(spec: MonoidSpec) -> Fraction | None:
    """Closure lattice step scale = g/L for finitely generated specs, else None.

    The step of the difference group, which for a finitely generated monoid
    is a lattice: cheap, with no residue tables, so it works even for
    prime-reciprocal truncations whose lcm is a primorial.
    """
    if not is_finitely_generated(spec):
        return None
    group = difference_group(spec)
    if isinstance(group, CyclicScaled):
        return group.step
    return Fraction(group.unit, group.max_denominator())


def gp_density(spec: MonoidSpec) -> GpDensityVerdict:
    """Density of the difference group and root closure.

    Finitely generated monoids have lattice closures (nowhere dense);
    everything else in the catalog has closure elements below any bound,
    witnessed by an explicit decreasing stream.
    """
    if is_finitely_generated(spec):
        return GpDensityVerdict(
            GpDensity.NOWHERE_DENSE_FG, rule=_GP_RULE_FG, lattice_step=fg_lattice_step(spec)
        )
    closure = root_closure(spec)
    witness = []
    if closure.known:
        previous = None
        for j in (1, 2, 4, 6):
            e = closure.element_below(Fraction(1, 10**j))
            if e is not None and (previous is None or e < previous):
                witness.append(e)
                previous = e
    return GpDensityVerdict(
        GpDensity.GROUP_DENSE_CLOSURE_DENSE, rule=_GP_RULE_NONFG, witness=tuple(witness)
    )


class ConductorKind(str, Enum):
    EQUALS_M = "equals_monoid"
    EMPTY = "empty"
    TAIL = "tail"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class ConductorResult:
    """Conductor shape with its rule id; Tail(sigma) means {x in M : x >= sigma}."""

    kind: ConductorKind
    rule: str
    sigma: Fraction | None = None
    min_element: Fraction | None = None
    reason: str | None = None

    def describe(self) -> dict:
        out: dict = {"kind": self.kind.value, "rule": self.rule}
        if self.sigma is not None:
            out["sigma"] = format_rational(self.sigma)
        if self.min_element is not None:
            out["min"] = format_rational(self.min_element)
        if self.reason is not None:
            out["reason"] = self.reason
        return out


_R1 = "R1: root-closed (the closure equals the monoid), so the conductor is the whole monoid"
_R2 = (
    "R2: finitely generated with gaps; sigma = scale * (largest gap of the scaled "
    "numerical monoid) and the conductor is the monoid's tail from sigma"
)
_R3 = (
    "R3: increasing but not finitely generated; closure-minus-monoid is unbounded, "
    "so the conductor is empty"
)
_R4 = (
    "R4: all-primes reciprocal family; closure-minus-monoid is unbounded, "
    "so the conductor is empty"
)
_R5 = "R5: outside the rule table"


def conductor(spec: MonoidSpec) -> ConductorResult:
    """Conductor of the described monoid, by the rule table above."""
    if isinstance(spec, UnitFractionPowers):
        return ConductorResult(ConductorKind.EQUALS_M, rule=_R1)

    if isinstance(spec, Geometric) and spec.ratio < 1:
        if spec.ratio.numerator == 1:
            return ConductorResult(ConductorKind.EQUALS_M, rule=_R1)  # same monoid as 1/d powers
        return ConductorResult(
            ConductorKind.UNKNOWN,
            rule=_R5,
            reason="supremum of closure-minus-monoid undetermined for contracting ratios "
            "with nonunit numerator",
        )

    if isinstance(spec, PrimeReciprocalShift) and spec.prime_bound is None:
        return ConductorResult(ConductorKind.EMPTY, rule=_R4)

    if isinstance(spec, DenseAtoms):
        return ConductorResult(
            ConductorKind.UNKNOWN,
            rule=_R5,
            reason="dense non-increasing family: neither the tail nor the empty criterion applies",
        )

    try:
        cf = canonical_fg(spec)
    except BudgetError as e:
        return ConductorResult(
            ConductorKind.UNKNOWN, rule=_R5, reason=f"canonical form out of reach: {e}"
        )
    if cf is not None:
        if cf.nm.frobenius < 0:
            return ConductorResult(ConductorKind.EQUALS_M, rule=_R1)
        return ConductorResult(
            ConductorKind.TAIL,
            rule=_R2,
            sigma=cf.scale * cf.nm.frobenius,
            min_element=cf.scale * cf.nm.conductor,
        )

    if isinstance(spec, (Geometric, IncreasingSequence)):
        return ConductorResult(ConductorKind.EMPTY, rule=_R3)

    raise TypeError(f"not a monoid description: {spec!r}")
