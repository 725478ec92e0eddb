"""Difference group, root closure, and conductor.

For a monoid M of nonnegative rationals the difference group is
{x - y | x, y in M}; the root closure collects the group elements with
some positive multiple inside M and equals the nonnegative part of the
group.  Concretely the group is u * G where u is the gcd of the element
numerators (which equals the gcd of the generator numerators: each
generator's denominator is coprime to that gcd, so scaling never divides
it out) and G is the group generated by 1/d over the element
denominators d.  Two shapes cover the catalog (``puiseux.groups``), and
each family builds its own group from its denominators (``Family.group``):

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
is empty as well (R4).  The families outside these shapes declare their
row (``Family.conductor_row``); everything else, a canonical form out of
reach included, is reported unknown rather than extrapolated (R5).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import BudgetError
from .families import MonoidSpec, as_family, canonical_fg, is_finitely_generated
from .groups import CyclicScaled, GroupDescription, LocalizedScaled, UnknownGroup
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


def difference_group(spec: MonoidSpec) -> GroupDescription:
    """Description of {x - y | x, y in the monoid} as a subgroup of Q."""
    return as_family(spec).group()


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
        return self.group.known

    def _known_group(self) -> CyclicScaled | LocalizedScaled:
        if not self.known:
            raise ValueError(f"closure unknown: {self.group.reason}")
        return self.group

    def member(self, x: RationalLike) -> bool:
        g = self._known_group()
        q = coerce_rational(x)
        return q >= 0 and g.member(q)

    def generators(self, count: int = 16) -> tuple[Fraction, ...]:
        """Generating elements unit/d with allowed denominators d ascending."""
        g = self._known_group()
        if isinstance(g, CyclicScaled):
            return (g.step,)
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
        g = self._known_group()
        if isinstance(g, CyclicScaled):
            return g.step if g.step < eps else None
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
_DECLARED_ROWS = {  # the rows a family may declare (Family.conductor_row)
    "R1": (ConductorKind.EQUALS_M, _R1), "R4": (ConductorKind.EMPTY, _R4), "R5": (ConductorKind.UNKNOWN, _R5)
}


def conductor(spec: MonoidSpec) -> ConductorResult:
    """Conductor by the rule table above: finitely generated monoids follow
    R1/R2, ascending streams R3, and every other family declares its row."""
    spec = as_family(spec).simplest()
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
    if spec.ascends:
        return ConductorResult(ConductorKind.EMPTY, rule=_R3)
    kind, rule = _DECLARED_ROWS[spec.conductor_row]
    return ConductorResult(kind, rule=rule, reason=spec.conductor_reason)
