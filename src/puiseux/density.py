"""Topological spread of a monoid along the nonnegative reals.

Four classes: dense everywhere, dense beyond some point but not
everywhere, dense in some window but not beyond (this class is empty for
additive monoids of nonnegative rationals: closure under addition
propagates a dense window to all its multiples, so somewhere dense
implies eventually dense), and nowhere dense.  The classifier is a rule
table keyed on the family catalog; every verdict carries its rule id and,
where possible, a numeric witness.  Probes are empirical companions:
truncated enumerations checked for epsilon-coverage or provable gaps.
The classifier never downgrades a rule-backed verdict because of probe
output; a conflict is a bug signal, not an override.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence, Union

from .families import (
    Family,
    MonoidSpec,
    as_family,
    depth_for_complete,
    generator_count,
    is_finitely_generated,
)
from .closures import fg_lattice_step
from .errors import BudgetError
from .oracle import (
    DEFAULT_ELEMENT_CAP,
    Truncation,
    enumerate_monoid,
    lattice_enumeration,
)
from .rationals import (
    RationalLike,
    coerce_rational,
    format_rational,
    require_nonnegative,
    require_positive,
)

__all__ = [
    "DenseWitness",
    "DensityClass",
    "DensityVerdict",
    "IsolationWitness",
    "LatticeWitness",
    "ProbeReport",
    "ProbeResult",
    "classify_density",
    "eventual_window_check",
    "point_set_report",
    "probe_density",
    "right_isolation",
]

DEFAULT_PROBE_DEPTH = 24


class DensityClass(str, Enum):
    DENSE = "dense"
    EVENTUALLY_DENSE_NOT_DENSE = "eventually_dense_not_dense"
    NOWHERE_DENSE = "nowhere_dense"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class DenseWitness:
    """Strictly decreasing generator sample heading to zero, plus the law
    that continues it beyond the sample."""

    sample: tuple[Fraction, ...]
    law: str


@dataclass(frozen=True)
class LatticeWitness:
    """All elements are multiples of the step, so no window is ever filled."""

    step: Fraction


@dataclass(frozen=True)
class IsolationWitness:
    """(element, radius) pairs: each element has an empty interval to its right."""

    pairs: tuple[tuple[Fraction, Fraction], ...]


Witness = Union[DenseWitness, LatticeWitness, IsolationWitness]


@dataclass(frozen=True)
class DensityVerdict:
    klass: DensityClass
    rule: str
    witness: Witness | None = None
    note: str | None = None


_D1 = (
    "D1: zero is a limit point of the generating set; multiples of arbitrarily small "
    "elements approximate every nonnegative real"
)
_D2 = (
    "D2: finitely generated, so a scaled copy sits inside the nonnegative integers; "
    "all elements are multiples of one step"
)
_D3 = (
    "D3: generated by a strictly increasing sequence; every element has an empty "
    "interval to its right, so no window is filled"
)
_D4 = (
    "D4: finite-depth ternary endpoint truncation is finitely generated, hence "
    "nowhere dense"
)
_D5 = (
    "D5: zero is separated from the nonzero elements, so the monoid is not dense; "
    "no nowhere-density criterion applies to this family"
)

_CANTOR_NOTE = (
    "at unbounded depth the endpoint monoid is eventually dense (its pairwise sums "
    "fill [2,4]) while never dense near zero; any finite depth stays on a lattice"
)
_D5_NOTE = (
    "generators accumulate at 1 from the right; probe windows above 2 for empirical "
    "evidence either way"
)


def _isolation_sample(spec: Family) -> IsolationWitness:
    # unbounded: up to the fifth generator; bounded: halfway from the sixth one to the limit
    bound = spec.term(5) if spec.limit is None else (spec.term(6) + spec.limit) / 2
    pairs = right_isolation(spec, bound)
    return IsolationWitness(tuple(pairs[:6]))


def classify_density(spec: MonoidSpec) -> DensityVerdict:
    """Rule-table classification; the verdict cites its rule.

    Finitely generated monoids sit on a lattice (D2, or D4 for the Cantor
    truncations) and ascending streams are nowhere dense (D3); a family
    whose generators approach zero declares the witness of D1; anything
    else is D5.
    """
    spec = as_family(spec)
    if is_finitely_generated(spec):
        cantor = spec.density_row == "D4"
        return DensityVerdict(
            DensityClass.NOWHERE_DENSE,
            rule=_D4 if cantor else _D2,
            witness=LatticeWitness(fg_lattice_step(spec)),
            note=_CANTOR_NOTE if cantor else None,
        )
    if spec.ascends:
        return DensityVerdict(DensityClass.NOWHERE_DENSE, rule=_D3, witness=_isolation_sample(spec))
    dense = spec.dense_witness()
    if dense is not None:
        return DensityVerdict(DensityClass.DENSE, rule=_D1, witness=DenseWitness(*dense))
    return DensityVerdict(DensityClass.UNKNOWN, rule=_D5, note=_D5_NOTE)


class ProbeResult(str, Enum):
    EPS_DENSE = "eps_dense"
    GAP_WITNESS = "gap_witness"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ProbeReport:
    """Empirical density report for a window.

    EPS_DENSE certifies that every closed epsilon-length subinterval holds
    an enumerated element, i.e. no empty open gap exceeds epsilon (sound
    even under truncation).  GAP_WITNESS reports the largest empty open
    gap, and is emitted only when the enumeration is provably complete on
    the window; otherwise the probe is INCONCLUSIVE.
    """

    interval: tuple[Fraction, Fraction]
    epsilon: Fraction
    result: ProbeResult
    gap: tuple[Fraction, Fraction] | None
    elements_found: int
    truncation: Truncation | None
    complete: bool

    def describe(self) -> dict:
        fr = format_rational
        out: dict = {
            "interval": [fr(self.interval[0]), fr(self.interval[1])],
            "epsilon": fr(self.epsilon),
            "result": self.result.value,
            "elements_found": self.elements_found,
            "complete_enumeration": self.complete,
        }
        if self.gap is not None:
            out["gap"] = [fr(self.gap[0]), fr(self.gap[1])]
        if self.truncation is not None:
            out["truncation"] = {
                "generator_count": self.truncation.generator_count,
                "max_coefficient": self.truncation.max_coefficient,
                "bound": fr(self.truncation.bound),
            }
        return out


def _classify_gaps(
    lo: Fraction,
    hi: Fraction,
    epsilon: Fraction,
    count: int,
    largest_gap: tuple[Fraction, Fraction] | None,
    truncation: Truncation | None,
    complete: bool,
) -> ProbeReport:
    if largest_gap is None or largest_gap[1] - largest_gap[0] <= epsilon:
        result, largest_gap = ProbeResult.EPS_DENSE, None
    else:
        result = ProbeResult.GAP_WITNESS if complete else ProbeResult.INCONCLUSIVE
    return ProbeReport((lo, hi), epsilon, result, largest_gap, count, truncation, complete)


def _widest(gaps: Iterable[tuple[Fraction, Fraction]]) -> tuple[Fraction, Fraction] | None:
    """The first of the widest nonempty open intervals (a, b), if any."""
    best: tuple[Fraction, Fraction] | None = None
    for a, b in gaps:
        if b > a and (best is None or b - a > best[1] - best[0]):
            best = (a, b)
    return best


def _largest_gap_from_points(
    points: Sequence[Fraction], lo: Fraction, hi: Fraction
) -> tuple[tuple[Fraction, Fraction] | None, int]:
    inside = sorted(p for p in points if lo <= p <= hi)
    if not inside:
        return (lo, hi), 0
    return _widest(chain([(lo, inside[0])], zip(inside, inside[1:]), [(inside[-1], hi)])), len(inside)


_ZERO_RUN = re.compile(r"0+")


def _largest_gap_from_mask(
    mask: int, den: int, lo: Fraction, hi: Fraction
) -> tuple[tuple[Fraction, Fraction] | None, int]:
    lo_bit = -((-lo.numerator * den) // lo.denominator)  # ceil(lo * den)
    hi_bit = (hi.numerator * den) // hi.denominator  # floor(hi * den)
    if hi_bit < lo_bit:
        return (lo, hi), 0
    window = (mask >> lo_bit) & ((1 << (hi_bit - lo_bit + 1)) - 1)
    if window == 0:
        return (lo, hi), 0
    count = bin(window).count("1")
    first = Fraction(lo_bit + (window & -window).bit_length() - 1, den)
    last = Fraction(lo_bit + window.bit_length() - 1, den)
    gaps = [(lo, first), (last, hi)]
    bits = bin(window)[2:].rstrip("0")  # most-significant first; tail zeros are the low edge
    length = len(bits)
    # longest zero run between set bits; adjacent set bits still sit 1/den apart
    run: tuple[int, int] | None = None
    for m in _ZERO_RUN.finditer(bits):
        if run is None or m.end() - m.start() > run[0]:
            run = (m.end() - m.start(), m.start())
    if run is None and count >= 2:
        run = (0, 1)  # all-ones window: the top two bits are adjacent elements
    if run is not None:
        run_len, start = run
        low_neighbor = lo_bit + (length - start - run_len - 1)
        high_neighbor = lo_bit + (length - start)
        gaps.append((Fraction(low_neighbor, den), Fraction(high_neighbor, den)))
    return _widest(gaps), count


def _window(lo: RationalLike, hi: RationalLike, epsilon: RationalLike) -> tuple[Fraction, ...]:
    lo_f = require_nonnegative(lo, what="lo")
    hi_f = coerce_rational(hi, what="hi")
    eps = require_positive(epsilon, what="epsilon")
    if not lo_f < hi_f:
        raise ValueError("need lo < hi")
    return lo_f, hi_f, eps


def point_set_report(
    points: Sequence[Fraction],
    lo: RationalLike,
    hi: RationalLike,
    epsilon: RationalLike,
    complete: bool = True,
) -> ProbeReport:
    """Coverage report for an explicit point set (atom sets, samples)."""
    lo_f, hi_f, eps = _window(lo, hi, epsilon)
    gap, count = _largest_gap_from_points(points, lo_f, hi_f)
    return _classify_gaps(lo_f, hi_f, eps, count, gap, None, complete)


def probe_density(
    spec: MonoidSpec,
    lo: RationalLike,
    hi: RationalLike,
    epsilon: RationalLike,
    depth: int = DEFAULT_PROBE_DEPTH,
    element_cap: int = DEFAULT_ELEMENT_CAP,
) -> ProbeReport:
    """Enumerate the monoid on [lo, hi] and report coverage at resolution epsilon.

    Finite families are always enumerated with their full generating set;
    infinite ones are truncated at ``depth`` generators, and a gap is only
    ever *asserted* when the truncation is provably complete on the window.
    """
    lo_f, hi_f, eps = _window(lo, hi, epsilon)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    total = generator_count(spec)
    eff_depth = total if total is not None else depth

    lattice = lattice_enumeration(spec, hi_f, eff_depth)
    if lattice is not None:
        gap, count = _largest_gap_from_mask(lattice.mask, lattice.denominator, lo_f, hi_f)
        return _classify_gaps(lo_f, hi_f, eps, count, gap, lattice.truncation, lattice.complete)
    enum = enumerate_monoid(spec, hi_f, eff_depth, element_cap)
    gap, count = _largest_gap_from_points(enum.elements, lo_f, hi_f)
    return _classify_gaps(lo_f, hi_f, eps, count, gap, enum.truncation, enum.complete)


def eventual_window_check(
    spec: MonoidSpec,
    lo: RationalLike,
    hi: RationalLike,
    n_max: int,
    epsilon: RationalLike,
    depth: int = DEFAULT_PROBE_DEPTH,
) -> list[ProbeReport]:
    """Probe the scaled windows (n*lo, n*hi) for n = 2..n_max.

    Closure under addition carries density on a window to all its integer
    multiples, so when the base window is epsilon-dense these probes should
    all be too; a failure signals an enumeration bug, not a counterexample.
    With n_max <= 1 the original window's probe is returned alone.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    lo_f = coerce_rational(lo, what="lo")
    hi_f = coerce_rational(hi, what="hi")
    if n_max == 1:
        return [probe_density(spec, lo_f, hi_f, epsilon, depth)]
    return [
        probe_density(spec, n * lo_f, n * hi_f, epsilon, depth) for n in range(2, n_max + 1)
    ]


def right_isolation(
    spec: MonoidSpec, bound: RationalLike, element_cap: int = DEFAULT_ELEMENT_CAP
) -> list[tuple[Fraction, Fraction]]:
    """(element, radius) pairs below the bound: (element, element+radius) misses the monoid.

    Requires an enumeration that is provably complete up to the bound, which
    holds for finite families and for ascending streams below their limit;
    otherwise the isolation radii could not be certified and the call fails.
    The last enumerated element is omitted (its successor lies beyond the
    bound).
    """
    t = require_positive(bound, what="bound")
    depth = depth_for_complete(spec, t)
    if depth is None:
        raise ValueError(
            "cannot certify isolation: the enumeration below the bound cannot be completed "
            "for this family at any finite truncation"
        )
    enum = enumerate_monoid(spec, t, max(depth, 1), element_cap)
    if not enum.complete:
        raise BudgetError("isolation enumeration incomplete", truncation=enum.truncation)
    pts = enum.elements
    return [(a, b - a) for a, b in zip(pts, pts[1:])]
