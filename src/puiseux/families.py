"""Descriptions of Puiseux monoids.

A monoid is described either by a finite list of positive rational
generators or by one member of a closed catalog of symbolic infinite
families (geometric powers, unit-fraction powers, increasing sequences
with a declared tail law, the prime-reciprocal family, shifted ternary
Cantor endpoints, and the dense-atom construction).  The catalog is
deliberately closed: every downstream classification rule must know each
family's limit-point structure, so arbitrary generator callbacks are
rejected by design.

This module owns canonicalization of finitely generated monoids (as
scale * numerical monoid), deterministic generator streaming, exact or
budgeted membership, and the JSON wire format used by the CLI.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Union

from . import sequences
from .errors import BudgetError
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
    "FiniteGenerators",
    "Geometric",
    "HarmonicTail",
    "IncreasingSequence",
    "Membership",
    "MembershipResult",
    "MonoidSpec",
    "PrimeHarmonicTail",
    "PrimeReciprocalShift",
    "UnitFractionPowers",
    "affine_finite_generators",
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
# Monoid descriptions


@dataclass(frozen=True)
class FiniteGenerators:
    """Monoid generated by a finite set of positive rationals.

    Generators are deduplicated and sorted ascending on construction, so
    input order never affects results.
    """

    generators: tuple[Fraction, ...]

    def __init__(self, generators: Iterable[RationalLike]):
        gens = tuple(sorted(set(_positive_tuple(generators, what="generator"))))
        if not gens:
            raise ValueError("at least one generator is required")
        object.__setattr__(self, "generators", gens)


@dataclass(frozen=True)
class Geometric:
    """Monoid generated by all nonnegative powers of a fixed ratio r != 1."""

    ratio: Fraction

    def __init__(self, ratio: RationalLike):
        r = require_positive(ratio, what="ratio")
        if r == 1:
            raise ValueError("ratio 1 generates the nonnegative integers; use FiniteGenerators([1])")
        object.__setattr__(self, "ratio", r)


@dataclass(frozen=True)
class UnitFractionPowers:
    """Monoid generated by 1/base**n for n >= 1 (base >= 2)."""

    base: int

    def __post_init__(self):
        if not isinstance(self.base, int) or isinstance(self.base, bool) or self.base < 2:
            raise ValueError(f"base must be an integer >= 2, got {self.base!r}")


@dataclass(frozen=True)
class AffineTail:
    """term(k) = offset + slope * k; strictly increasing and unbounded."""

    offset: Fraction
    slope: Fraction

    def __init__(self, offset: RationalLike, slope: RationalLike):
        object.__setattr__(self, "offset", coerce_rational(offset, what="offset"))
        object.__setattr__(self, "slope", require_positive(slope, what="slope"))

    bounded = False
    limit_value = None

    def term(self, k: int) -> Fraction:
        return self.offset + self.slope * k


@dataclass(frozen=True)
class HarmonicTail:
    """term(k) = limit - coeff / k; strictly increasing with the given limit."""

    limit: Fraction
    coeff: Fraction

    def __init__(self, limit: RationalLike, coeff: RationalLike):
        object.__setattr__(self, "limit", require_positive(limit, what="limit"))
        object.__setattr__(self, "coeff", require_positive(coeff, what="coeff"))

    bounded = True

    @property
    def limit_value(self) -> Fraction:
        return self.limit

    def term(self, k: int) -> Fraction:
        return self.limit - self.coeff / k


@dataclass(frozen=True)
class PrimeHarmonicTail:
    """term(k) = limit - coeff / p_k with p_k the k-th prime."""

    limit: Fraction
    coeff: Fraction

    def __init__(self, limit: RationalLike, coeff: RationalLike):
        object.__setattr__(self, "limit", require_positive(limit, what="limit"))
        object.__setattr__(self, "coeff", require_positive(coeff, what="coeff"))

    bounded = True

    @property
    def limit_value(self) -> Fraction:
        return self.limit

    def term(self, k: int) -> Fraction:
        return self.limit - self.coeff / sequences.nth_prime(k)


Tail = Union[AffineTail, HarmonicTail, PrimeHarmonicTail]


@dataclass(frozen=True)
class IncreasingSequence:
    """Monoid generated by a strictly increasing rational sequence.

    An explicit finite prefix may override the first terms; from index
    len(prefix)+1 on, terms follow the declared tail law.  ``bounded`` and
    ``limit`` are stored explicitly (they are part of the wire format) and
    validated against the tail.
    """

    prefix: tuple[Fraction, ...]
    tail: Tail
    bounded: bool
    limit: Fraction | None

    def __init__(
        self,
        tail: Tail,
        prefix: Iterable[RationalLike] = (),
        bounded: bool | None = None,
        limit: RationalLike | None = None,
    ):
        if not isinstance(tail, (AffineTail, HarmonicTail, PrimeHarmonicTail)):
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

    def term(self, k: int) -> Fraction:
        if k < 1:
            raise ValueError("term index must be >= 1")
        if k <= len(self.prefix):
            return self.prefix[k - 1]
        return self.tail.term(k)


@dataclass(frozen=True)
class PrimeReciprocalShift:
    """Monoid generated by {1} and {1 + 1/p} for primes p.

    ``prime_bound`` None means all primes; an integer P keeps only p <= P.
    """

    prime_bound: int | None

    def __post_init__(self):
        b = self.prime_bound
        if b is None:
            return
        if not isinstance(b, int) or isinstance(b, bool) or b < 2:
            raise ValueError(f"prime_bound must be None or an integer >= 2, got {b!r}")


@dataclass(frozen=True)
class CantorShift:
    """Monoid generated by 1 + E, E the ternary-removal endpoints after `depth` rounds."""

    depth: int

    def __post_init__(self):
        if not isinstance(self.depth, int) or isinstance(self.depth, bool) or self.depth < 1:
            raise ValueError(f"depth must be an integer >= 1, got {self.depth!r}")


@dataclass(frozen=True)
class DenseAtoms:
    """The dense-atom construction over a seed enumeration of the rationals.

    The family is infinite (one generator per index k); ``count`` records the
    materialization depth used when the description was built and serves as
    the default enumeration depth downstream.
    """

    count: int
    seed: str = sequences.DEFAULT_SEED

    def __post_init__(self):
        if not isinstance(self.count, int) or isinstance(self.count, bool) or self.count < 1:
            raise ValueError(f"count must be an integer >= 1, got {self.count!r}")
        if self.seed not in sequences.SEED_SEQUENCES:
            raise ValueError(
                f"unknown seed {self.seed!r}; available: {sorted(sequences.SEED_SEQUENCES)}"
            )


MonoidSpec = Union[
    FiniteGenerators,
    Geometric,
    UnitFractionPowers,
    IncreasingSequence,
    PrimeReciprocalShift,
    CantorShift,
    DenseAtoms,
]


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
    if isinstance(spec, FiniteGenerators):
        return len(spec.generators)
    if isinstance(spec, CantorShift):
        return 2 ** (spec.depth + 1)
    if isinstance(spec, PrimeReciprocalShift) and spec.prime_bound is not None:
        return 1 + len(sequences.primes_upto(spec.prime_bound))
    return None


def generator_stream(spec: MonoidSpec, count: int) -> tuple[Fraction, ...]:
    """First ``count`` generators in the family's canonical order.

    Finite families return their whole generating set when ``count``
    exceeds it.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if isinstance(spec, FiniteGenerators):
        return spec.generators[:count]
    if isinstance(spec, Geometric):
        return tuple(spec.ratio**n for n in range(count))
    if isinstance(spec, UnitFractionPowers):
        return tuple(Fraction(1, spec.base**n) for n in range(1, count + 1))
    if isinstance(spec, IncreasingSequence):
        return tuple(spec.term(k) for k in range(1, count + 1))
    if isinstance(spec, PrimeReciprocalShift):
        total = generator_count(spec)
        if total is not None:
            count = min(count, total)
        out = [Fraction(1)]
        k = 1
        while len(out) < count:
            out.append(1 + Fraction(1, sequences.nth_prime(k)))
            k += 1
        return tuple(out)
    if isinstance(spec, CantorShift):
        return cantor_generators(spec.depth)[:count]
    if isinstance(spec, DenseAtoms):
        return tuple(e.atom for e in sequences.dense_atom_entries(count, spec.seed))
    raise TypeError(f"not a monoid description: {spec!r}")


def is_finitely_generated(spec: MonoidSpec) -> bool:
    """Whether the described monoid is finitely generated.

    Geometric ratios > 1 with denominator 1 collapse to the nonnegative
    integers; affine increasing tails have bounded denominators, so a scaled
    copy sits inside the nonnegative integers and is finitely generated.
    Everything else in the catalog with an infinite stream has unbounded
    denominators and is not.
    """
    if isinstance(spec, (FiniteGenerators, CantorShift)):
        return True
    if isinstance(spec, PrimeReciprocalShift):
        return spec.prime_bound is not None
    if isinstance(spec, Geometric):
        return spec.ratio.denominator == 1
    if isinstance(spec, IncreasingSequence):
        return isinstance(spec.tail, AffineTail)
    return False


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
    if isinstance(spec, (FiniteGenerators, CantorShift)):
        return generator_stream(spec, depth + 1)[depth] > bound  # streams sorted ascending
    if isinstance(spec, Geometric):
        return spec.ratio > 1 and spec.ratio**depth > bound
    if isinstance(spec, IncreasingSequence):
        return spec.term(depth + 1) > bound
    if isinstance(spec, PrimeReciprocalShift):
        return bound < 1 or (depth >= 1 and bound == 1)  # omitted generators all exceed 1
    # UnitFractionPowers and DenseAtoms have arbitrarily small later generators.
    return False


def depth_for_complete(spec: MonoidSpec, bound: Fraction, cap: int = 100_000) -> int | None:
    """Smallest stream depth whose omitted generators all exceed ``bound``.

    None when no finite depth works (families with arbitrarily small or
    accumulating generators below the bound).
    """
    total = generator_count(spec)
    if total is not None:
        return total
    if isinstance(spec, Geometric):
        if spec.ratio < 1:
            return None
        d = 1
        while spec.ratio**d <= bound:
            d += 1
            if d > cap:
                raise BudgetError("depth search exceeded cap", cap=cap)
        return d
    if isinstance(spec, IncreasingSequence):
        if spec.bounded and spec.limit is not None and spec.limit <= bound:
            return None
        k = 1
        while spec.term(k) <= bound:
            k += 1
            if k > cap:
                raise BudgetError("depth search exceeded cap", cap=cap)
        return k - 1 if k > 1 else 1
    if isinstance(spec, PrimeReciprocalShift):
        return 1 if bound <= 1 else None
    return None


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


class _NodeBudget(Exception):
    pass


def _bounded_member(
    generators: Iterable[Fraction], x: Fraction, node_budget: int
) -> tuple[bool | None, tuple[tuple[Fraction, int], ...] | None]:
    """Exact search for x as a nonnegative combination of the generators.

    Returns (True, certificate), (False, None), or (None, None) when the node
    budget ran out.  Denominator pruning: a partial remainder is only viable
    if its denominator divides the lcm of the remaining generators'.  The
    depth-first walk keeps its own stack, so long generator lists cannot
    exhaust the interpreter's recursion limit.
    """
    gens = sorted(set(g for g in generators if 0 < g <= x), reverse=True)
    if x == 0:
        return True, ()
    if not gens:
        return False, None
    suffix_lcm = [1] * (len(gens) + 1)
    for i in range(len(gens) - 1, -1, -1):
        suffix_lcm[i] = math.lcm(suffix_lcm[i + 1], gens[i].denominator)
    failed: set[tuple[int, Fraction]] = set()
    # [i, rest, c]: gens[i] taken c times leaves rest; largest c first
    frames: list[list] = []
    nodes = 0
    i, rem = 0, x
    while True:
        nodes += 1
        if nodes > node_budget:
            return None, None
        if rem == 0:
            return True, tuple((gens[j], c) for j, _, c in frames if c)
        if i < len(gens) and (i, rem) not in failed:
            if suffix_lcm[i] % rem.denominator == 0:
                c = int(rem / gens[i])
                rest = rem - c * gens[i]
                frames.append([i, rest, c])
                i, rem = i + 1, rest
                continue
            failed.add((i, rem))
        # the node failed: retry the innermost frame with one copy fewer
        while frames:
            frame = frames[-1]
            j, rest, c = frame
            if c > 0:
                rest += gens[j]
                frame[1:] = rest, c - 1
                i, rem = j + 1, rest
                break
            failed.add((j, rest))  # with no copy taken, rest is the frame's own remainder
            frames.pop()
        else:
            return False, None


def _prime_fraction_sums(
    y: Fraction, parts: int, min_prime: int, prime_bound: int | None, budget: list[int]
) -> Iterable[tuple[int, ...]]:
    """All multisets of exactly ``parts`` primes >= min_prime with sum of
    reciprocals equal to y (primes nondecreasing).  The ranges are finite:
    each prime p satisfies 1/p <= y and p <= parts / y.  A reciprocal sum's
    denominator divides the product of the distinct primes, so it must be
    squarefree over primes inside the range."""
    budget[0] -= 1
    if budget[0] < 0:
        raise _NodeBudget
    if parts == 0:
        if y == 0:
            yield ()
        return
    if y <= 0:
        return
    hi = int(parts / y)
    if prime_bound is not None:
        hi = min(hi, prime_bound)
    for p, e in sequences.factorize(y.denominator).items():
        # den(y) divides the product of the distinct primes still to be chosen
        if e > 1 or p < min_prime or (prime_bound is not None and p > prime_bound):
            return
    lo = max(min_prime, -(-y.denominator // y.numerator))  # 1/p <= y
    for p in sequences.primes_in_range(lo, hi):
        budget[0] -= 1
        if budget[0] < 0:
            raise _NodeBudget
        for rest in _prime_fraction_sums(y - Fraction(1, p), parts - 1, p, prime_bound, budget):
            yield (p,) + rest


def prime_reciprocal_solutions(
    x: Fraction,
    prime_bound: int | None,
    node_budget: int = DEFAULT_NODE_BUDGET,
    first_only: bool = False,
) -> list[tuple[int, tuple[int, ...]]]:
    """All ways to write x = ones + sum of (1 + 1/p) over a prime multiset.

    Returns (ones_count, primes) pairs; primes nondecreasing.  The search is
    exhaustive and finite: with t shifted parts the reciprocals sum to
    x - t - ones, which caps every prime range.  Raises BudgetError when the
    node budget runs out.
    """
    solutions: list[tuple[int, tuple[int, ...]]] = []
    budget = [node_budget]
    top = int(x)
    try:
        for t in range(top + 1):
            for ones in range(top - t + 1):
                y = x - t - ones
                if y < 0:
                    break
                if y > Fraction(t, 2):
                    continue
                if t == 0:
                    if y == 0:
                        solutions.append((ones, ()))
                        if first_only:
                            return solutions
                    continue
                if y == 0:
                    continue  # t positive parts cannot sum to zero
                for primes in _prime_fraction_sums(y, t, 2, prime_bound, budget):
                    solutions.append((ones, primes))
                    if first_only:
                        return solutions
    except _NodeBudget:
        raise BudgetError("prime-reciprocal search exceeded node budget", nodes=node_budget)
    return solutions


def _localized_member(x: Fraction, allowed_primes: set[int]) -> bool:
    return set(sequences.factorize(x.denominator)) <= allowed_primes


def spec_member(
    spec: MonoidSpec,
    x: RationalLike,
    budget: int = DEFAULT_NODE_BUDGET,
    depth: int = DEFAULT_TRUNCATION_DEPTH,
) -> MembershipResult:
    """Decide whether x belongs to the described monoid.

    Exact for families with decidable structure (unit-fraction powers,
    prime-reciprocal shifts), for every finitely generated family, and for
    ascending streams whose generators below x form a finite set.  A
    finitely generated family is decided and certified by the residue table
    of its canonical form, with no search, so ``budget`` does not apply
    (UNKNOWN when that form is out of reach).  Families with infinitely
    many generators below x return IN with a certificate when one is found
    within budget and UNKNOWN otherwise, never a guess.
    """
    q = require_nonnegative(x, what="element")
    if q == 0:
        return _IN0

    if isinstance(spec, UnitFractionPowers):
        if _localized_member(q, set(sequences.factorize(spec.base))):
            # q = a / d with d | base**n: a copies of 1/base**n certify membership.
            n = 1
            while (q * spec.base**n).denominator != 1:
                n += 1
            return MembershipResult(
                Membership.IN, certificate=((Fraction(1, spec.base**n), int(q * spec.base**n)),)
            )
        return MembershipResult(Membership.OUT)

    if isinstance(spec, Geometric) and spec.ratio < 1:
        if spec.ratio.numerator == 1:
            # Same monoid as UnitFractionPowers(denominator): 1 = d * (1/d).
            return spec_member(UnitFractionPowers(spec.ratio.denominator), q, budget, depth)
        if not _localized_member(q, set(sequences.factorize(spec.ratio.denominator))):
            return MembershipResult(Membership.OUT)
        gens = generator_stream(spec, depth)
        found, cert = _bounded_member(gens, q, budget)
        if found:
            return MembershipResult(Membership.IN, certificate=cert)
        return MembershipResult(
            Membership.UNKNOWN,
            reason={"kind": "generator_truncation", "depth": depth, "node_budget": budget},
        )

    if isinstance(spec, PrimeReciprocalShift):
        if q < 1:
            return MembershipResult(Membership.OUT)  # every nonzero element is >= 1
        try:
            sols = prime_reciprocal_solutions(q, spec.prime_bound, budget, first_only=True)
        except BudgetError:
            return MembershipResult(
                Membership.UNKNOWN, reason={"kind": "node_budget", "node_budget": budget}
            )
        if not sols:
            return MembershipResult(Membership.OUT)
        ones, primes = sols[0]
        cert: list[tuple[Fraction, int]] = []
        if ones:
            cert.append((Fraction(1), ones))
        for p in sorted(set(primes), reverse=True):
            cert.append((1 + Fraction(1, p), primes.count(p)))
        return MembershipResult(Membership.IN, certificate=tuple(cert))

    if isinstance(spec, DenseAtoms):
        for p, e in sequences.factorize(q.denominator).items():
            if e > sequences.dense_atom_exponent_cap(p):
                return MembershipResult(Membership.OUT)  # outside the difference group
        entries = sequences.dense_atom_entries(max(spec.count, depth), spec.seed)
        gens = [e.atom for e in entries[:depth] if e.atom <= q]
        found, cert = _bounded_member(gens, q, budget)
        if found:
            return MembershipResult(Membership.IN, certificate=cert)
        return MembershipResult(
            Membership.UNKNOWN,
            reason={"kind": "generator_truncation", "depth": depth, "node_budget": budget},
        )

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

    if isinstance(spec, (IncreasingSequence, Geometric)):
        # Increasing streams: only generators <= x can appear in a sum.
        finite_depth = depth_for_complete(spec, q)
        if finite_depth is not None:
            gens = [g for g in generator_stream(spec, finite_depth) if g <= q]
            found, cert = _bounded_member(gens, q, budget)
            if found is None:
                return MembershipResult(
                    Membership.UNKNOWN, reason={"kind": "node_budget", "node_budget": budget}
                )
            if found:
                return MembershipResult(Membership.IN, certificate=cert)
            return MembershipResult(Membership.OUT)
        # Bounded sequence with limit <= x: infinitely many usable generators.
        gens = [g for g in generator_stream(spec, depth) if g <= q]
        found, cert = _bounded_member(gens, q, budget)
        if found:
            return MembershipResult(Membership.IN, certificate=cert)
        return MembershipResult(
            Membership.UNKNOWN,
            reason={"kind": "generator_truncation", "depth": depth, "node_budget": budget},
        )

    raise TypeError(f"not a monoid description: {spec!r}")


def canonical_fg(spec: MonoidSpec) -> CanonicalFG | None:
    """Canonical scale * numerical-monoid form for finitely generated specs.

    This is the one route by which every question about a finitely
    generated spec is answered.  None for families that are not finitely
    generated.  May raise BudgetError when the canonical form is finite but
    out of reach (for example prime-reciprocal truncations, whose
    denominator lcm is a primorial).
    """
    if not is_finitely_generated(spec):
        return None
    total = generator_count(spec)
    if total is not None:
        return canonicalize(generator_stream(spec, total))
    if isinstance(spec, IncreasingSequence):
        return _affine_reduction(spec)[1]
    return canonicalize(generator_stream(spec, 1))  # integer ratio: 1 generates all of N0


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
    if not isinstance(spec.tail, AffineTail):
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


def _tail_to_dict(tail: Tail) -> dict:
    if isinstance(tail, AffineTail):
        return {
            "form": "affine",
            "offset": format_rational(tail.offset),
            "slope": format_rational(tail.slope),
        }
    form = "harmonic" if isinstance(tail, HarmonicTail) else "prime_harmonic"
    return {
        "form": form,
        "limit": format_rational(tail.limit),
        "coeff": format_rational(tail.coeff),
    }


def _tail_from_dict(obj: dict) -> Tail:
    form = obj.get("form")
    if form == "affine":
        _require_keys(obj, {"form", "offset", "slope"}, "tail")
        return AffineTail(_rat(obj, "offset", signed=True), _rat(obj, "slope"))
    if form == "harmonic":
        _require_keys(obj, {"form", "limit", "coeff"}, "tail")
        return HarmonicTail(_rat(obj, "limit"), _rat(obj, "coeff"))
    if form == "prime_harmonic":
        _require_keys(obj, {"form", "limit", "coeff"}, "tail")
        return PrimeHarmonicTail(_rat(obj, "limit"), _rat(obj, "coeff"))
    raise ValueError(f"unknown tail form {form!r}")


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


def spec_to_dict(spec: MonoidSpec) -> dict:
    """Plain-JSON form; all rationals as canonical strings."""
    if isinstance(spec, FiniteGenerators):
        return {"variant": "finite", "generators": [format_rational(g) for g in spec.generators]}
    if isinstance(spec, Geometric):
        return {"variant": "geometric", "ratio": format_rational(spec.ratio)}
    if isinstance(spec, UnitFractionPowers):
        return {"variant": "unit_fraction_powers", "base": spec.base}
    if isinstance(spec, IncreasingSequence):
        return {
            "variant": "increasing",
            "prefix": [format_rational(t) for t in spec.prefix],
            "tail": _tail_to_dict(spec.tail),
            "bounded": spec.bounded,
            "limit": None if spec.limit is None else format_rational(spec.limit),
        }
    if isinstance(spec, PrimeReciprocalShift):
        return {
            "variant": "prime_reciprocal_shift",
            "prime_bound": "all" if spec.prime_bound is None else spec.prime_bound,
        }
    if isinstance(spec, CantorShift):
        return {"variant": "cantor_shift", "depth": spec.depth}
    if isinstance(spec, DenseAtoms):
        return {"variant": "dense_atoms", "count": spec.count, "seed": spec.seed}
    raise TypeError(f"not a monoid description: {spec!r}")


def spec_from_dict(obj: dict) -> MonoidSpec:
    if not isinstance(obj, dict):
        raise ValueError(f"spec must be a JSON object, got {type(obj).__name__}")
    variant = obj.get("variant")
    if variant == "finite":
        _require_keys(obj, {"variant", "generators"}, "spec")
        gens = obj["generators"]
        if not isinstance(gens, list):
            raise ValueError("generators must be a list of rational strings")
        return FiniteGenerators(parse_rational(g) for g in gens)
    if variant == "geometric":
        _require_keys(obj, {"variant", "ratio"}, "spec")
        return Geometric(_rat(obj, "ratio"))
    if variant == "unit_fraction_powers":
        _require_keys(obj, {"variant", "base"}, "spec")
        return UnitFractionPowers(obj["base"])
    if variant == "increasing":
        _require_keys(obj, {"variant", "prefix", "tail", "bounded", "limit"}, "spec")
        prefix = obj["prefix"]
        if not isinstance(prefix, list):
            raise ValueError("prefix must be a list of rational strings")
        limit = obj["limit"]
        return IncreasingSequence(
            tail=_tail_from_dict(obj["tail"]),
            prefix=[parse_rational(t) for t in prefix],
            bounded=obj["bounded"],
            limit=None if limit is None else parse_rational(limit),
        )
    if variant == "prime_reciprocal_shift":
        _require_keys(obj, {"variant", "prime_bound"}, "spec")
        bound = obj["prime_bound"]
        return PrimeReciprocalShift(None if bound == "all" else bound)
    if variant == "cantor_shift":
        _require_keys(obj, {"variant", "depth"}, "spec")
        return CantorShift(obj["depth"])
    if variant == "dense_atoms":
        _require_keys(obj, {"variant", "count", "seed"}, "spec")
        return DenseAtoms(obj["count"], obj["seed"])
    raise ValueError(f"unknown spec variant {variant!r}")


def dumps_spec(spec: MonoidSpec) -> str:
    """Canonical serialization: parse -> serialize is byte-stable."""
    return json.dumps(spec_to_dict(spec), sort_keys=True, separators=(", ", ": "))


def loads_spec(text: str) -> MonoidSpec:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"invalid spec JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None
    return spec_from_dict(obj)
