"""Prime utilities and deterministic rational enumerations.

The enumerations here back the symbolic monoid families: an enumeration of
the positive rationals seeds the dense-atom construction, and the prime
sequence indexes both that construction and the prime-reciprocal family.
Everything is deterministic and exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator

__all__ = [
    "DEFAULT_SEED",
    "DenseAtomEntry",
    "SEED_SEQUENCES",
    "calkin_wilf",
    "dense_atom_entries",
    "dense_atom_numerator_gcd",
    "factorize",
    "is_prime",
    "iter_primes",
    "low_discrepancy",
    "nth_prime",
    "primes_upto",
]

_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def _grow_primes() -> None:
    candidate = _PRIMES[-1] + 2
    while True:
        if all(candidate % p for p in _PRIMES if p * p <= candidate):
            _PRIMES.append(candidate)
            return
        candidate += 2


def nth_prime(k: int) -> int:
    """k-th prime, 1-based: nth_prime(1) == 2."""
    if k < 1:
        raise ValueError("prime index must be >= 1")
    while len(_PRIMES) < k:
        _grow_primes()
    return _PRIMES[k - 1]


def iter_primes() -> Iterator[int]:
    k = 1
    while True:
        yield nth_prime(k)
        k += 1


def primes_upto(bound: int) -> list[int]:
    out = []
    for p in iter_primes():
        if p > bound:
            return out
        out.append(p)


def primes_in_range(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p <= hi, from the shared cache."""
    import bisect

    if hi < lo or hi < 2:
        return []
    while _PRIMES[-1] < hi:
        _grow_primes()
    a = bisect.bisect_left(_PRIMES, lo)
    b = bisect.bisect_right(_PRIMES, hi)
    return _PRIMES[a:b]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in iter_primes():
        if p * p > n:
            return True
        if n % p == 0:
            return n == p


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer by trial division."""
    if n < 1:
        raise ValueError("factorize needs a positive integer")
    out: dict[int, int] = {}
    rest = n
    for p in iter_primes():
        if p * p > rest:
            break
        while rest % p == 0:
            out[p] = out.get(p, 0) + 1
            rest //= p
    if rest > 1:
        out[rest] = out.get(rest, 0) + 1
    return out


def calkin_wilf() -> Iterator[Fraction]:
    """1, 1/2, 2, 1/3, 3/2, 2/3, 3, ...: every positive rational exactly once."""
    q = Fraction(1)
    while True:
        yield q
        q = 1 / (2 * (q.numerator // q.denominator) - q + 1)


def low_discrepancy() -> Iterator[Fraction]:
    """Enumeration of the positive rationals opening with two sweeps of (0, 5].

    This is the default seed of the dense-atom construction.  Its first 200
    terms are two grid sweeps: the odd multiples of 1/16 below 5 (40 terms,
    1/16 to 79/16), then the odd multiples of 1/64 below 5 (160 terms,
    1/64 to 319/64).  Together they leave no gap wider than 1/32 in [0, 5].
    From term 201 on, the remaining rationals follow in calkin_wilf order,
    skipping what the sweeps emitted.  The sweeps use disjoint reduced
    denominators, so the stream hits every positive rational exactly once.
    """
    emitted = set()
    for i in range(1, 41):
        q = Fraction(2 * i - 1, 16)
        emitted.add(q)
        yield q
    for j in range(1, 161):
        q = Fraction(2 * j - 1, 64)
        emitted.add(q)
        yield q
    for q in calkin_wilf():
        if q not in emitted:
            yield q


SEED_SEQUENCES: dict[str, Callable[[], Iterator[Fraction]]] = {
    "calkin_wilf": calkin_wilf,
    "low_discrepancy": low_discrepancy,
}

# the seed enumeration used wherever a dense-atom caller names none
DEFAULT_SEED = "low_discrepancy"


@dataclass(frozen=True)
class DenseAtomEntry:
    """One generator of the dense-atom family.

    ``atom = numerator / prime**exponent`` approximates ``target`` (the
    index-th term of the seed enumeration) within ``error < 1/index``.
    """

    index: int
    target: Fraction
    prime: int
    exponent: int
    numerator: int
    atom: Fraction
    error: Fraction


def _round_half_up(q: Fraction) -> int:
    return (2 * q.numerator + q.denominator) // (2 * q.denominator)


@lru_cache(maxsize=64)
def dense_atom_entries(count: int, seed: str = DEFAULT_SEED) -> tuple[DenseAtomEntry, ...]:
    """First ``count`` generators of the dense-atom construction.

    Entry k uses the k-th prime p and the least exponent e with p**e > 2k;
    the numerator is the rounded value of target * p**e, bumped away from
    multiples of p (and from zero).  The rounding stays within half a grid
    step and the bump within one, so the error is below (3/2)/p**e < 1/k.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if seed not in SEED_SEQUENCES:
        raise ValueError(f"unknown seed sequence {seed!r}; available: {sorted(SEED_SEQUENCES)}")
    entries = []
    stream = SEED_SEQUENCES[seed]()
    for k in range(1, count + 1):
        target = next(stream)
        p = nth_prime(k)
        exponent = 1
        while p**exponent <= 2 * k:
            exponent += 1
        power = p**exponent
        numerator = _round_half_up(target * power)
        if numerator == 0:
            numerator = 1
        if numerator % p == 0:
            numerator += 1
        atom = Fraction(numerator, power)
        entries.append(
            DenseAtomEntry(
                index=k,
                target=target,
                prime=p,
                exponent=exponent,
                numerator=numerator,
                atom=atom,
                error=abs(target - atom),
            )
        )
    return tuple(entries)


def dense_atom_exponent_cap(p: int) -> int:
    """Denominator exponent of prime p across the whole dense-atom family.

    Entry k uses the k-th prime to the least power exceeding 2k.  For
    p >= 11 the count of primes below p is under p/2, so the first power
    already suffices; 2, 3, 5, 7 (indices 1..4) each need the square.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return 2 if p <= 7 else 1


def dense_atom_numerator_gcd(seed: str, scan: int = 512) -> int | None:
    """gcd of the construction numerators, scanned until it reaches 1.

    Returns 1 as soon as the running gcd hits 1 (then the value is exact for
    the whole infinite family); None if the scan horizon is reached first.
    """
    g = 0
    for entry in dense_atom_entries(scan, seed):
        g = math.gcd(g, entry.numerator)
        if g == 1:
            return 1
    return None
