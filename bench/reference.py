"""Independent reference computations for the benchmark's answer checks.

Nothing here imports ``puiseux``.  Each family of the spec catalog is
modelled from its definition (the generator law), and every quantity the
checks need is computed by a method of the benchmark's own:

* residue tables by Dijkstra's shortest paths over residues modulo the
  least generator, not by round-robin relaxation;
* factorization counts and length sets by a coin-change dynamic program
  on the scaled integer generators;
* prime-reciprocal factorizations by a search over primes taken in
  decreasing order;
* sums of finitely many rational generators by enumerating multiplicity
  vectors;
* allowed denominators of a localized group by testing each candidate
  against its per-prime exponent caps.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from functools import lru_cache


# ---------------------------------------------------------------------------
# Primes


@lru_cache(maxsize=None)
def sieve(limit: int) -> tuple[int, ...]:
    """All primes <= limit, by the sieve of Eratosthenes."""
    if limit < 2:
        return ()
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return tuple(i for i, f in enumerate(flags) if f)


def first_primes(count: int) -> tuple[int, ...]:
    limit = 64
    while True:
        ps = sieve(limit)
        if len(ps) >= count:
            return ps[:count]
        limit *= 2


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % p for p in range(2, math.isqrt(n) + 1))


def prime_exponents(n: int) -> dict[int, int]:
    """Prime factorization by trial division over all integers."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# ---------------------------------------------------------------------------
# Numerical monoids


class IntMonoid:
    """Submonoid of the nonnegative integers generated by ``gens`` (gcd 1)."""

    def __init__(self, gens):
        gens = sorted(set(gens))
        if math.gcd(*gens) != 1:
            raise ValueError("generators must have gcd 1")
        self.gens = gens
        self.m = m = gens[0]
        dist = [None] * m
        dist[0] = 0
        heap = [(0, 0)]
        while heap:
            d, r = heapq.heappop(heap)
            if d != dist[r]:
                continue
            for g in gens[1:]:
                v = d + g
                rr = v % m
                if dist[rr] is None or v < dist[rr]:
                    dist[rr] = v
                    heapq.heappush(heap, (v, rr))
        self.apery = dist
        self.frobenius = max(dist) - m

    def contains(self, n: int) -> bool:
        return n >= 0 and self.apery[n % self.m] <= n

    def minimal_generators(self) -> list[int]:
        # g is redundant iff g - h is an element for a smaller generator h
        return [g for i, g in enumerate(self.gens) if not any(self.contains(g - h) for h in self.gens[:i])]

    def gaps_in(self, lo: int, hi: int) -> int:
        """Number of integers in [lo, hi] outside the monoid."""
        count = 0
        for r, a in enumerate(self.apery):
            # gaps of class r: r, r+m, ..., a-m
            first = max(lo, r)
            last = min(hi, a - self.m)
            if last >= first:
                k0 = -(-(first - r) // self.m)
                k1 = (last - r) // self.m
                count += max(0, k1 - k0 + 1)
        return count


def scaled(gens) -> tuple[Fraction, list[int]]:
    """(scale, integers) with gens == scale * integers and gcd(integers) == 1."""
    den = math.lcm(*(g.denominator for g in gens))
    ints = [int(g * den) for g in gens]
    g = math.gcd(*ints)
    return Fraction(g, den), [i // g for i in ints]


def factorization_table(atoms: list[int], n: int) -> tuple[int, set[int]]:
    """(number of factorizations of n, set of their lengths) over integer atoms,
    by a coin-change table when n is small, else by enumerating them."""
    if n > 200_000:
        return _factorization_walk(sorted(atoms, reverse=True), n)
    ways = [0] * (n + 1)
    lengths = [0] * (n + 1)  # bit L set iff some factorization has length L
    ways[0] = 1
    lengths[0] = 1
    for a in atoms:
        for v in range(a, n + 1):
            if ways[v - a]:
                ways[v] += ways[v - a]
                lengths[v] |= lengths[v - a] << 1
    bits = lengths[n]
    return ways[n], {i for i in range(bits.bit_length()) if bits >> i & 1}


def _factorization_walk(atoms: list[int], n: int) -> tuple[int, set[int]]:
    count, lengths = 0, set()

    def walk(i: int, rem: int, length: int) -> None:
        nonlocal count
        if rem == 0:
            count += 1
            lengths.add(length)
            return
        if i == len(atoms) or rem < atoms[-1]:
            return
        a = atoms[i]
        for c in range(rem // a, -1, -1):
            walk(i + 1, rem - c * a, length + c)

    walk(0, n, 0)
    return count, lengths


# ---------------------------------------------------------------------------
# Sums of finitely many rational generators


def sums_upto(gens, bound: Fraction) -> list[Fraction]:
    """Sorted distinct sums (0 included) of nonnegative multiples of gens, <= bound."""
    gens = sorted({g for g in gens if 0 < g <= bound}, reverse=True)
    den = math.lcm(1, *(g.denominator for g in gens))
    steps = [int(g * den) for g in gens]
    top = int(bound * den)
    out: set[int] = set()

    def walk(i: int, total: int) -> None:
        if i == len(steps):
            out.add(total)
            return
        g = steps[i]
        while total <= top:
            walk(i + 1, total)
            total += g

    walk(0, 0)
    return [Fraction(n, den) for n in sorted(out)]


def lattice_sums_upto(gens, bound: Fraction, max_points: int = 2_000_000):
    """Like sums_upto, on the common lattice of the generators, as a bitset
    grown by one generator step at a time; None when the lattice holds more
    than max_points points up to the bound."""
    gens = sorted({g for g in gens if 0 < g <= bound})
    if not gens:
        return [Fraction(0)]
    den = math.lcm(*(g.denominator for g in gens))
    top = int(bound * den)
    if top > max_points:
        return None
    mask = (1 << (top + 1)) - 1
    reach = 1
    for g in gens:
        step = int(g * den)
        while True:
            grown = (reach | (reach << step)) & mask
            if grown == reach:
                break
            reach = grown
    bits = bin(reach)[:1:-1]  # bit i at position i
    return [Fraction(i, den) for i, b in enumerate(bits) if b == "1"]


def points_upto(gens, bound: Fraction) -> list[Fraction]:
    """sums_upto, on the lattice route when the lattice is small enough."""
    pts = lattice_sums_upto(gens, bound)
    return sums_upto(gens, bound) if pts is None else pts


def representable(gens, x: Fraction) -> bool:
    """Whether x is a nonnegative combination of the (positive) gens."""
    gens = sorted({g for g in gens if 0 < g <= x}, reverse=True)
    seen: set[tuple[int, Fraction]] = set()

    def walk(i: int, rem: Fraction) -> bool:
        if rem == 0:
            return True
        if i == len(gens) or (i, rem) in seen:
            return False
        seen.add((i, rem))
        g = gens[i]
        c = rem // g
        while c >= 0:
            if walk(i + 1, rem - c * g):
                return True
            c -= 1
        return False

    return walk(0, x)


def ascending_atoms(stream) -> list[Fraction]:
    """Members of an ascending stream that are not sums of earlier members."""
    kept: list[Fraction] = []
    for g in stream:
        if not representable(kept, g):
            kept.append(g)
    return kept


def largest_gap(points, lo: Fraction, hi: Fraction):
    """(count, largest empty open gap) of sorted points inside [lo, hi]."""
    inside = [p for p in points if lo <= p <= hi]
    if not inside:
        return 0, (lo, hi)
    best = None
    for a, b in zip([lo] + inside, inside + [hi]):
        if b > a and (best is None or b - a > best[1] - best[0]):
            best = (a, b)
    return len(inside), best


# ---------------------------------------------------------------------------
# Prime-reciprocal factorizations


def prime_reciprocal_factorizations(x: Fraction, prime_bound: int | None) -> list[tuple[int, tuple[int, ...]]]:
    """All (ones, primes) with x == ones + sum(1 + 1/p), primes nondecreasing.

    With t shifted parts, y = x - t - ones is a sum of t prime reciprocals;
    the search takes the largest prime first.
    """
    out = []
    top = x.numerator // x.denominator
    for t in range(top + 1):
        for ones in range(top - t + 1):
            y = x - t - ones
            if y < 0:
                break
            if t == 0:
                if y == 0:
                    out.append((ones, ()))
                continue
            if y == 0 or y > Fraction(t, 2):
                continue
            hi = max(y.denominator, t) if prime_bound is None else prime_bound
            for ps in _reciprocal_multisets(y, t, hi):
                out.append((ones, tuple(sorted(ps))))
    return out


def _reciprocal_multisets(y: Fraction, parts: int, hi: int):
    # Primes are chosen in nonincreasing order, each <= hi.  A prime q whose
    # multiplicity k is not a multiple of q leaves q in the denominator of
    # the sum, so every prime divides den(y) or occurs at least q times
    # (then q <= parts).
    if parts == 0:
        if y == 0:
            yield ()
        return
    if y <= 0:
        return
    candidates = set(prime_exponents(y.denominator)) | set(sieve(parts))
    for p in sorted((c for c in candidates if c <= hi), reverse=True):
        r = Fraction(1, p)
        if r * parts > y:
            break  # the reciprocals only grow from here
        for rest in _reciprocal_multisets(y - r, parts - 1, p):
            yield (p,) + rest


# ---------------------------------------------------------------------------
# Family models, from the spec JSON


def _rat(s: str) -> Fraction:
    return Fraction(s)


def cantor_endpoints(depth: int) -> list[Fraction]:
    """Endpoints of the intervals left after ``depth`` middle-third removals of [0, 1]."""
    intervals = [(Fraction(0), Fraction(1))]
    for _ in range(depth):
        nxt = []
        for a, b in intervals:
            w = (b - a) / 3
            nxt += [(a, a + w), (b - w, b)]
        intervals = nxt
    return sorted({e for iv in intervals for e in iv})


def _calkin_wilf():
    q = Fraction(1)
    while True:
        yield q
        q = 1 / (2 * (q.numerator // q.denominator) - q + 1)


def _low_discrepancy():
    head = [Fraction(2 * i - 1, 16) for i in range(1, 41)] + [Fraction(2 * j - 1, 64) for j in range(1, 161)]
    yield from head
    seen = set(head)
    for q in _calkin_wilf():
        if q not in seen:
            yield q


@lru_cache(maxsize=8)
def dense_atoms(count: int, seed: str) -> tuple[tuple[Fraction, int, int, int], ...]:
    """(atom, prime, exponent, numerator) of the first ``count`` dense-atom entries.

    Entry k approximates the k-th seed term t by a / p**e, p the k-th prime
    and e least with p**e > 2k: a is t * p**e rounded half up, raised to 1
    if zero and by one more if p divides it.
    """
    stream = _low_discrepancy() if seed == "low_discrepancy" else _calkin_wilf()
    out = []
    for k, p in enumerate(first_primes(count), start=1):
        t = next(stream)
        e = 1
        while p**e <= 2 * k:
            e += 1
        a = math.floor(t * p**e + Fraction(1, 2))
        a = max(a, 1)
        if a % p == 0:
            a += 1
        out.append((Fraction(a, p**e), p, e, a))
    return tuple(out)


@lru_cache(maxsize=2)
def _dense_atom_set(seed: str) -> frozenset:
    # every generator the program can reach: its scans stop at 2048 entries
    return frozenset(e[0] for e in dense_atoms(2048, seed))


class Model:
    """A family of the catalog, described from its generator law."""

    def __init__(self, spec: dict):
        self.spec = spec
        self._canonical = None
        v = self.variant = spec["variant"]
        if v == "finite":
            self.gens = sorted({_rat(g) for g in spec["generators"]})
        elif v == "geometric":
            self.ratio = _rat(spec["ratio"])
        elif v == "unit_fraction_powers":
            self.base = spec["base"]
        elif v == "increasing":
            self.prefix = [_rat(t) for t in spec["prefix"]]
            tail = spec["tail"]
            self.form = tail["form"]
            if self.form == "affine":
                self.offset, self.slope = _rat(tail["offset"]), _rat(tail["slope"])
            else:
                self.limit, self.coeff = _rat(tail["limit"]), _rat(tail["coeff"])
        elif v == "prime_reciprocal_shift":
            b = spec["prime_bound"]
            self.prime_bound = None if b == "all" else b
        elif v == "cantor_shift":
            self.depth = spec["depth"]
        elif v == "dense_atoms":
            self.count, self.seed = spec["count"], spec["seed"]
        else:
            raise ValueError(f"unknown variant {v}")

    # -- generators ---------------------------------------------------------

    def term(self, k: int) -> Fraction:
        """k-th term (1-based) of an increasing sequence."""
        if k <= len(self.prefix):
            return self.prefix[k - 1]
        if self.form == "affine":
            return self.offset + self.slope * k
        if self.form == "harmonic":
            return self.limit - self.coeff / k
        return self.limit - self.coeff / first_primes(k)[-1]

    def finite_total(self) -> int | None:
        v = self.variant
        if v == "finite":
            return len(self.gens)
        if v == "cantor_shift":
            return 2 ** (self.depth + 1)
        if v == "prime_reciprocal_shift" and self.prime_bound is not None:
            return 1 + len(sieve(self.prime_bound))
        return None

    def stream(self, count: int) -> list[Fraction]:
        """First ``count`` generators in the family's canonical order."""
        v = self.variant
        total = self.finite_total()
        if total is not None:
            count = min(count, total)
        if v == "finite":
            return self.gens[:count]
        if v == "geometric":
            return [self.ratio**n for n in range(count)]
        if v == "unit_fraction_powers":
            return [Fraction(1, self.base**n) for n in range(1, count + 1)]
        if v == "increasing":
            return [self.term(k) for k in range(1, count + 1)]
        if v == "prime_reciprocal_shift":
            return [Fraction(1)] + [1 + Fraction(1, p) for p in first_primes(count - 1)] if count > 1 else [Fraction(1)]
        if v == "cantor_shift":
            return [1 + e for e in cantor_endpoints(self.depth)][:count]
        return [entry[0] for entry in dense_atoms(count, self.seed)]

    def is_generator(self, g: Fraction) -> bool:
        v = self.variant
        if g <= 0:
            return False
        if v == "finite":
            return g in self.gens
        if v == "geometric":
            r, p, n = self.ratio, Fraction(1), 0
            while n < 4096:
                if p == g:
                    return True
                if (r > 1 and p > g) or (r < 1 and p < g):
                    return False
                p *= r
                n += 1
            return False
        if v == "unit_fraction_powers":
            return g.numerator == 1 and g.denominator > 1 and _is_power(g.denominator, self.base)
        if v == "increasing":
            if g in self.prefix:
                return True
            start = len(self.prefix) + 1
            if self.form == "affine":
                k = (g - self.offset) / self.slope
            else:
                if g >= self.limit:
                    return False
                k = self.coeff / (self.limit - g)
            if k.denominator != 1 or k < 1:
                return False
            k = int(k)
            if self.form == "prime_harmonic":
                return is_prime(k) and len(sieve(k)) >= start
            return k >= start
        if v == "prime_reciprocal_shift":
            if g == 1:
                return True
            r = g - 1
            return (
                r.numerator == 1
                and is_prime(r.denominator)
                and (self.prime_bound is None or r.denominator <= self.prime_bound)
            )
        if v == "cantor_shift":
            return g - 1 in set(cantor_endpoints(self.depth))
        return g in _dense_atom_set(self.seed)

    def finitely_generated(self) -> bool:
        v = self.variant
        if v in ("finite", "cantor_shift"):
            return True
        if v == "prime_reciprocal_shift":
            return self.prime_bound is not None
        if v == "geometric":
            return self.ratio.denominator == 1
        if v == "increasing":
            return self.form == "affine"
        return False

    def finite_generators(self) -> list[Fraction]:
        """A finite generating set of a finitely generated family."""
        v = self.variant
        if v == "geometric":
            return [Fraction(1)]
        if v == "increasing":
            # Scaled tail terms form a progression t_k = t_1 + (k - 1) d with
            # every later term t_{k+q} = t_k + (t_1 / g) * d' * g, a sum
            # containing t_1, once q = t_1 / g with g the gcd of the terms.
            first = len(self.prefix) + 1
            t1 = self.term(first)
            den = math.lcm(t1.denominator, self.slope.denominator, *(t.denominator for t in self.prefix))
            g = math.gcd(int(t1 * den), int(self.slope * den))
            q = int(t1 * den) // g
            return list(self.prefix) + [self.term(k) for k in range(first, first + q + 1)]
        return self.stream(self.finite_total())

    def scale(self) -> Fraction:
        """Step of the lattice a finitely generated family lives on."""
        return scaled(self.finite_generators())[0]

    def canonical(self) -> tuple[Fraction, IntMonoid]:
        """(scale, residue table) of a finitely generated family, computed once."""
        if self._canonical is None:
            scale, ints = scaled(self.finite_generators())
            self._canonical = scale, IntMonoid(ints)
        return self._canonical

    # -- difference group and closure -----------------------------------------

    def group(self):
        """(unit, cap) with the group unit * {a/d : d allowed}; cap(p) is the
        largest exponent of prime p allowed in d (None: unbounded)."""
        v = self.variant
        if v == "unit_fraction_powers":
            primes = set(prime_exponents(self.base))
            return 1, lambda p: None if p in primes else 0
        if v == "geometric":
            primes = set(prime_exponents(self.ratio.denominator))
            return 1, lambda p: None if p in primes else 0
        if v == "prime_reciprocal_shift":
            bound = self.prime_bound
            return 1, lambda p: 1 if bound is None or p <= bound else 0
        if v == "cantor_shift":
            depth = self.depth
            return 1, lambda p: depth if p == 3 else 0
        if v == "dense_atoms":
            entries = dense_atoms(512, self.seed)
            unit = math.gcd(*(e[3] for e in entries))
            exps = {e[1]: e[2] for e in entries}

            def cap(p):
                if p in exps:
                    return exps[p]
                # entry k uses the k-th prime p_k > 2k for k >= 5, so exponent 1
                return 1

            return unit, cap
        if v == "increasing" and self.form != "affine":
            unit = math.gcd(*(t.numerator for t in self.stream(512)))
            if self.form == "harmonic":
                return unit, lambda p: None
            caps = {p: e for p, e in prime_exponents(math.lcm(1, *(t.denominator for t in self.prefix))).items()}
            for p in prime_exponents(int(self.coeff)):
                caps.setdefault(p, 0)
            return unit, lambda p: caps.get(p, 1)
        raise ValueError("cyclic group: use canonical()")

    def allowed_denominators(self, count: int) -> list[int]:
        unit, cap = self.group()
        out = []
        d = 1
        while len(out) < count and d <= 10**6:
            if all(c is None or e <= c for p, e in prime_exponents(d).items() for c in [cap(p)]):
                out.append(d)
            d += 1
        return out

    def in_group(self, x: Fraction) -> bool:
        unit, cap = self.group()
        q = x / unit
        return all(c is None or e <= c for p, e in prime_exponents(q.denominator).items() for c in [cap(p)])


def _is_power(n: int, base: int) -> bool:
    # n == base**k for some k >= 1
    while n % base == 0:
        n //= base
    return n == 1
