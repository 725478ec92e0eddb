"""Seeded query lists for the three workloads.

A run is a sequence of rounds.  Round r of workload w under seed s is drawn
from ``random.Random(f"{w}:{s}:{r}")``, so the same seed always gives the
same queries in the same order.  Every round has the same make-up (the
same subcommands on the same families, with parameters drawn from fixed
ranges), so runs of different seeds and lengths do the same kind of work.
A ``Batch`` remembers a short digest of every spec and every query it has
handed out: no query repeats within a run, and in ``fg-sessions`` and ``infinite-oneshot``
no spec recurs outside its own session.

Each query carries its check (``checks``), bound to a model of its family
(``reference.Model``); the truth of every membership query is fixed when
the query is built.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

import checks
from reference import Model, first_primes, is_prime, prime_exponents, representable

WORKLOADS = ("fg-sessions", "infinite-oneshot", "density-closure")


@dataclass
class Query:
    argv: list[str]  # arguments for puiseux.cli.main; the spec comes on stdin
    spec: str  # spec JSON
    check: Callable  # check(code, payload) -> None or a failure reason
    kind: str  # subcommand and family, for reports


def fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def digest(*parts) -> bytes:
    """Eight bytes that stand for a spec or a query in the repeat sets, so
    that what the benchmark keeps grows little with the number of rounds."""
    return hashlib.blake2b(repr(parts).encode(), digest_size=8).digest()


class Exhausted(Exception):
    """No fresh spec of this kind was found."""


class Batch:
    """Draws rounds of one workload and keeps them free of repeats."""

    def __init__(self, workload: str, seed):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.specs: set[bytes] = set()
        self.queries: set[bytes] = set()
        self.cantor_depths: list[int] = []
        self.prs_bounds: list[int] = []

    def round(self, r: int) -> list[Query]:
        rng = random.Random(f"{self.workload}:{self.seed}:{r}")
        if r == 0:
            self.cantor_depths = rng.sample(range(1, 4), 3)
            self.prs_bounds = rng.sample([2, 3, 5, 7, 11], 5)
        build = {
            "fg-sessions": self._fg_round,
            "infinite-oneshot": self._oneshot_round,
            "density-closure": self._density_round,
        }[self.workload]
        out = []
        for q in build(rng, r):
            key = digest(q.spec, q.argv)
            if key not in self.queries:
                self.queries.add(key)
                out.append(q)
        return out

    # -- spec bookkeeping -----------------------------------------------------

    def fresh(self, draw: Callable[[], dict], tries: int = 200) -> tuple[str, Model]:
        """A spec from ``draw`` not handed out before in this run."""
        for _ in range(tries):
            spec = draw()
            text = json.dumps(spec, sort_keys=True)
            if digest(text) not in self.specs:
                self.specs.add(digest(text))
                return text, Model(spec)
        raise Exhausted(str(spec))

    # -- fg-sessions ------------------------------------------------------------

    # scaled multiplicity bands, one session each per round; narrow, so
    # that every round does about the same work
    BANDS = ((10, 14), (35, 50), (120, 170), (420, 600), (1300, 1800), (2200, 3000))

    def _fg_round(self, rng, r):
        sessions = [self._fg_session(rng, *self.fresh(lambda: finite_spec(rng, lo, hi))) for lo, hi in self.BANDS]
        sessions.append(self._fg_session(rng, *self.fresh(lambda: affine_spec(rng))))
        # the catalog has few small Cantor and prime-reciprocal truncations;
        # each runs once per run, then a finite list takes the slot
        if r % 2 == 0 and self.cantor_depths:
            spec = {"variant": "cantor_shift", "depth": self.cantor_depths.pop()}
        elif self.prs_bounds:
            spec = {"variant": "prime_reciprocal_shift", "prime_bound": self.prs_bounds.pop()}
        else:
            spec = None
        if spec is not None:
            sessions.append(self._fg_session(rng, *self.fresh(lambda: spec)))
        else:
            sessions.append(self._fg_session(rng, *self.fresh(lambda: finite_spec(rng, 10, 3000))))
        return [q for s in sessions for q in s]

    def _fg_session(self, rng, text, model):
        gens = model.finite_generators()
        scale, nm = model.canonical()  # the checks reuse this table
        kind = model.variant
        q = partial(Query, spec=text)
        out = [
            q(["frobenius"], check=partial(checks.check_frobenius, model), kind=f"frobenius/{kind}"),
            q(["conductor"], check=partial(checks.check_conductor, model), kind=f"conductor/{kind}"),
            q(["atoms"], check=partial(checks.check_atoms, model), kind=f"atoms/{kind}"),
            q(["classify"], check=partial(checks.check_classify, model), kind=f"classify/{kind}"),
            q(["gp"], check=partial(checks.check_gp, model), kind=f"gp/{kind}"),
        ]
        gens_small = sorted(gens)[:8]
        xs = set()
        for _ in range(2):
            x = sum(rng.choice(gens_small) * rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
            xs.add(("in", x))
        # two gaps of the scaled numerical monoid: one below the least
        # generator, one from a residue class with a large table entry
        if nm.m > 1:
            xs.add(("out", scale * rng.randint(1, nm.m - 1)))
        classes = [r for r in range(1, nm.m) if nm.apery[r] > nm.m]
        if classes:
            cls = rng.choice(classes)
            a = nm.apery[cls]
            xs.add(("out", scale * (a - nm.m * rng.randint(1, (a - cls) // nm.m))))
        for truth, x in sorted(xs, key=lambda t: (t[0], t[1])):
            out.append(q(["member", fmt(x)], check=partial(checks.check_member, model, x, truth, False), kind=f"member-{truth}/{kind}"))
        # Cantor and affine specs have many atoms: a sum of two keeps the
        # factorization lists short
        parts = 3 if kind == "finite" else 2
        x = sum(rng.choice(gens_small) for _ in range(rng.randint(2, parts)))
        out.append(q(["lengths", fmt(x)], check=partial(checks.check_lengths, model, x), kind=f"lengths/{kind}"))
        out.append(q(["factorize", fmt(x)], check=partial(checks.check_factorize, model, x), kind=f"factorize/{kind}"))
        return out

    # -- infinite-oneshot ---------------------------------------------------------

    def _oneshot_round(self, rng, r):
        out = []

        def one(draw, make):
            try:
                out.append(make(*self.fresh(draw)))
            except Exhausted:
                pass  # only in very long runs; the round is one query shorter

        # The make-up places the median inside the prime-harmonic members:
        # about a third of the queries are cheaper, a third dearer.
        for _ in range(11):
            one(lambda: harmonic_spec(rng), lambda t, m: self._member_sum(rng, t, m, 3, 3, 8, "harmonic"))
        one(lambda: harmonic_spec(rng), lambda t, m: self._member_below_limit(rng, t, m))
        for _ in range(8):
            one(lambda: prime_harmonic_spec(rng), lambda t, m: self._member_sum(rng, t, m, 2, 4, 12, "prime-harmonic"))
        one(lambda: prime_harmonic_spec(rng), lambda t, m: self._atoms(t, m, "prime-harmonic"))
        one(lambda: harmonic_spec(rng), lambda t, m: self._atoms(t, m, "harmonic"))
        one(lambda: harmonic_spec(rng), lambda t, m: self._factorize_above_limit(rng, t, m))
        one(lambda: harmonic_spec(rng), lambda t, m: self._lengths_below_limit(rng, t, m))

        # the all-primes reciprocal family is one spec: its queries vary x
        prs_text, prs = _fixed(PRS_ALL)
        for _ in range(2):
            out.append(self._prs_member_in(rng, prs_text, prs))
        out.append(self._prs_member_out(rng, prs_text, prs))
        for cmd, lo, hi in (("factorize", 6, 9), ("lengths", 9, 12)):
            for _ in range(100):  # an x not asked before in this run
                d = rng.randint(1, 12)
                x = Fraction(rng.randint(lo * d, hi * d), d)
                if digest(prs_text, [cmd, fmt(x)]) not in self.queries:
                    break
            check = checks.check_factorize if cmd == "factorize" else checks.check_lengths
            out.append(Query([cmd, fmt(x)], prs_text, partial(check, prs, x), f"{cmd}/prs-all"))

        one(lambda: geometric_spec(rng, above=True), lambda t, m: self._member_sum(rng, t, m, 2, 4, 5, "geometric"))
        one(lambda: geometric_spec(rng, above=True), lambda t, m: self._member_out_of_group(rng, t, m, "geometric"))
        one(lambda: geometric_spec(rng, above=True), lambda t, m: self._factorize_sum(rng, t, m))
        one(lambda: geometric_spec(rng, above=True), lambda t, m: self._atoms(t, m, "geometric"))

        one(lambda: ufp_spec(rng), lambda t, m: self._member_sum(rng, t, m, 1, 3, 4, "ufp"))
        one(lambda: ufp_spec(rng), lambda t, m: self._member_out_of_group(rng, t, m, "ufp"))
        one(lambda: ufp_spec(rng), lambda t, m: self._atoms(t, m, "ufp"))

        one(lambda: dense_spec(rng), lambda t, m: self._member_sum(rng, t, m, 2, 3, 12, "dense"))
        one(lambda: dense_spec(rng), lambda t, m: self._member_out_of_group(rng, t, m, "dense"))
        one(lambda: dense_spec(rng), lambda t, m: self._atoms(t, m, "dense"))
        return out

    def _member_sum(self, rng, text, model, lo, hi, depth, kind):
        """IN by construction: a sum of generators among the first ``depth``.
        Families with infinitely many generators below x may stay undecided."""
        gens = model.stream(depth)
        x = sum(rng.choice(gens) for _ in range(rng.randint(lo, hi)))
        undecided_ok = kind in ("harmonic", "prime-harmonic", "dense")
        return Query(["member", fmt(x)], text, partial(checks.check_member, model, x, "in", undecided_ok), f"member-in/{kind}")

    def _member_below_limit(self, rng, text, model):
        # below the limit only finitely many generators are <= x, so the
        # benchmark's own exact search settles the truth
        x = model.limit * Fraction(rng.randint(50, 99), 100)
        k = 1
        while model.term(k) <= x:
            k += 1
        truth = "in" if representable(model.stream(k - 1), x) else "out"
        return Query(["member", fmt(x)], text, partial(checks.check_member, model, x, truth, False), f"member-{truth}/harmonic")

    def _member_out_of_group(self, rng, text, model, kind):
        """OUT by construction: the denominator leaves the difference group."""
        unit, cap = model.group()
        while True:
            p = rng.choice(first_primes(12))
            if cap(p) is not None:
                break
        x = unit * Fraction(rng.randint(1, 40) * p + 1, p ** (cap(p) + 1))
        return Query(["member", fmt(x)], text, partial(checks.check_member, model, x, "out", False), f"member-out/{kind}")

    def _atoms(self, text, model, kind):
        return Query(["atoms"], text, partial(checks.check_atoms, model), f"atoms/{kind}")

    def _factorize_above_limit(self, rng, text, model):
        # infinitely many atoms lie below x: the answer is partial (exit 2)
        x = model.limit + model.term(1)
        return Query(["factorize", fmt(x)], text, partial(checks.check_factorize, model, x), "factorize/harmonic")

    def _lengths_below_limit(self, rng, text, model):
        x = model.limit * Fraction(rng.randint(60, 99), 100)
        return Query(["lengths", fmt(x)], text, partial(checks.check_lengths, model, x), "lengths/harmonic")

    def _factorize_sum(self, rng, text, model):
        gens = model.stream(3)
        x = sum(rng.choice(gens) for _ in range(rng.randint(2, 4)))
        return Query(["factorize", fmt(x)], text, partial(checks.check_factorize, model, x), "factorize/geometric")

    def _prs_member_in(self, rng, text, model):
        primes = first_primes(12)
        x = rng.randint(0, 2) + sum(1 + Fraction(1, rng.choice(primes)) for _ in range(rng.randint(2, 4)))
        return Query(["member", fmt(x)], text, partial(checks.check_member, model, x, "in", False), "member-in/prs-all")

    def _prs_member_out(self, rng, text, model):
        # 1 + 1/n with n composite lies in (1, 2), where only generators are
        # elements; n/p**2 + integer has a squared prime in its denominator
        if rng.random() < 0.5:
            n = rng.choice([c for c in range(4, 200) if not is_prime(c)])
            x = 1 + Fraction(1, n)
        else:
            p = rng.choice(first_primes(8))
            x = rng.randint(2, 5) + Fraction(rng.randint(1, p - 1) if p > 2 else 1, p * p)
        return Query(["member", fmt(x)], text, partial(checks.check_member, model, x, "out", False), "member-out/prs-all")

    # -- density-closure ---------------------------------------------------------

    def _density_round(self, rng, r):
        out = []

        def add(spec, cmd, check, kind, *args):
            text, model = _fixed(spec)
            out.append(Query(cmd, text, partial(check, model, *args), kind))

        # rule-table verdicts across the catalog
        for name, draw in self._catalog(rng):
            add(draw(), ["classify"], checks.check_classify, f"classify/{name}")
        for name, draw in self._catalog(rng):
            if name not in ("finite", "cantor", "affine", "prs-bounded"):
                add(draw(), ["gp"], checks.check_gp, f"gp/{name}")
        for name, draw in self._catalog(rng):
            if name not in ("cantor", "prs-bounded"):
                add(draw(), ["conductor"], checks.check_conductor, f"conductor/{name}")

        # closure generator listing: the allowed denominators of a ratio
        # p/3**j are the powers of 3, sparse enough that the scan for eight
        # of them runs to 2187 (powers of 5 would run to 78125)
        for _ in range(6):
            add(geometric_spec(rng, above=rng.random() < 0.5, den=3 ** rng.randint(1, 3)), ["closure"], checks.check_closure, "closure/geometric-3")
        add(ufp_spec(rng), ["closure"], checks.check_closure, "closure/ufp")
        add(harmonic_spec(rng), ["closure"], checks.check_closure, "closure/harmonic")
        add(dense_spec(rng), ["closure"], checks.check_closure, "closure/dense")

        # probes on the lattice route
        def probe(text, model, lo, hi, eps, depth, kind):
            argv = ["probe", "--interval", fmt(lo), fmt(hi), "--eps", fmt(eps), "--depth", str(depth)]
            out.append(Query(argv, text, partial(checks.check_probe, model, lo, hi, eps, depth), kind))

        lo, hi, eps = self._window(rng, 0, 1000, Fraction(1, 7))
        probe(*_fixed(finite_spec(rng, 20, 200)), lo, hi, eps, 24, "probe/finite")
        depth = rng.randint(3, 6)
        lo = 2 + Fraction(rng.randint(0, 8), 9)
        eps = Fraction(1, rng.choice([20, 50, 3**depth, 2 * 3**depth]))
        probe(*_fixed({"variant": "cantor_shift", "depth": depth}), lo, lo + 1, eps, 24, "probe/cantor")
        # up to 30000 lattice points: the lattice route holds
        base = rng.choice([2, 3, 4, 5, 6, 7, 10])
        depth = max(1, int(math.log(rng.uniform(1e2, 1e4), base)))
        lo, hi, eps = self._window(rng, 0, min(30, Fraction(3 * 10**4, base**depth)), Fraction(1, 1000))
        probe(*_fixed({"variant": "unit_fraction_powers", "base": base}), lo, hi, eps, depth, "probe/ufp")

        # probes on the set route: the lattices of these generators pass the
        # bitmask cap from depth 10 on (prime reciprocals), 7 on (dense
        # atoms) and about 20 on (harmonic terms)
        for _ in range(4):
            lo = Fraction(rng.randint(10, 30), 10)
            eps = Fraction(1, rng.randint(5, 40))
            probe(*_fixed(PRS_ALL), lo, lo + 3, eps, rng.randint(11, 12), "probe/prs-all")
        for _ in range(2):
            lo = Fraction(rng.randint(0, 10), 10)
            eps = Fraction(1, rng.randint(5, 40))
            probe(*_fixed(dense_spec(rng)), lo, lo + 1, eps, rng.randint(7, 9), "probe/dense")
        for _ in range(2):
            text, model = _fixed(harmonic_spec(rng))
            eps = Fraction(1, rng.randint(5, 40))
            lo, hi, depth = model.limit, model.limit + 2, rng.randint(20, 24)
            while lattice_bits(model, hi, depth) <= 2 * LATTICE_CAP:
                depth += 1  # a bitmask this wide would set the run's peak memory
            probe(text, model, lo, hi, eps, depth, "probe/harmonic")

        # right-isolation radii
        T = Fraction(rng.randint(100, 400))
        add(finite_spec(rng, 10, 40), ["isolate", "--T", fmt(T)], checks.check_isolate, "isolate/finite", T)
        T = Fraction(rng.randint(20, 40))
        add(affine_spec(rng), ["isolate", "--T", fmt(T)], checks.check_isolate, "isolate/affine", T)
        # ratios of at least 3/2 with small terms: few powers lie below T
        T = Fraction(rng.randint(6, 12))
        add(geometric_spec(rng, above=True, small=True, least=Fraction(3, 2)), ["isolate", "--T", fmt(T)], checks.check_isolate, "isolate/geometric", T)
        # T between the k-th and (k+1)-th term: k generators lie below it
        text, model = _fixed(harmonic_spec(rng))
        k = rng.randint(4, 8)
        T = (model.term(k) + model.term(k + 1)) / 2
        out.append(Query(["isolate", "--T", fmt(T)], text, partial(checks.check_isolate, model, T), "isolate/harmonic"))
        return out

    def _catalog(self, rng):
        return [
            ("finite", lambda: finite_spec(rng, 10, 300)),
            ("cantor", lambda: {"variant": "cantor_shift", "depth": rng.randint(1, 10)}),
            ("affine", lambda: affine_spec(rng)),
            ("prs-bounded", lambda: {"variant": "prime_reciprocal_shift", "prime_bound": rng.randint(2, 2000)}),
            ("harmonic", lambda: harmonic_spec(rng)),
            ("prime-harmonic", lambda: prime_harmonic_spec(rng)),
            ("geometric-up", lambda: geometric_spec(rng, above=True, small=True)),
            ("geometric-down", lambda: geometric_spec(rng, above=False)),
            ("ufp", lambda: ufp_spec(rng)),
            ("dense", lambda: dense_spec(rng)),
        ]

    def _window(self, rng, lo_max, hi_max, step):
        lo = step * rng.randint(0, int(lo_max / step)) if lo_max else Fraction(0)
        hi = lo + Fraction(hi_max) * Fraction(rng.randint(50, 100), 100)
        return lo, hi, step * rng.choice([1, 2, 5, 10, 50])


# ---------------------------------------------------------------------------
# spec draws

PRS_ALL = {"variant": "prime_reciprocal_shift", "prime_bound": "all"}

# the program enumerates on the lattice route up to this many bits, on the
# set route beyond
LATTICE_CAP = 50_000_000


def lattice_bits(model: Model, hi: Fraction, depth: int) -> int:
    """Bits of the bitmask a probe to hi at this depth would need."""
    total = model.finite_total()
    gens = [g for g in model.stream(total if total is not None else depth) if g <= hi]
    return int(hi * math.lcm(hi.denominator, *(g.denominator for g in gens)))


def _fixed(spec: dict) -> tuple[str, Model]:
    """A spec that may recur across rounds (a family with one or few members)."""
    return json.dumps(spec, sort_keys=True), Model(spec)



def finite_spec(rng, lo, hi):
    """2-6 rational generators whose scaled multiplicity lies in [lo, hi)."""
    m = int(math.exp(rng.uniform(math.log(lo), math.log(hi))))
    # two or three generators make the residue table slow to settle (up to
    # 0.8 s at multiplicity 3000), which would let a few specs set the pace
    k = rng.randint(2, 6) if hi <= 300 else rng.randint(4, 6)
    ints = {m}
    while len(ints) < k:
        ints.add(rng.randint(m + 1, 2 * m + 1))
    ints = sorted(ints)
    while math.gcd(*ints) != 1:
        ints[-1] += 1
    den = rng.randint(1, 12)
    unit = rng.randint(1, 5)
    return {"variant": "finite", "generators": [fmt(Fraction(n * unit, den)) for n in ints]}


def affine_spec(rng):
    q = rng.randint(1, 7)
    offset = Fraction(rng.randint(q, 6 * q), q)
    slope = Fraction(rng.randint(1, 9), rng.randint(1, 7))
    return {
        "variant": "increasing",
        "prefix": [],
        "tail": {"form": "affine", "offset": fmt(offset), "slope": fmt(slope)},
        "bounded": False,
        "limit": None,
    }


def harmonic_spec(rng):
    limit = Fraction(rng.randint(3, 10), 2)
    b = rng.randint(1, 12)
    coeff = Fraction(rng.randint(1, math.ceil(limit * b) - 1), b)
    return {
        "variant": "increasing",
        "prefix": [],
        "tail": {"form": "harmonic", "limit": fmt(limit), "coeff": fmt(coeff)},
        "bounded": True,
        "limit": fmt(limit),
    }


def prime_harmonic_spec(rng):
    # limit and coefficient coprime, so the term numerators have gcd 1
    while True:
        limit = rng.randint(2, 40)
        coeff = rng.randint(1, 2 * limit - 1)
        if math.gcd(limit, coeff) == 1:
            break
    limit, coeff = Fraction(limit), Fraction(coeff)
    return {
        "variant": "increasing",
        "prefix": [],
        "tail": {"form": "prime_harmonic", "limit": fmt(limit), "coeff": fmt(coeff)},
        "bounded": True,
        "limit": fmt(limit),
    }


def geometric_spec(rng, above, den=None, small=False, least=1):
    """Ratio p/q above or below 1; ``small`` keeps p <= 12, since the
    isolation witness of a classification enumerates up to (p/q)**4 on the
    lattice of step q**-4.  Ratios above 1 are at least ``least``."""
    while True:
        q = den if den is not None else rng.randint(2, 12)
        p = rng.randint(q + 1, 4 * q) if above else rng.randint(1, q - 1)
        if math.gcd(p, q) != 1 or (small and p > 12) or (above and Fraction(p, q) < least):
            continue
        return {"variant": "geometric", "ratio": fmt(Fraction(p, q))}


def ufp_spec(rng):
    # bases built from several primes, or from 2 or 3 alone, keep the
    # closure scan short
    while True:
        b = rng.randint(2, 400)
        ps = set(prime_exponents(b))
        if len(ps) > 1 or ps <= {2, 3}:
            return {"variant": "unit_fraction_powers", "base": b}


def dense_spec(rng):
    return {"variant": "dense_atoms", "count": rng.randint(1, 400), "seed": "low_discrepancy"}

