"""Answer checks: each compares one CLI answer with ``reference``.

A check takes the family model and the query's parameters, then the exit
code and the parsed JSON output, and returns None when the answer holds or
a one-line reason when it does not.  Exit code 2 (undecided) passes only
where the query was built as one the method may leave undecided
(``undecided_ok``); a definite answer there is checked like any other.
"""

from __future__ import annotations

from fractions import Fraction

from reference import (
    ascending_atoms,
    factorization_table,
    largest_gap,
    points_upto,
    prime_reciprocal_factorizations,
    scaled,
)

ATOM_LIMIT = 24  # the CLI's default --limit
CLOSURE_GENERATORS = 8  # the CLI lists this many closure generators


def _status(code, payload, undecided_ok):
    """Common exit-code rules; returns a failure reason or None."""
    if code == 2:
        return None if undecided_ok else "undecided (exit 2) on a query the method must decide"
    if code != 0:
        return f"exit code {code}"
    if payload is None:
        return "no JSON output"
    return None


# ---------------------------------------------------------------------------
# finitely generated invariants


def check_frobenius(model, code, payload):
    if (bad := _status(code, payload, False)):
        return bad
    scale, nm = model.canonical()
    want = {
        "frobenius": str(nm.frobenius),
        "conductor_min": str(nm.frobenius + 1),
        "scale": str(scale),
        "minimal_generators": [str(g) for g in nm.minimal_generators()],
    }
    for k, v in want.items():
        if payload.get(k) != v:
            return f"{k}: got {payload.get(k)!r}, want {v!r}"
    return None


def expected_conductor(model):
    """(kind, sigma, min) by the paper's results for each family, or None
    where the benchmark has no answer of its own."""
    v = model.variant
    if model.finitely_generated():
        scale, nm = model.canonical()
        if nm.frobenius < 0:
            return ("equals_monoid", None, None)
        return ("tail", scale * nm.frobenius, scale * (nm.frobenius + 1))
    if v == "unit_fraction_powers":
        return ("equals_monoid", None, None)  # root-closed
    if v == "geometric" and model.ratio < 1 and model.ratio.numerator == 1:
        return ("equals_monoid", None, None)
    if v == "geometric" and model.ratio > 1:
        return ("empty", None, None)  # strictly increasing, not finitely generated
    if v == "increasing":
        return ("empty", None, None)
    if v == "prime_reciprocal_shift":
        return ("empty", None, None)  # all primes: not finitely generated
    return None  # dense atoms, contracting nonunit ratios


def check_conductor(model, code, payload):
    # Bounded prime-reciprocal monoids are finitely generated, but the rule
    # table may leave their conductor undecided; a definite answer there is
    # checked against the residue table like any other.
    if code == 2 and model.variant == "prime_reciprocal_shift" and model.prime_bound is not None:
        return None
    want = expected_conductor(model)
    if (bad := _status(code, payload, want is None)):
        return bad
    if payload is None:
        return None  # undecided, as allowed, and nothing printed to check
    if code == 2:
        return None
    if want is None:
        return f"definite conductor {payload.get('kind')!r} where no rule applies"
    kind, sigma, low = want
    if payload.get("kind") != kind:
        return f"kind: got {payload.get('kind')!r}, want {kind!r}"
    if sigma is not None and (Fraction(payload.get("sigma", "-1")) != sigma or Fraction(payload.get("min", "-1")) != low):
        return f"tail: got sigma={payload.get('sigma')} min={payload.get('min')}, want {sigma} {low}"
    return None


# ---------------------------------------------------------------------------
# atoms, membership, factorizations


def expected_atoms(model, limit=ATOM_LIMIT):
    """(kind, atoms listed, truncated)."""
    v = model.variant
    if v == "unit_fraction_powers" or (v == "geometric" and model.ratio < 1 and model.ratio.numerator == 1):
        return "antimatter", [], False
    if v == "finite" or (v == "increasing" and model.form == "affine") or (v == "geometric" and model.ratio.denominator == 1):
        scale, nm = model.canonical()
        full = [scale * a for a in nm.minimal_generators()]
        return "atomic", full[:limit], len(full) > limit
    total = model.finite_total()
    stream = model.stream(limit)
    if v in ("dense_atoms", "prime_reciprocal_shift", "geometric"):
        # Every generator is an atom: dense atoms carry distinct prime-power
        # denominators; prime-reciprocal generators lie below 2, the least
        # two-part sum; a power (p/q)**n has denominator q**n while sums of
        # smaller powers have denominators dividing q**(n-1).
        return "atomic", stream, total is None or limit < total
    return "atomic", ascending_atoms(stream), total is None or limit < total


def check_atoms(model, code, payload):
    if (bad := _status(code, payload, False)):
        return bad
    kind, shown, truncated = expected_atoms(model)
    if payload.get("kind") != kind:
        return f"kind: got {payload.get('kind')!r}, want {kind!r}"
    got = [Fraction(a) for a in payload.get("atoms", [])]
    if got != shown:
        return f"atoms: got {len(got)} ({payload.get('atoms', [])[:4]}...), want {len(shown)}"
    if payload.get("truncated") != truncated:
        return f"truncated: got {payload.get('truncated')}, want {truncated}"
    return None


def check_member(model, x, truth, undecided_ok, code, payload):
    """``truth`` is 'in' or 'out', fixed when the query was built."""
    if (bad := _status(code, payload, undecided_ok)):
        return bad
    if payload is None:
        return None  # undecided, as allowed, and nothing printed to check
    if code == 2:
        return None if payload.get("status") == "unknown" else "exit 2 with a definite status"
    status = payload.get("status")
    if status != truth:
        return f"status {status!r} for x={x}, known {truth!r}"
    cert = payload.get("certificate")
    if status == "in" and cert is not None:
        total = Fraction(0)
        for a, m in cert:
            g = Fraction(a)
            if not isinstance(m, int) or m < 1:
                return f"certificate multiplicity {m!r}"
            if not model.is_generator(g):
                return f"certificate part {a} is not a generator"
            total += g * m
        if total != x:
            return f"certificate sums to {total}, not {x}"
    if status == "in" and cert is None and not model.finitely_generated():
        return "IN without a certificate"
    return None


def expected_factorizations(model, x):
    """(count, lengths, atom set) of the complete factorization set of x,
    or None when the atoms below x are not a finite computable set."""
    v = model.variant
    if v == "prime_reciprocal_shift" and model.prime_bound is None:
        sols = prime_reciprocal_factorizations(x, None)
        lengths = {ones + len(ps) for ones, ps in sols}
        atoms = {Fraction(1)} | {1 + Fraction(1, p) for _, ps in sols for p in ps}
        return len(sols), lengths, atoms
    if model.finitely_generated():
        scale, nm = model.canonical()
        atoms = nm.minimal_generators()
        n = x / scale
        if n.denominator != 1:
            return 0, set(), {scale * a for a in atoms}
        count, lengths = factorization_table(atoms, int(n))
        return count, lengths, {scale * a for a in atoms}
    if v == "geometric" and model.ratio > 1:
        depth = 1
        while model.ratio**depth <= x:
            depth += 1
        atoms = model.stream(depth)  # every power is an atom (see expected_atoms)
    elif v == "increasing" and x < model.limit:
        k = 1
        while model.term(k) <= x:
            k += 1
        atoms = ascending_atoms(model.stream(k - 1))
    else:
        return None
    atoms = [g for g in atoms if g <= x]
    if not atoms:
        return 0, set(), set()
    scale, ints = scaled(atoms + [x])
    count, lengths = factorization_table(ints[:-1], ints[-1])
    return count, lengths, set(atoms)


def _valid_factorization(item, x, atom_ok):
    parts = [(Fraction(a), m) for a, m in item["parts"]]
    if any(m < 1 or not atom_ok(a) for a, m in parts):
        return "factorization uses a non-atom"
    if [a for a, _ in parts] != sorted((a for a, _ in parts), reverse=True) or len({a for a, _ in parts}) != len(parts):
        return "parts not strictly descending"
    if sum(a * m for a, m in parts) != x:
        return "factorization does not sum to x"
    if item["length"] != sum(m for _, m in parts):
        return "wrong length"
    return None


def check_factorize(model, x, code, payload):
    want = expected_factorizations(model, x)
    if (bad := _status(code, payload, want is None)):
        return bad
    if payload is None:
        return None  # undecided, as allowed, and nothing printed to check
    items = payload.get("factorizations", [])
    if want is None:
        atom_ok = model.is_generator
    else:
        atom_ok = want[2].__contains__
    for item in items:
        if (bad := _valid_factorization(item, x, atom_ok)):
            return bad
    if len({tuple(map(tuple, i["parts"])) for i in items}) != len(items):
        return "repeated factorization"
    if payload.get("count") != len(items):
        return "count does not match the list"
    if want is None:
        return None if code == 2 else "complete factorization set where the atoms below x are infinite"
    if code == 2 or not payload.get("complete"):
        return "incomplete factorization set where the atoms below x are finite"
    if len(items) != want[0]:
        return f"count {len(items)}, want {want[0]}"
    return None


def check_lengths(model, x, code, payload):
    want = expected_factorizations(model, x)
    if (bad := _status(code, payload, want is None)):
        return bad
    if payload is None:
        return None  # undecided, as allowed, and nothing printed to check
    got = payload.get("lengths", [])
    if want is None:
        return None if code == 2 else "complete length set where the atoms below x are infinite"
    if code == 2 or not payload.get("complete"):
        return "incomplete length set where the atoms below x are finite"
    if got != sorted(want[1]):
        return f"lengths {got}, want {sorted(want[1])}"
    return None


# ---------------------------------------------------------------------------
# density, closures


def expected_class(model):
    v = model.variant
    if v in ("unit_fraction_powers", "dense_atoms") or (v == "geometric" and model.ratio < 1):
        return "dense"  # zero is a limit point of the generators
    if v == "prime_reciprocal_shift" and model.prime_bound is None:
        return None  # no rule decides it
    return "nowhere_dense"  # finitely generated, or generated by an increasing sequence


def check_classify(model, code, payload):
    want = expected_class(model)
    if (bad := _status(code, payload, want is None)):
        return bad
    if payload is None:
        return None  # undecided, as allowed, and nothing printed to check
    if code == 2:
        return None
    if payload.get("class") != want:
        return f"class {payload.get('class')!r}, want {want!r}"
    witness = payload.get("witness", {})
    if witness.get("kind") == "lattice" and Fraction(witness["step"]) != model.scale():
        return f"lattice step {witness['step']}, want {model.scale()}"
    if witness.get("kind") == "decreasing_generators":
        sample = [Fraction(s) for s in witness["sample"]]
        if any(not model.is_generator(s) for s in sample) or any(a <= b for a, b in zip(sample, sample[1:])):
            return "dense witness is not a decreasing run of generators"
    return None


def check_gp(model, code, payload):
    if (bad := _status(code, payload, False)):
        return bad
    density = payload.get("density", {})
    group = payload.get("group", {})
    if model.finitely_generated():
        step = model.scale()
        if density.get("kind") != "nowhere_dense_finitely_generated":
            return f"density {density.get('kind')!r} for a finitely generated monoid"
        if group_step(group) != step:
            return f"group {group}, want the multiples of {step}"
        if Fraction(density.get("lattice_step", "0")) != step:
            return f"lattice step {density.get('lattice_step')}, want {step}"
        return None
    if density.get("kind") != "group_dense_in_R_closure_dense_in_R_nonneg":
        return f"density {density.get('kind')!r}: a non-cyclic subgroup of Q is dense"
    witness = [Fraction(w) for w in density.get("witness", [])]
    if not witness or witness[0] >= Fraction(1, 10):
        return "no closure element below 1/10 in the witness"
    if any(a <= b for a, b in zip(witness, witness[1:])) or not all(w > 0 and model.in_group(w) for w in witness):
        return "witness is not a decreasing run of closure elements"
    return None


def group_step(group):
    """Generator of a cyclic group given either as a step or as a localized
    group whose prime exponents are all capped; None for other groups."""
    if group.get("kind") == "cyclic":
        return Fraction(group["step"])
    if group.get("kind") == "localized" and group.get("default_exponent") == 0 and "exponent_rule" not in group:
        den = 1
        for p, cap in group.get("prime_exponents", {}).items():
            if cap == "inf":
                return None
            den *= int(p) ** cap
        return Fraction(group["unit"], den)
    return None


def check_closure(model, code, payload):
    if (bad := _status(code, payload, False)):
        return bad
    got = [Fraction(g) for g in payload.get("generators", [])]
    if model.finitely_generated():
        want = [model.scale()]
    else:
        unit, _ = model.group()
        want = [Fraction(unit, d) for d in model.allowed_denominators(CLOSURE_GENERATORS)]
    if got != want:
        return f"closure generators {payload.get('generators')}, want {[str(w) for w in want]}"
    return None


def _omitted_exceed(model, depth, hi):
    """Whether every generator beyond the first ``depth`` exceeds hi."""
    v = model.variant
    total = model.finite_total()
    if total is not None:
        return depth >= total or model.stream(depth + 1)[depth] > hi
    if v == "geometric":
        return model.ratio > 1 and model.ratio**depth > hi
    if v == "increasing":
        return model.term(depth + 1) > hi
    if v == "prime_reciprocal_shift":
        return hi <= 1
    return False


def window_points(model, hi, depth):
    """(sorted sums of the enumerated generators up to hi, complete flag)
    for the enumeration a probe makes at this depth."""
    total = model.finite_total()
    depth = total if total is not None else depth
    complete = _omitted_exceed(model, depth, hi)
    gens = [g for g in model.stream(depth) if g <= hi]
    return points_upto(gens, hi), complete


def check_probe(model, lo, hi, eps, depth, code, payload):
    if model.variant == "finite":
        scale, nm = model.canonical()
        count, gap = _fg_window(scale, nm, lo, hi)
        complete = True
    elif model.variant == "unit_fraction_powers":
        # the smallest generator 1/b**depth divides the others: the sums
        # are exactly its multiples
        step = Fraction(1, model.base**depth)
        first, last = -((-lo) // step), hi // step
        count = last - first + 1
        gap = max((lo, step * first), (step * last, hi), (0, step if count > 1 else 0), key=lambda g: g[1] - g[0])
        complete = False
    else:
        pts, complete = window_points(model, hi, depth)
        count, gap = largest_gap(pts, lo, hi)
    if gap is None or gap[1] - gap[0] <= eps:
        result = "eps_dense"
    else:
        result = "gap_witness" if complete else "inconclusive"
    if (bad := _status(code, payload, result == "inconclusive")):
        return bad
    if payload is None:
        return None  # undecided, as allowed, and nothing printed to check
    if payload.get("result") != result:
        return f"result {payload.get('result')!r}, want {result!r}"
    if payload.get("elements_found") != count:
        return f"elements_found {payload.get('elements_found')}, want {count}"
    if payload.get("complete_enumeration") != complete:
        return f"complete_enumeration {payload.get('complete_enumeration')}, want {complete}"
    if result != "eps_dense":
        got = payload.get("gap")
        if got is None or gap[1] - gap[0] != Fraction(got[1]) - Fraction(got[0]):
            return f"largest gap {got}, want length {gap[1] - gap[0]}"
    return None


def _fg_window(scale, nm, lo, hi):
    """(count, largest gap) of scale * nm inside [lo, hi]."""
    n_lo = -((-lo) // scale)
    n_hi = hi // scale
    if n_hi < n_lo:
        return 0, (lo, hi)
    count = (n_hi - n_lo + 1) - nm.gaps_in(n_lo, n_hi)
    # Past the conductor the elements are consecutive, one step apart: list
    # them only up to two past it and let the step stand for the rest.
    stop = max(n_lo, nm.frobenius + 1) + 1
    members = [n for n in range(n_lo, min(n_hi, stop) + 1) if nm.contains(n)]
    if n_hi <= stop:
        return count, largest_gap([scale * n for n in members], lo, hi)[1]
    gap = largest_gap([scale * n for n in members], lo, scale * stop)[1]
    if gap is None or gap[1] - gap[0] < scale:
        gap = (scale * stop, scale * (stop + 1))
    return count, gap


def check_isolate(model, T, code, payload):
    if (bad := _status(code, payload, False)):
        return bad
    if model.finitely_generated() and model.variant != "increasing":
        scale, nm = model.canonical()
        pts = [scale * n for n in range(int(T / scale) + 1) if nm.contains(n)]
    else:
        depth = 1
        while model.term(depth) <= T if model.variant == "increasing" else model.ratio**depth <= T:
            depth += 1
        pts = points_upto(model.stream(depth), T)
    want = [(a, b - a) for a, b in zip(pts, pts[1:])]
    got = [(Fraction(e), Fraction(r)) for e, r in payload.get("pairs", [])]
    if got != want:
        return f"{len(got)} isolation pairs, want {len(want)}"
    return None
