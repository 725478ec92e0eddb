import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from puiseux.errors import BudgetError
from puiseux.families import (
    AffineTail,
    CantorShift,
    DenseAtoms,
    FiniteGenerators,
    Geometric,
    HarmonicTail,
    IncreasingSequence,
    Membership,
    PrimeHarmonicTail,
    PrimeReciprocalShift,
    UnitFractionPowers,
    affine_finite_generators,
    canonical_fg,
    canonicalize,
    dumps_spec,
    generator_count,
    generator_stream,
    is_finitely_generated,
    loads_spec,
    omitted_generators_exceed,
    prime_reciprocal_solutions,
    spec_member,
    spec_to_dict,
)
from puiseux.oracle import enumerate_monoid
from puiseux.sequences import primes_upto


def test_canonicalize_examples():
    cf = canonicalize([F(1, 2), F(1, 3)])
    assert (cf.den_lcm, cf.num_gcd) == (6, 1)
    assert cf.scale == F(1, 6)
    assert cf.nm.minimal_generators == (2, 3)
    assert cf.member(F(5, 6))  # 5 in <2,3>

    cf = canonicalize([2, 3])
    assert cf.scale == 1 and cf.nm.minimal_generators == (2, 3)

    cf = canonicalize([F(4, 6), F(2, 3)])  # dedupes to {2/3}
    assert (cf.den_lcm, cf.num_gcd, cf.scale) == (3, 2, F(2, 3))
    assert cf.nm.minimal_generators == (1,)


def test_canonicalize_round_trip_mutual_membership():
    rng = random.Random(17)
    for _ in range(40):
        gens = [F(rng.randint(1, 20), rng.randint(1, 12)) for _ in range(rng.randint(1, 5))]
        cf = canonicalize(gens)
        # each original generator is a member of the canonical monoid
        assert all(cf.member(g) for g in gens)
        # each canonical generator is a member of the original monoid
        back = FiniteGenerators(gens)
        for a in cf.atoms():
            assert spec_member(back, a).status == Membership.IN


def test_generator_streams():
    assert generator_stream(Geometric(F(2, 3)), 3) == (F(1), F(2, 3), F(4, 9))
    assert generator_stream(PrimeReciprocalShift(None), 4) == (F(1), F(3, 2), F(4, 3), F(6, 5))
    assert generator_stream(UnitFractionPowers(2), 3) == (F(1, 2), F(1, 4), F(1, 8))
    assert generator_stream(CantorShift(1), 99) == (F(1), F(4, 3), F(5, 3), F(2))
    assert generator_stream(FiniteGenerators([3, 2]), 99) == (F(2), F(3))


def test_stream_monotonicity():
    inc = IncreasingSequence(HarmonicTail(2, F(1, 2)))
    ups = generator_stream(inc, 12)
    assert all(a < b for a, b in zip(ups, ups[1:]))
    ups = generator_stream(Geometric(F(3, 2)), 12)
    assert all(a < b for a, b in zip(ups, ups[1:]))
    downs = generator_stream(UnitFractionPowers(3), 12)
    assert all(a > b for a, b in zip(downs, downs[1:]))
    downs = generator_stream(Geometric(F(2, 3)), 12)
    assert all(a > b for a, b in zip(downs, downs[1:]))


def test_generator_count():
    assert generator_count(FiniteGenerators([2, 3])) == 2
    assert generator_count(CantorShift(3)) == 16
    assert generator_count(PrimeReciprocalShift(10)) == 5  # 1 and the four primes
    assert generator_count(PrimeReciprocalShift(None)) is None
    assert generator_count(DenseAtoms(50)) is None  # infinite family


def test_finitely_generated_flags():
    assert is_finitely_generated(FiniteGenerators([F(1, 2)]))
    assert is_finitely_generated(CantorShift(4))
    assert is_finitely_generated(PrimeReciprocalShift(50))
    assert is_finitely_generated(Geometric(2))
    assert is_finitely_generated(IncreasingSequence(AffineTail(2, 3)))
    assert not is_finitely_generated(Geometric(F(3, 2)))
    assert not is_finitely_generated(Geometric(F(2, 3)))
    assert not is_finitely_generated(UnitFractionPowers(2))
    assert not is_finitely_generated(PrimeReciprocalShift(None))
    assert not is_finitely_generated(IncreasingSequence(HarmonicTail(2, 1)))
    assert not is_finitely_generated(DenseAtoms(10))


def test_increasing_validation():
    with pytest.raises(ValueError):
        IncreasingSequence(AffineTail(2, 0))  # slope must be positive
    with pytest.raises(ValueError):
        IncreasingSequence(HarmonicTail(2, F(1, 2)), prefix=[F(5, 3), F(3, 2)])  # not increasing
    with pytest.raises(ValueError):
        IncreasingSequence(HarmonicTail(2, F(1, 2)), prefix=[F(17, 8)])  # prefix above tail start
    with pytest.raises(ValueError):
        IncreasingSequence(AffineTail(2, 3), limit=F(7))  # unbounded with a limit
    with pytest.raises(ValueError):
        IncreasingSequence(HarmonicTail(2, F(1, 2)), bounded=False)
    with pytest.raises(ValueError):
        IncreasingSequence(HarmonicTail(1, 2))  # first term 1 - 2 < 0
    # spec example: prefix then tail continuing above it
    inc = IncreasingSequence(HarmonicTail(2, F(1, 2)), prefix=[F(3, 2), F(5, 3), F(7, 4)])
    assert inc.term(3) == F(7, 4) and inc.term(4) == F(15, 8)
    assert inc.bounded and inc.limit == 2


def test_geometric_validation():
    with pytest.raises(ValueError):
        Geometric(1)
    with pytest.raises(ValueError):
        Geometric(0)
    with pytest.raises(ValueError):
        UnitFractionPowers(1)
    with pytest.raises(ValueError):
        DenseAtoms(3, seed="nope")
    with pytest.raises(ValueError):
        PrimeReciprocalShift(1)
    with pytest.raises(ValueError):
        FiniteGenerators([])


def test_spec_member_examples():
    assert spec_member(FiniteGenerators([F(1, 2), F(1, 3)]), F(5, 6)).status == Membership.IN
    assert spec_member(FiniteGenerators([2, 3]), 0).status == Membership.IN
    assert spec_member(PrimeReciprocalShift(None), F(1, 2)).status == Membership.OUT
    with pytest.raises(ValueError):
        spec_member(FiniteGenerators([2, 3]), F(-1))


def test_member_certificates_reevaluate():
    specs = [
        (FiniteGenerators([F(1, 2), F(1, 3)]), F(5, 6)),
        (PrimeReciprocalShift(None), F(4)),
        (Geometric(F(3, 2)), F(13, 4)),
        (UnitFractionPowers(2), F(5, 16)),
        (IncreasingSequence(AffineTail(2, 3)), F(13)),
    ]
    for spec, x in specs:
        res = spec_member(spec, x)
        assert res.status == Membership.IN
        assert res.certificate is not None
        assert sum((a * m for a, m in res.certificate), F(0)) == x


def test_member_agrees_with_oracle_on_random_finite_specs():
    rng = random.Random(23)
    for _ in range(100):
        gens = [F(rng.randint(1, 10), rng.randint(1, 6)) for _ in range(rng.randint(1, 4))]
        spec = FiniteGenerators(gens)
        enum = enumerate_monoid(spec, 4, len(spec.generators))
        assert enum.complete
        elements = set(enum.elements)
        cf = canonicalize(gens)
        step = F(1, cf.den_lcm)
        x = F(0)
        while x <= 4:
            got = spec_member(spec, x).status
            assert got == (Membership.IN if x in elements else Membership.OUT), (gens, x)
            x += step


def test_unknown_reasons_are_machine_readable():
    res = spec_member(Geometric(F(2, 3)), F(1, 3), budget=200, depth=6)
    assert res.status == Membership.UNKNOWN
    assert res.reason is not None and "kind" in res.reason
    inc = IncreasingSequence(HarmonicTail(2, F(1, 2)))
    res = spec_member(inc, F(1000000007, 2), budget=50, depth=6)
    assert res.status == Membership.UNKNOWN
    assert res.reason["kind"] in {"generator_truncation", "node_budget"}


def test_node_budget_outcomes_are_unknown():
    # the walker and the prime-reciprocal search each spend the budget and say so
    for spec, x in [
        (IncreasingSequence(HarmonicTail(3, 1)), F(29, 10)),
        (PrimeReciprocalShift(None), F(7, 2)),
    ]:
        res = spec_member(spec, x, budget=1)
        assert res.status == Membership.UNKNOWN, spec
        assert res.reason == {"kind": "node_budget", "node_budget": 1}
        assert spec_member(spec, x).status == Membership.IN


def test_geometric_below_one_out_by_denominator():
    assert spec_member(Geometric(F(2, 3)), F(1, 2)).status == Membership.OUT
    assert spec_member(Geometric(F(2, 3)), F(10, 9)).status in (Membership.IN, Membership.UNKNOWN)


def test_omitted_generators_exceed():
    assert omitted_generators_exceed(FiniteGenerators([2, 3]), 2, 100)
    assert omitted_generators_exceed(FiniteGenerators([2, 3]), 1, F(5, 2))
    assert not omitted_generators_exceed(FiniteGenerators([2, 3]), 1, 3)
    assert not omitted_generators_exceed(UnitFractionPowers(2), 40, F(1, 1000))
    assert omitted_generators_exceed(Geometric(F(3, 2)), 4, 5)
    assert not omitted_generators_exceed(Geometric(F(2, 3)), 10, 1)
    assert omitted_generators_exceed(PrimeReciprocalShift(None), 3, 1)
    assert not omitted_generators_exceed(PrimeReciprocalShift(None), 3, F(3, 2))
    inc = IncreasingSequence(HarmonicTail(2, F(1, 2)))
    assert omitted_generators_exceed(inc, 4, F(15, 8))
    assert not omitted_generators_exceed(inc, 4, 2)


def test_affine_reduction_generates_same_monoid():
    spec = IncreasingSequence(AffineTail(2, 3))
    finite = affine_finite_generators(spec)
    cf = canonical_fg(spec)
    # later progression terms stay inside the reduced monoid
    for k in range(1, 60):
        assert cf.member(spec.term(k))
    assert all(cf.member(g) for g in finite)


def test_canonical_fg_budget_for_primorial_scale():
    with pytest.raises(BudgetError):
        canonical_fg(PrimeReciprocalShift(97))


def test_member_fg_canonical_form_out_of_budget_is_unknown():
    # denominator lcm 10007 * 10009 exceeds the canonicalization limit
    res = spec_member(FiniteGenerators([F(1, 10007), F(1, 10009)]), 1)
    assert res.status == Membership.UNKNOWN
    assert res.reason["kind"] == "canonicalization_budget"


def test_member_long_generator_list_does_not_recurse():
    # the certificate search walks one level per generator: 1200 levels
    res = spec_member(FiniteGenerators(range(1000, 2200)), 2999)
    assert res.status == Membership.IN
    if res.certificate is not None:
        assert sum((a * m for a, m in res.certificate), F(0)) == 2999


def test_member_long_generator_list_is_certified_fast():
    # the residue table certifies 1999 + 1000 without a search
    start = time.perf_counter()
    res = spec_member(FiniteGenerators(range(1000, 2200)), 2999)
    assert time.perf_counter() - start < 1.0
    assert res.status == Membership.IN and res.certificate is not None
    assert sum((a * m for a, m in res.certificate), F(0)) == 2999


def test_affine_member_is_fast():
    spec = IncreasingSequence(AffineTail(F(37, 7), F(1, 5)))
    start = time.perf_counter()
    res = spec_member(spec, F(207, 5))
    assert time.perf_counter() - start < 0.2
    assert res.status == Membership.IN
    terms = {spec.term(k) for k in range(1, 200)}
    assert all(a in terms and m >= 1 for a, m in res.certificate)
    assert sum((a * m for a, m in res.certificate), F(0)) == F(207, 5)


# --- JSON wire format ----------------------------------------------------


ALL_SPECS = [
    FiniteGenerators([F(1, 2), F(1, 3)]),
    FiniteGenerators([6, 9, 20]),
    Geometric(F(2, 3)),
    Geometric(F(7, 2)),
    UnitFractionPowers(2),
    IncreasingSequence(AffineTail(F(1, 2), F(1, 2))),
    IncreasingSequence(HarmonicTail(2, F(1, 2)), prefix=[F(3, 2), F(5, 3), F(7, 4)]),
    IncreasingSequence(PrimeHarmonicTail(2, 1)),
    PrimeReciprocalShift(100),
    PrimeReciprocalShift(None),
    CantorShift(6),
    DenseAtoms(200),
    DenseAtoms(50, seed="low_discrepancy"),
]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
def test_json_round_trip(spec):
    text = dumps_spec(spec)
    again = loads_spec(text)
    assert again == spec
    assert dumps_spec(again) == text  # byte-identical through parse -> serialize


def test_loads_spec_error_positions():
    with pytest.raises(ValueError, match="line 1, column"):
        loads_spec("{bad json")
    with pytest.raises(ValueError, match="variant"):
        loads_spec('{"variant": "nope"}')
    with pytest.raises(ValueError, match="unexpected"):
        loads_spec('{"variant": "geometric", "ratio": "2/3", "extra": 1}')
    with pytest.raises(ValueError):
        loads_spec('{"variant": "finite", "generators": ["1/2", "+1/3"]}')
    with pytest.raises(ValueError, match="unknown spec variant"):
        loads_spec('{"variant": ["finite"]}')
    with pytest.raises(ValueError, match="tail must be a JSON object"):
        loads_spec('{"variant": "increasing", "prefix": [], "tail": 5, "bounded": false, "limit": null}')
    # JSON values of the wrong type are input errors too, not TypeErrors
    with pytest.raises(ValueError, match="generators must be a list of rational strings"):
        loads_spec('{"variant": "finite", "generators": [1]}')
    with pytest.raises(ValueError, match="'limit' must be a rational string"):
        loads_spec(
            '{"variant": "increasing", "prefix": [], "bounded": false, "limit": 5,'
            ' "tail": {"form": "affine", "offset": "1", "slope": "1"}}'
        )
    with pytest.raises(ValueError, match="unknown seed"):
        loads_spec('{"variant": "dense_atoms", "count": 3, "seed": [1]}')


@given(
    st.lists(
        st.tuples(st.integers(1, 40), st.integers(1, 24)).map(lambda t: F(t[0], t[1])),
        min_size=1,
        max_size=6,
    )
)
def test_json_round_trip_random_finite(gens):
    spec = FiniteGenerators(gens)
    assert loads_spec(dumps_spec(spec)) == spec


def test_spec_dict_shapes():
    d = spec_to_dict(PrimeReciprocalShift(None))
    assert d == {"variant": "prime_reciprocal_shift", "prime_bound": "all"}
    d = spec_to_dict(IncreasingSequence(AffineTail(2, 3)))
    assert d["tail"] == {"form": "affine", "offset": "2", "slope": "3"}
    assert d["limit"] is None and d["bounded"] is False


def test_prime_reciprocal_solutions_reach_deep_primes():
    # 1009 divides the denominator, so the walk reaches it although it lies
    # far above x: 2 + (1 + 1/2) + (1 + 1/1009) must still be found
    x = F(2) + F(1, 2) + F(1, 1009)
    sols = list(prime_reciprocal_solutions(x, None))
    assert ((F(3, 2), 1), (F(1010, 1009), 1)) in sols


def test_primes_upto_matches_a_sieve_quickly():
    n = 200_000
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, n + 1, p)))
    start = time.perf_counter()
    primes = primes_upto(n)
    assert time.perf_counter() - start < 2
    assert primes == [p for p in range(n + 1) if sieve[p]]


def test_prime_reciprocal_membership_matches_enumeration():
    spec = PrimeReciprocalShift(7)
    enum = enumerate_monoid(spec, 5, 10)
    assert enum.complete
    elements = set(enum.elements)
    lattice = 420
    for j in range(0, 5 * lattice + 1, 7):  # stride keeps the sweep quick
        x = F(j, lattice)
        want = Membership.IN if x in elements else Membership.OUT
        assert spec_member(spec, x).status == want, x


def test_prime_reciprocal_all_agrees_with_wide_truncation():
    spec_all = PrimeReciprocalShift(None)
    enum = enumerate_monoid(PrimeReciprocalShift(97), 2, 26)
    for x in enum.elements:
        assert spec_member(spec_all, x).status == Membership.IN, x
    # deeper two- and three-part elements
    for x in [2 + F(1, 3) + F(1, 5), 2 + F(1, 2) + F(1, 97), 3 + F(1, 2) + F(1, 3) + F(1, 89)]:
        assert spec_member(spec_all, x).status == Membership.IN, x
    for x in [F(9, 4), F(11, 10), F(13, 6), F(5, 4)]:
        assert spec_member(spec_all, x).status == Membership.OUT, x


def test_dense_atoms_membership_paths():
    from puiseux.sequences import dense_atom_entries

    spec = DenseAtoms(200)
    entries = dense_atom_entries(5)
    for a, b in [(0, 1), (1, 2), (3, 4), (2, 2)]:
        x = entries[a].atom + entries[b].atom
        assert spec_member(spec, x).status == Membership.IN, x
    assert spec_member(spec, F(1, 8)).status == Membership.OUT  # 2^3 beyond its cap
    assert spec_member(spec, F(1, 121)).status == Membership.OUT  # 11^2 beyond its cap


def _public_entry_points():
    from puiseux import families
    from puiseux.closures import conductor, difference_group, fg_lattice_step, gp_density, root_closure
    from puiseux.density import classify_density, eventual_window_check, probe_density, right_isolation
    from puiseux.factorizations import atoms, factorizations, length_set
    from puiseux.oracle import enumerate_monoid, lattice_enumeration

    return {
        "generator_count": families.generator_count,
        "generator_stream": lambda s: families.generator_stream(s, 3),
        "is_finitely_generated": families.is_finitely_generated,
        "canonical_fg": families.canonical_fg,
        "omitted_generators_exceed": lambda s: families.omitted_generators_exceed(s, 1, 1),
        "depth_for_complete": lambda s: families.depth_for_complete(s, 1),
        "spec_member": lambda s: families.spec_member(s, 1),
        "spec_to_dict": families.spec_to_dict,
        "dumps_spec": families.dumps_spec,
        "difference_group": difference_group,
        "root_closure": root_closure,
        "fg_lattice_step": fg_lattice_step,
        "gp_density": gp_density,
        "conductor": conductor,
        "classify_density": classify_density,
        "probe_density": lambda s: probe_density(s, 0, 1, F(1, 2)),
        "eventual_window_check": lambda s: eventual_window_check(s, 1, 2, 2, F(1, 2)),
        "right_isolation": lambda s: right_isolation(s, 1),
        "atoms": atoms,
        "factorizations": lambda s: factorizations(s, 1),
        "length_set": lambda s: length_set(s, 1),
        "enumerate_monoid": lambda s: enumerate_monoid(s, 1, 2),
        "lattice_enumeration": lambda s: lattice_enumeration(s, 1, 2),
    }


@pytest.mark.parametrize("entry", sorted(_public_entry_points()))
def test_non_spec_raises_type_error(entry):
    # a tail law, a string and None are not monoid descriptions
    call = _public_entry_points()[entry]
    for not_a_spec in ("x", None, HarmonicTail(2, 1)):
        with pytest.raises(TypeError, match="not a monoid description"):
            call(not_a_spec)
