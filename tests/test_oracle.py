import random
from fractions import Fraction as F

import pytest

from puiseux.errors import BudgetError
from puiseux.families import (
    CantorShift,
    DenseAtoms,
    FiniteGenerators,
    Geometric,
    HarmonicTail,
    IncreasingSequence,
    PrimeReciprocalShift,
    UnitFractionPowers,
)
from puiseux.oracle import (
    enumerate_monoid,
    lattice_enumeration,
    naive_atoms,
    naive_factorization_parts,
)


def test_enumerate_finite_complete():
    e = enumerate_monoid(FiniteGenerators([2, 3]), 10, 5)
    assert e.elements == tuple(F(x) for x in [0, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    assert e.complete


def test_enumerate_contains_zero():
    for spec in [FiniteGenerators([5]), UnitFractionPowers(3), Geometric(F(5, 2))]:
        assert F(0) in enumerate_monoid(spec, 2, 4).elements


def test_enumerate_unit_fraction_truncation():
    e = enumerate_monoid(UnitFractionPowers(2), 1, 3)
    # depth 3 gives multiples of 1/8 inside [0, 1], with 1/16 omitted
    assert e.elements == tuple(F(j, 8) for j in range(9))
    assert not e.complete
    assert e.truncation.generator_count == 3


def test_enumerate_increasing_complete_below_limit():
    spec = IncreasingSequence(HarmonicTail(2, F(1, 2)))
    e = enumerate_monoid(spec, F(15, 8), 10)
    assert e.complete
    assert e.elements[0] == 0 and e.elements[1] == F(3, 2)
    e2 = enumerate_monoid(spec, 3, 10)
    assert not e2.complete  # limit 2 <= 3: infinitely many generators below the bound


def test_lattice_and_set_paths_agree():
    rng = random.Random(3)
    for _ in range(20):
        gens = [F(rng.randint(1, 9), rng.randint(1, 6)) for _ in range(rng.randint(1, 3))]
        spec = FiniteGenerators(gens)
        lat = lattice_enumeration(spec, 5, 8)
        assert lat is not None
        slow = set()
        stack = {F(0)}
        for g in spec.generators:
            new = set(stack)
            for e in stack:
                v = e + g
                while v <= 5:
                    new.add(v)
                    v += g
            stack = new
        slow = tuple(sorted(stack))
        assert lat.elements() == slow


def test_enumeration_deterministic_under_generator_order():
    a = enumerate_monoid(FiniteGenerators([F(3, 2), F(5, 3), F(7, 4)]), 6, 5)
    b = enumerate_monoid(FiniteGenerators([F(7, 4), F(3, 2), F(5, 3)]), 6, 5)
    assert a.elements == b.elements


def test_naive_atoms_examples():
    assert naive_atoms(enumerate_monoid(FiniteGenerators([2, 3]), 10, 5)) == (2, 3)
    e = enumerate_monoid(FiniteGenerators([F(1, 2), F(1, 3)]), 2, 5)
    assert naive_atoms(e) == (F(1, 3), F(1, 2))
    e = enumerate_monoid(CantorShift(1), 3, 10)
    assert naive_atoms(e) == (F(1), F(4, 3), F(5, 3))  # 2 = 1 + 1 decomposes


def test_naive_atoms_requires_complete():
    e = enumerate_monoid(UnitFractionPowers(2), 1, 3)
    with pytest.raises(ValueError, match="complete"):
        naive_atoms(e)


def test_naive_atoms_within_generators():
    rng = random.Random(11)
    for _ in range(25):
        gens = {F(rng.randint(1, 12), rng.randint(1, 6)) for _ in range(rng.randint(1, 4))}
        spec = FiniteGenerators(gens)
        e = enumerate_monoid(spec, max(gens) * 2, len(spec.generators))
        assert set(naive_atoms(e)) <= set(spec.generators)


def test_naive_factorizations():
    parts = naive_factorization_parts([F(2), F(3)], 6)
    assert parts == (((F(2), 3),), ((F(3), 2),))
    assert naive_factorization_parts([F(2), F(3)], 0) == ((),)
    assert naive_factorization_parts([F(2), F(3)], 1) == ()


def test_element_cap():
    with pytest.raises(BudgetError):
        enumerate_monoid(UnitFractionPowers(2), 100, 14, element_cap=1000)


def test_element_cap_checked_inside_the_sweep():
    # the set route (the lattice would need over 50M bits) stops at the first element past the cap
    assert lattice_enumeration(DenseAtoms(200), 5, 30) is None
    with pytest.raises(BudgetError) as info:
        enumerate_monoid(DenseAtoms(200), 5, 30, element_cap=1000)
    assert info.value.detail["elements"] == 1001 and info.value.detail["cap"] == 1000
    full = enumerate_monoid(DenseAtoms(20), 2, 8)
    n = len(full.elements)
    assert enumerate_monoid(DenseAtoms(20), 2, 8, element_cap=n) == full
    with pytest.raises(BudgetError) as info:
        enumerate_monoid(DenseAtoms(20), 2, 8, element_cap=n - 1)
    assert info.value.detail["elements"] == n


def test_prime_reciprocal_slow_path():
    # primorial-scale lcm forces the set-based path; small bound keeps it tiny
    e = enumerate_monoid(PrimeReciprocalShift(100), F(3, 2), 26)
    assert e.complete
    assert e.elements[0] == 0 and e.elements[1] == 1
    assert e.elements[2] == 1 + F(1, 97)
