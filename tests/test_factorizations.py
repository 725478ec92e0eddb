import random
from fractions import Fraction as F

import pytest

from puiseux.factorizations import (
    AtomicityKind,
    Factorization,
    atoms,
    factorizations,
    length_set,
)
from puiseux.families import (
    AffineTail,
    CantorShift,
    DenseAtoms,
    FiniteGenerators,
    Geometric,
    HarmonicTail,
    IncreasingSequence,
    PrimeReciprocalShift,
    UnitFractionPowers,
    canonicalize,
)
from puiseux.oracle import enumerate_monoid, naive_atoms, naive_factorization_parts


def test_atoms_finite():
    v = atoms(FiniteGenerators([F(2, 3), F(1, 2), F(7, 6)]))
    assert v.kind == AtomicityKind.ATOMIC
    assert v.atoms_shown == (F(1, 2), F(2, 3))  # 7/6 = 1/2 + 2/3
    assert not v.truncated


def test_atoms_antimatter_and_unknown():
    assert atoms(UnitFractionPowers(2)).kind == AtomicityKind.ANTIMATTER
    assert atoms(Geometric(F(1, 3))).kind == AtomicityKind.ANTIMATTER
    assert atoms(Geometric(F(2, 3))).kind == AtomicityKind.UNKNOWN


def test_atoms_prime_reciprocal():
    v = atoms(PrimeReciprocalShift(None), limit=4)
    assert v.kind == AtomicityKind.ATOMIC
    assert v.atoms_shown == (F(1), F(3, 2), F(4, 3), F(6, 5))
    assert v.truncated
    v = atoms(PrimeReciprocalShift(100), limit=64)
    assert not v.truncated and len(v.atoms_shown) == 26  # 1 plus the 25 primes below 100


def test_atoms_increasing_and_geometric():
    v = atoms(Geometric(F(3, 2)), limit=5)
    assert v.atoms_shown == (F(1), F(3, 2), F(9, 4), F(27, 8), F(81, 16))
    v = atoms(Geometric(4))
    assert v.atoms_shown == (F(1),) and not v.truncated
    v = atoms(IncreasingSequence(HarmonicTail(2, F(1, 2))), limit=5)
    assert v.kind == AtomicityKind.ATOMIC
    assert v.atoms_shown == (F(3, 2), F(7, 4), F(11, 6), F(15, 8), F(19, 10))
    v = atoms(IncreasingSequence(AffineTail(2, 3)))
    assert v.atoms_shown == (F(5), F(8), F(11), F(14), F(17)) and not v.truncated


def test_atoms_cantor():
    v = atoms(CantorShift(1), limit=16)
    assert v.atoms_shown == (F(1), F(4, 3), F(5, 3))  # 2 = 1 + 1 decomposes
    assert not v.truncated
    v = atoms(CantorShift(6), limit=127)
    assert len(v.atoms_shown) == 127 and not v.truncated  # 2**7 generators, 2 is not an atom
    assert atoms(CantorShift(6), limit=126).truncated


def test_atoms_dense_family():
    v = atoms(DenseAtoms(10), limit=5)
    assert v.kind == AtomicityKind.ATOMIC and len(v.atoms_shown) == 5 and v.truncated


def test_increasing_filter_matches_brute_force():
    for spec, bound in [
        (CantorShift(2), 3),
        (CantorShift(6), 2),
        (IncreasingSequence(AffineTail(F(1, 2), F(1, 2))), 4),
        (PrimeReciprocalShift(30), 2),
    ]:
        enum = enumerate_monoid(spec, bound, 128)
        assert enum.complete
        brute = set(naive_atoms(enum))
        fast = {a for a in atoms(spec, limit=128).atoms_shown if a <= bound}
        assert fast == brute, spec


def test_factorizations_examples():
    fs = factorizations(FiniteGenerators([2, 3]), 6)
    assert fs.complete and len(fs.items) == 2
    assert {f.length for f in fs.items} == {2, 3}
    fs = factorizations(FiniteGenerators([2, 3]), 0)
    assert fs.items == (Factorization(()),) and fs.items[0].length == 0
    fs = factorizations(FiniteGenerators([F(1, 2), F(1, 3)]), F(5, 6))
    assert [f.parts for f in fs.items] == [((F(1, 2), 1), (F(1, 3), 1))]


def test_length_sets():
    assert length_set(FiniteGenerators([2, 3]), 12).lengths == (4, 5, 6)
    assert length_set(FiniteGenerators([2, 3]), 0).lengths == (0,)
    assert length_set(FiniteGenerators([2, 3]), 1).lengths == ()


def test_factorization_errors():
    with pytest.raises(ValueError, match="no atoms"):
        factorizations(UnitFractionPowers(2), F(1, 2))
    with pytest.raises(ValueError, match="unknown"):
        factorizations(Geometric(F(2, 3)), 1)
    with pytest.raises(ValueError, match="atoms below"):
        factorizations(DenseAtoms(10), 2)
    assert factorizations(DenseAtoms(10), 0).complete  # identity is still factorizable


def test_every_factorization_reevaluates_exactly():
    rng = random.Random(31)
    for _ in range(20):
        gens = [F(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(rng.randint(2, 4))]
        spec = FiniteGenerators(gens)
        cf = canonicalize(gens)
        for i in range(0, 30, 3):
            x = cf.scale * i
            fs = factorizations(spec, x)
            assert fs.complete
            for f in fs.items:
                assert f.value == x
                assert sum(m for _, m in f.parts) == f.length


def test_length_bounds_invariant():
    rng = random.Random(41)
    for _ in range(15):
        gens = [F(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(rng.randint(2, 4))]
        spec = FiniteGenerators(gens)
        amin = min(atoms(spec).atoms_shown)
        amax = max(atoms(spec).atoms_shown)
        for x in [F(3), F(7, 2), F(5)]:
            for f in factorizations(spec, x).items:
                assert f.length <= x / amin
                assert f.length >= x / amax


def test_oracle_equivalence_small():
    rng = random.Random(53)
    for _ in range(25):
        gens = [F(rng.randint(1, 8), rng.randint(1, 5)) for _ in range(rng.randint(2, 3))]
        spec = FiniteGenerators(gens)
        cf = canonicalize(gens)
        atom_list = list(atoms(spec).atoms_shown)
        for i in range(0, 40, 5):
            x = cf.scale * i
            fast = {f.parts for f in factorizations(spec, x).items}
            slow = set(naive_factorization_parts(atom_list, x))
            assert fast == slow, (gens, x)


def test_cantor_factorizations_match_oracle():
    spec = CantorShift(6)
    fs = factorizations(spec, 3)
    assert fs.complete
    atom_list = atoms(spec, limit=128).atoms_shown
    assert {f.parts for f in fs.items} == set(naive_factorization_parts(atom_list, 3))


def test_factorizations_long_atom_list_does_not_recurse():
    # 1000 atoms (1000..1999): the enumeration walks one level per atom
    fs = factorizations(FiniteGenerators(range(1000, 2200)), 2999)
    assert fs.complete or fs.note == "node budget exhausted"
    assert all(f.value == 2999 for f in fs.items)


def test_prime_reciprocal_factorizations_complete():
    fs = factorizations(PrimeReciprocalShift(None), 4)
    assert fs.complete
    parts = {f.parts for f in fs.items}
    assert ((F(1), 4),) in parts  # four ones
    assert ((F(4, 3), 3),) in parts  # 3 * (1 + 1/3)
    assert ((F(3, 2), 2), (F(1), 1)) in parts  # 2 * (1 + 1/2) + 1
    assert all(f.value == 4 for f in fs.items)
    fs = factorizations(PrimeReciprocalShift(3), 4)
    assert {f.parts for f in fs.items} == parts  # only primes 2 and 3 appear anyway
    fs2 = factorizations(PrimeReciprocalShift(None), F(5, 2))
    assert fs2.complete and [f.parts for f in fs2.items] == [((F(3, 2), 1), (F(1), 1))]


def test_partial_results_are_flagged():
    inc = IncreasingSequence(HarmonicTail(2, F(1, 2)))
    fs = factorizations(inc, F(7, 2), budget=100_000)
    assert not fs.complete  # atoms accumulate below the limit 2 <= 7/2
    assert fs.note is not None
    found = {f.parts for f in fs.items}
    assert ((F(7, 4), 2),) in found  # 7/4 + 7/4 = 7/2 survives in the partial answer


def test_bounded_increasing_below_limit_is_complete():
    inc = IncreasingSequence(HarmonicTail(2, F(1, 2)))
    fs = factorizations(inc, F(15, 8))
    assert fs.complete and [f.parts for f in fs.items] == [((F(15, 8), 1),)]
