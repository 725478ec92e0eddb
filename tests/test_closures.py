import random
from fractions import Fraction as F

import pytest

from puiseux.closures import (
    ConductorKind,
    CyclicScaled,
    GpDensity,
    LocalizedScaled,
    UnknownGroup,
    conductor,
    difference_group,
    fg_lattice_step,
    gp_density,
    root_closure,
)
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
    canonicalize,
    spec_member,
)
from puiseux.oracle import enumerate_monoid, lattice_enumeration


def test_difference_group_examples():
    g = difference_group(FiniteGenerators([F(1, 2), F(1, 3)]))
    assert g == CyclicScaled(F(1, 6))  # cross-check: 1/6 = 1/2 - 1/3
    g = difference_group(Geometric(F(2, 3)))
    assert isinstance(g, LocalizedScaled)
    assert g.unit == 1 and g.exponent_cap(3) is None and g.exponent_cap(2) == 0
    assert difference_group(FiniteGenerators([2])) == CyclicScaled(F(2))


def test_difference_group_families():
    g = difference_group(UnitFractionPowers(12))
    assert g.exponent_cap(2) is None and g.exponent_cap(3) is None and g.exponent_cap(5) == 0
    g = difference_group(PrimeReciprocalShift(None))
    assert g.exponent_cap(2) == 1 and g.exponent_cap(101) == 1
    g = difference_group(PrimeReciprocalShift(10))
    assert g.exponent_cap(7) == 1 and g.exponent_cap(11) == 0
    g = difference_group(CantorShift(5))
    assert g.exponent_cap(3) == 5 and g.exponent_cap(2) == 0
    g = difference_group(DenseAtoms(20))
    assert g.unit == 1 and g.exponent_cap(2) == 2 and g.exponent_cap(11) == 1
    g = difference_group(IncreasingSequence(AffineTail(2, 3)))
    assert g == CyclicScaled(F(1))  # gcd(5, 3) = 1
    g = difference_group(IncreasingSequence(AffineTail(F(5, 2), F(5, 2))))
    assert g == CyclicScaled(F(5, 2))
    g = difference_group(IncreasingSequence(HarmonicTail(2, F(1, 2))))
    assert isinstance(g, LocalizedScaled) and g.default_exponent is None and g.unit == 1
    g = difference_group(IncreasingSequence(PrimeHarmonicTail(2, 1)))
    assert isinstance(g, LocalizedScaled) and g.default_exponent == 1
    g = difference_group(IncreasingSequence(PrimeHarmonicTail(F(5, 2), F(1, 2))))
    assert isinstance(g, UnknownGroup)  # non-integer parameters


def test_gp_symmetry_on_samples():
    rng = random.Random(13)
    for spec in [
        FiniteGenerators([F(2, 3), F(3, 5)]),
        Geometric(F(2, 3)),
        UnitFractionPowers(6),
        PrimeReciprocalShift(None),
    ]:
        group = difference_group(spec)
        from puiseux.families import generator_stream

        gens = generator_stream(spec, 6)
        for _ in range(40):
            x = sum(rng.choice(gens) for _ in range(rng.randint(1, 4)))
            y = sum(rng.choice(gens) for _ in range(rng.randint(1, 4)))
            assert group.member(x - y)


def test_closure_examples():
    clo = root_closure(FiniteGenerators([F(1, 2), F(1, 3)]))
    assert clo.member(F(5, 6)) and clo.member(F(1, 6)) and not clo.member(F(1, 4))
    assert not clo.member(F(-1, 6))
    clo = root_closure(Geometric(F(2, 3)))
    assert clo.generators(4) == (F(1), F(1, 3), F(1, 9), F(1, 27))
    clo = root_closure(UnitFractionPowers(2))
    # root-closed: closure membership coincides with monoid membership
    for j in range(1, 257):
        x = F(j, 256)
        assert clo.member(x) == (spec_member(UnitFractionPowers(2), x).status == Membership.IN)


def test_monoid_inside_closure():
    specs = [
        FiniteGenerators([F(3, 4), F(5, 6)]),
        Geometric(F(2, 3)),
        Geometric(F(7, 4)),
        UnitFractionPowers(10),
        PrimeReciprocalShift(None),
        PrimeReciprocalShift(40),
        CantorShift(3),
        IncreasingSequence(HarmonicTail(2, F(1, 2))),
        IncreasingSequence(PrimeHarmonicTail(2, 1)),
        IncreasingSequence(AffineTail(F(1, 2), F(3, 2))),
        DenseAtoms(30),
    ]
    from puiseux.families import generator_stream

    for spec in specs:
        clo = root_closure(spec)
        for g in generator_stream(spec, 12):
            assert clo.member(g), (spec, g)
        # sums stay inside as well
        gens = generator_stream(spec, 5)
        assert clo.member(sum(gens))


def test_closure_soundness_multiples_land_in_monoid():
    # every closure element with denominator <= 64 has a multiple k <= 256 in M
    rng = random.Random(7)
    for _ in range(20):
        gens = [F(rng.randint(1, 12), rng.randint(1, 8)) for _ in range(rng.randint(2, 4))]
        spec = FiniteGenerators(gens)
        cf = canonicalize(gens)
        clo = root_closure(spec)
        assert isinstance(clo.group, CyclicScaled)
        step = clo.group.step
        j = 1
        checked = 0
        while step * j <= 2 and checked < 12:
            x = step * j
            j += 1
            if x.denominator > 64:
                continue
            checked += 1
            assert clo.member(x)
            found = None
            for k in range(1, 257):
                if cf.member(k * x):
                    found = k
                    break
            assert found is not None, (gens, x)


def test_closure_idempotence_on_grid():
    # applying the closure construction to the closure changes nothing:
    # the closure of q*N0 (as a finite-generator monoid) is q*Z cap Q>=0
    for gens in [[F(1, 2), F(1, 3)], [F(2, 5), F(3, 7)], [2, 3]]:
        clo = root_closure(FiniteGenerators(gens))
        step = clo.group.step
        again = root_closure(FiniteGenerators([step]))
        x = F(0)
        while x <= 3:
            assert clo.member(x) == again.member(x)
            x += step / 2


def test_element_below():
    assert root_closure(FiniteGenerators([2, 3])).element_below(F(1, 2)) is None
    e = root_closure(Geometric(F(2, 3))).element_below(F(1, 10**6))
    assert e is not None and 0 < e < F(1, 10**6)
    e = root_closure(CantorShift(3)).element_below(F(1, 10**6))
    assert e is None  # largest allowed denominator is 27


def test_gp_density_verdicts():
    v = gp_density(FiniteGenerators([2, 3]))
    assert v.kind == GpDensity.NOWHERE_DENSE_FG and v.lattice_step == 1
    v = gp_density(FiniteGenerators([F(1, 2), F(1, 3)]))
    assert v.lattice_step == F(1, 6)
    v = gp_density(Geometric(F(2, 3)))
    assert v.kind == GpDensity.GROUP_DENSE_CLOSURE_DENSE
    assert v.witness and v.witness[-1] < F(1, 10**6)
    v = gp_density(UnitFractionPowers(2))
    assert v.witness[-1] < F(1, 10**6)
    v = gp_density(PrimeReciprocalShift(50))
    assert v.kind == GpDensity.NOWHERE_DENSE_FG and v.lattice_step is not None


def test_fg_lattice_step_gap_is_exact():
    # consecutive closure elements of an FG monoid differ by exactly the step
    for spec in [FiniteGenerators([F(2, 3), F(3, 4)]), CantorShift(2), PrimeReciprocalShift(20)]:
        step = fg_lattice_step(spec)
        clo = root_closure(spec)
        if isinstance(clo.group, CyclicScaled):
            assert clo.group.step == step
        assert clo.member(step) and clo.member(2 * step)
        assert not clo.member(step / 2)


def _largest_gap_with_unit_generator(spec):
    """Largest lattice point outside the monoid, from complete enumerations.

    1 is a generator, so once one unit of consecutive lattice points lies
    in the monoid, every later lattice point does too.
    """
    bound = F(4)
    while True:
        lat = lattice_enumeration(spec, bound, 64)
        assert lat.complete
        top = int(bound * lat.denominator)
        holes = [i for i in range(top + 1) if not lat.mask >> i & 1]
        if top - holes[-1] >= lat.denominator:
            return F(holes[-1], lat.denominator)
        bound *= 2


def test_conductor_rules():
    r = conductor(FiniteGenerators([6, 9, 20]))
    assert r.kind == ConductorKind.TAIL and r.sigma == 43 and r.min_element == 44
    assert conductor(UnitFractionPowers(2)).kind == ConductorKind.EQUALS_M
    assert conductor(Geometric(F(1, 2))).kind == ConductorKind.EQUALS_M
    assert conductor(Geometric(5)).kind == ConductorKind.EQUALS_M
    assert conductor(FiniteGenerators([1])).kind == ConductorKind.EQUALS_M
    assert conductor(Geometric(F(3, 2))).kind == ConductorKind.EMPTY
    assert conductor(Geometric(F(2, 3))).kind == ConductorKind.UNKNOWN
    assert conductor(PrimeReciprocalShift(None)).kind == ConductorKind.EMPTY
    assert conductor(PrimeReciprocalShift(100)).kind == ConductorKind.UNKNOWN
    for p in (2, 3, 5, 7):
        r = conductor(PrimeReciprocalShift(p))
        assert r.kind == ConductorKind.TAIL and r.sigma == _largest_gap_with_unit_generator(
            PrimeReciprocalShift(p)
        ), p
    assert conductor(DenseAtoms(10)).kind == ConductorKind.UNKNOWN
    inc = IncreasingSequence(HarmonicTail(2, F(1, 2)), prefix=[F(3, 2), F(5, 3), F(7, 4)])
    assert conductor(inc).kind == ConductorKind.EMPTY
    r = conductor(IncreasingSequence(AffineTail(2, 3)))
    assert r.kind == ConductorKind.TAIL and r.sigma == 12 and r.min_element == 13


def test_conductor_tail_soundness_and_sharpness():
    rng = random.Random(19)
    for gens in [[6, 9, 20], [F(1, 2), F(1, 3)], [F(3, 4), F(5, 6)]]:
        spec = FiniteGenerators(gens)
        r = conductor(spec)
        assert r.kind == ConductorKind.TAIL
        cf = canonicalize(gens)
        clo = root_closure(spec)
        step = clo.group.step
        # soundness: x in M with x >= sigma keeps x + closure inside M
        for _ in range(25):
            n = cf.nm.frobenius + rng.randint(1, 30)
            x = cf.scale * n
            if not cf.member(x):
                continue
            assert x >= r.sigma
            m_tilde = step * rng.randint(0, 40)
            assert cf.member(x + m_tilde)
        # sharpness: any group element below sigma fails for some closure shift
        for _ in range(10):
            y = r.sigma - step * rng.randint(0, 20)
            witness = r.sigma - y  # y + witness = sigma, which is never in M
            assert clo.member(witness)
            assert not cf.member(y + witness)


def test_conductor_min_is_least_tail_element():
    for gens in [[6, 9, 20], [2, 3], [F(1, 2), F(1, 3)]]:
        r = conductor(FiniteGenerators(gens))
        cf = canonicalize(gens)
        assert cf.member(r.min_element)
        assert not cf.member(r.sigma)  # sigma itself is the largest gap, scaled
        # nothing in M between sigma and min_element
        assert r.min_element == r.sigma + cf.scale


def test_closure_soundness_against_enumeration_oracle():
    # closure elements of small FG monoids have small multiples inside the
    # enumerated monoid itself, not just the canonical form
    for gens in [[F(2, 3), F(1, 2)], [F(3, 5), F(4, 5), 2]]:
        spec = FiniteGenerators(gens)
        clo = root_closure(spec)
        step = clo.group.step
        enum = enumerate_monoid(spec, 40, 5)
        elements = set(enum.elements)
        for j in range(1, 9):
            x = step * j
            assert any(k * x in elements for k in range(1, 257)), (gens, x)


def test_unknown_closure_paths():
    bad = IncreasingSequence(PrimeHarmonicTail(F(5, 2), F(1, 2)))
    clo = root_closure(bad)
    assert not clo.known
    with pytest.raises(ValueError, match="unknown"):
        clo.member(F(1, 2))
    r = gp_density(bad)
    assert r.kind == GpDensity.GROUP_DENSE_CLOSURE_DENSE and r.witness == ()
