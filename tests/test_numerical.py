import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puiseux.numerical import NumericalMonoid, reachable_bitmask


def simple_dp_membership(gens, bound):
    """Third opinion: textbook boolean DP table."""
    table = [False] * (bound + 1)
    table[0] = True
    for x in range(1, bound + 1):
        table[x] = any(x >= g and table[x - g] for g in gens)
    return table


def test_minimal_generators():
    assert NumericalMonoid([2, 3, 4]).minimal_generators == (2, 3)
    assert NumericalMonoid([1]).minimal_generators == (1,)
    assert NumericalMonoid([6, 9, 20]).minimal_generators == (6, 9, 20)
    assert NumericalMonoid([20, 9, 6, 6]).minimal_generators == (6, 9, 20)  # order/dup-proof


def test_not_cofinite_rejected():
    with pytest.raises(ValueError, match="not cofinite"):
        NumericalMonoid([4, 6])
    with pytest.raises(ValueError):
        NumericalMonoid([])
    with pytest.raises(ValueError):
        NumericalMonoid([0, 3])


def test_apery_examples():
    assert NumericalMonoid([2, 3]).apery == (0, 3)
    assert NumericalMonoid([1]).apery == (0,)
    assert NumericalMonoid([6, 9, 20]).apery == (0, 49, 20, 9, 40, 29)


def test_apery_general_modulus():
    nm = NumericalMonoid([6, 9, 20])
    table = nm.apery_set(9)
    assert len(table) == 9 and table[0] == 0
    assert all(table[i] % 9 == i for i in range(9))
    with pytest.raises(ValueError):
        nm.apery_set(7)  # not an element


def test_frobenius_examples():
    assert NumericalMonoid([2, 3]).frobenius == 1
    assert NumericalMonoid([1]).frobenius == -1
    assert NumericalMonoid([6, 9, 20]).frobenius == 43


def test_frobenius_by_scan():
    nm = NumericalMonoid([6, 9, 20])
    top = max(nm.apery)
    non_members = [x for x in range(top + 1) if not nm.contains(x)]
    assert nm.frobenius == max(non_members)
    assert nm.gaps()[-1] == 43


def test_membership():
    nm = NumericalMonoid([6, 9, 20])
    assert not nm.contains(43)
    assert nm.contains(44)
    assert nm.contains(0)
    assert 44 in nm
    with pytest.raises(ValueError):
        nm.contains(-1)


def test_conductor():
    assert NumericalMonoid([2, 3]).conductor == 2
    assert NumericalMonoid([1]).conductor == 0
    assert NumericalMonoid([6, 9, 20]).conductor == 44


def test_gaps_of_2_3():
    assert NumericalMonoid([2, 3]).gaps() == (1,)


def test_membership_against_reachability_and_dp():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(2, 5)
        while True:
            gens = sorted(rng.sample(range(2, 120), n))
            if math.gcd(*gens) == 1:
                break
        nm = NumericalMonoid(gens)
        bound = 3 * max(gens)
        mask = reachable_bitmask(gens, bound)
        dp = simple_dp_membership(gens, bound)
        for x in range(bound + 1):
            expected = bool((mask >> x) & 1)
            assert dp[x] == expected
            assert nm.contains(x) == expected


def test_apery_entries_decompose():
    # each nonzero residue-table entry splits as generator + smaller element
    for gens in [[2, 3], [6, 9, 20], [5, 7, 9], [4, 9]]:
        nm = NumericalMonoid(gens)
        for entry in nm.apery[1:]:
            assert any(entry >= g and nm.contains(entry - g) for g in nm.minimal_generators)


def test_minimality_property():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 5)
        while True:
            gens = sorted(rng.sample(range(2, 80), n))
            if math.gcd(*gens) == 1:
                break
        nm = NumericalMonoid(gens)
        mins = nm.minimal_generators
        for g in mins:
            others = [h for h in mins if h != g]
            if not others:
                continue
            if math.gcd(*others) == 1:
                assert not NumericalMonoid(others).contains(g)
            else:
                d = math.gcd(*others)
                if g % d == 0:
                    assert not NumericalMonoid([h // d for h in others]).contains(g // d)


def test_equality_and_hash():
    assert NumericalMonoid([2, 3, 4]) == NumericalMonoid([2, 3])
    assert hash(NumericalMonoid([2, 3, 4])) == hash(NumericalMonoid([3, 2]))


def _assert_least_in_each_class(table, modulus, mask, dp):
    # table[r] is least in its class iff it is an element and table[r] - modulus
    # is not (every element of the class lies modulus-steps above the least one)
    assert len(table) == modulus and table[0] == 0
    for r, entry in enumerate(table):
        assert entry % modulus == r
        assert (mask >> entry) & 1 and dp[entry]
        below = entry - modulus
        assert below < 0 or not ((mask >> below) & 1 or dp[below])


@st.composite
def monoid_and_modulus(draw):
    gens = draw(st.lists(st.integers(2, 200), min_size=1, max_size=6, unique=True))
    extra = draw(st.integers(2, 200).filter(lambda g: math.gcd(*gens, g) == 1))
    nm = NumericalMonoid(gens + [extra])
    m = nm.multiplicity
    elements = [x for x in range(m + 1, 4 * m + nm.conductor) if nm.contains(x)]
    return nm, draw(st.sampled_from(elements))


@settings(max_examples=200, deadline=None)
@given(monoid_and_modulus())
def test_residue_tables_against_reachability_and_dp(case):
    nm, modulus = case
    gens = nm.minimal_generators
    table = nm.apery_set(modulus)
    bound = max(max(table), max(nm.apery))
    mask = reachable_bitmask(gens, bound)
    dp = simple_dp_membership(gens, bound)
    _assert_least_in_each_class(nm.apery, nm.multiplicity, mask, dp)
    _assert_least_in_each_class(table, modulus, mask, dp)


@pytest.mark.parametrize(
    "gens, seconds",
    [([10007, 10009, 20011], 0.5), ([100003, 150001, 170003], 2.0)],
)
def test_large_multiplicity_table_is_fast(gens, seconds):
    start = time.perf_counter()
    nm = NumericalMonoid(gens)
    assert time.perf_counter() - start < seconds
    assert len(nm.apery) == gens[0] and nm.apery[gens[1] % gens[0]] == gens[1]


def _oracle_minimal_generators(gens):
    # g is redundant iff g - u is a sum of generators for some nonzero sum
    # u <= g / 2 (both parts of a split are smaller than g, one at most g / 2)
    gens = sorted(set(gens))
    reach = reachable_bitmask(gens, gens[-1])
    return tuple(
        g
        for g in gens
        if not any((reach >> u) & 1 and (reach >> (g - u)) & 1 for u in range(1, g // 2 + 1))
    )


def _assert_factorization(nm, x):
    parts = nm.factorization(x)
    assert all(g in nm.minimal_generators and c >= 1 for g, c in parts)
    assert sum(g * c for g, c in parts) == x


@st.composite
def generator_sets(draw):
    gens = draw(st.lists(st.integers(1, 400), min_size=1, max_size=8, unique=True))
    extra = draw(st.integers(1, 400).filter(lambda g: math.gcd(*gens, g) == 1))
    return gens + [extra]


@settings(max_examples=200, deadline=None)
@given(generator_sets(), st.data())
def test_minimal_generators_and_factorizations_against_bitmask(gens, data):
    nm = NumericalMonoid(gens)
    assert nm.minimal_generators == _oracle_minimal_generators(gens)
    bound = nm.conductor + 3 * nm.multiplicity
    mask = reachable_bitmask(gens, bound)
    elements = [x for x in range(bound + 1) if (mask >> x) & 1]
    assert [x for x in range(bound + 1) if nm.contains(x)] == elements
    for x in data.draw(st.lists(st.sampled_from(elements), min_size=1, max_size=20)):
        _assert_factorization(nm, x)
    gap = nm.frobenius if nm.frobenius >= 0 else -1
    with pytest.raises(ValueError):
        nm.factorization(gap)


@pytest.mark.parametrize(
    "gens",
    [
        [10007, 10009, 20011, 15013],  # multiplicity above 10**4
        list(range(1000, 2200)),  # 1200 generators, 1000 of them minimal
        [1201, *range(1300, 2500)],  # 1201 generators
    ],
)
def test_large_monoids_against_bitmask(gens):
    nm = NumericalMonoid(gens)
    assert nm.minimal_generators == _oracle_minimal_generators(gens)
    mask = reachable_bitmask(gens, nm.conductor + nm.multiplicity)
    rng = random.Random(len(gens))
    elements = [x for x in rng.sample(range(mask.bit_length()), 300) if (mask >> x) & 1]
    assert elements and all(nm.contains(x) for x in elements)
    for x in elements + [nm.conductor, nm.conductor + nm.multiplicity]:
        _assert_factorization(nm, x)


@pytest.mark.parametrize(
    "gens, frobenius", [([7, 10**6 + 1], 5999999), ([2, 10**9 + 1], 999999999)]
)
def test_two_generators_far_apart_are_fast(gens, frobenius):
    # minimality comes from the residue table, not from a mask up to max(gens)
    start = time.perf_counter()
    nm = NumericalMonoid(gens)
    assert nm.frobenius == frobenius
    assert time.perf_counter() - start < 0.5
    _assert_factorization(nm, frobenius + 1)
