import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from puiseux.rationals import format_rational, parse_rational


def test_parse_rational_accepts_canonical_forms():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("10") == Fraction(10)
    assert parse_rational("0") == 0
    assert parse_rational("4/6") == Fraction(2, 3)
    assert parse_rational("-3/2", signed=True) == Fraction(-3, 2)


@pytest.mark.parametrize("bad", ["+3/2", " 1/2", "1/2 ", "1.5", "3/-2", "03", "1/02", "a", "", "1//2", "-1/2"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_rational():
    assert format_rational(Fraction(3, 2)) == "3/2"
    assert format_rational(Fraction(4)) == "4"
    assert format_rational(Fraction(0)) == "0"
    assert format_rational(Fraction(-5, 3)) == "-5/3"


def test_arithmetic_agrees_with_cross_multiplication():
    # exactness of +, -, * against big-integer identities on 10^4 random pairs
    rng = random.Random(20260809)
    for _ in range(10_000):
        a, b = rng.randint(-10**9, 10**9), rng.randint(1, 10**9)
        c, d = rng.randint(-10**9, 10**9), rng.randint(1, 10**9)
        x, y = Fraction(a, b), Fraction(c, d)
        assert x + y == Fraction(a * d + c * b, b * d)
        assert x - y == Fraction(a * d - c * b, b * d)
        assert x * y == Fraction(a * c, b * d)
        assert x + y == y + x
        assert x * y == y * x


@given(st.integers(0, 10**12), st.integers(1, 10**12))
def test_parse_format_round_trip(num, den):
    q = Fraction(num, den)
    assert parse_rational(format_rational(q)) == q
