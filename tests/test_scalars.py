import random
from fractions import Fraction

import pytest

from orbitpoisson.scalars import (
    GaussianRational,
    as_scalar,
    format_scalar,
    parse_scalar,
)


def test_basic_arithmetic():
    i = GaussianRational(0, 1)
    assert i * i == -1
    z = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    w = GaussianRational(2, 1)
    assert (z + w) - w == z
    assert z * w / w == z
    assert z * z.conjugate() == Fraction(1, 4) + Fraction(9, 16)
    assert (1 + i) ** 2 == 2 * i


def test_division_and_reciprocal():
    z = GaussianRational(3, 4)
    assert z * z.reciprocal() == 1
    with pytest.raises(ZeroDivisionError):
        GaussianRational(0, 0).reciprocal()


def test_mixed_type_coercion():
    z = GaussianRational(1, 1)
    assert z + 1 == GaussianRational(2, 1)
    assert 2 * z == GaussianRational(2, 2)
    assert Fraction(1, 2) * z == GaussianRational(Fraction(1, 2), Fraction(1, 2))
    assert z != "1+i"


def test_parse_examples():
    assert parse_scalar("0") == 0
    assert parse_scalar("-2/5") == Fraction(-2, 5)
    assert parse_scalar("i") == GaussianRational(0, 1)
    assert parse_scalar("-i") == GaussianRational(0, -1)
    assert parse_scalar("2i") == GaussianRational(0, 2)
    assert parse_scalar("3*i") == GaussianRational(0, 3)
    assert parse_scalar("1/2+3/4*i") == GaussianRational(Fraction(1, 2), Fraction(3, 4))
    assert parse_scalar("1-i") == GaussianRational(1, -1)


@pytest.mark.parametrize("bad", ["", "1+2", "i+i", "1//2", "2+-3*i", "x"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_scalar(bad)


@pytest.mark.parametrize("bad", ["1/0", "3/0*i", "1+0/0i"])
def test_parse_zero_denominator(bad):
    with pytest.raises(ValueError, match="zero denominator"):
        parse_scalar(bad)


def test_format_round_trip_random():
    rng = random.Random(7)
    for _ in range(300):
        z = GaussianRational(
            Fraction(rng.randint(-40, 40), rng.randint(1, 23)),
            Fraction(rng.randint(-40, 40), rng.randint(1, 23)),
        )
        assert parse_scalar(format_scalar(z)) == z


def test_as_scalar_accepts_strings():
    assert as_scalar("7/3") == Fraction(7, 3)
    with pytest.raises(TypeError):
        as_scalar(1.5)
