from fractions import Fraction

import pytest

from gradedtensor.polynomial import Poly, parse_rational


def test_construction_strips_trailing_zeros():
    assert Poly((1, 2, 0, 0)).coeffs == (1, 2)
    assert Poly(()).coeffs == ()
    assert not Poly((0, 0))
    assert Poly((0, 0)) == 0


def test_rejects_floats():
    with pytest.raises(TypeError):
        Poly((0.5,))


def test_ring_operations():
    x = Poly.x()
    p = (x + 1) * (x - 1)
    assert p == x * x - 1
    assert p - p == Poly()
    assert (x + 2) ** 3 == x**3 + 6 * x**2 + 12 * x + 8
    assert (-p).coeffs == (1, 0, -1)


def test_evaluation_and_composition():
    p = Poly((Fraction(1, 2), 0, 1))  # 1/2 + x^2
    assert p(2) == Fraction(9, 2)
    assert p(Poly((0, -1))) == p  # even polynomial
    q = Poly((0, 1, 1))
    assert q.reflected() == Poly((0, -1, 1))
    assert q.reflected()(3) == q(-3)


def test_formatting():
    assert Poly().format() == "0"
    assert Poly((Fraction(-3, 2), 0, 1)).format() == "N^2 - 3/2"
    assert Poly((0, 1)).format("z") == "z"
    assert Poly((2, -1)).format() == "-N + 2"


def test_coeff_map_round_trip():
    p = Poly((Fraction(1, 3), 0, Fraction(-2)))
    assert p.to_coeff_map() == {"0": "1/3", "2": "-2"}
    assert Poly.from_coeff_map(p.to_coeff_map()) == p
    assert Poly.from_coeff_map({}) == Poly()


@pytest.mark.parametrize("coeffs", [{"0": "1", "-1": "5"}, {"-1": "5"}])
def test_coeff_map_rejects_negative_exponents(coeffs):
    with pytest.raises(ValueError, match="negative exponent -1"):
        Poly.from_coeff_map(coeffs)


def test_parse_rational():
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("7") == 7


def test_degree_and_constants():
    assert Poly().degree == -1
    assert Poly.const(5).degree == 0
    assert Poly.monomial(3).degree == 3
    assert Poly.const(Fraction(2, 3)).constant_value() == Fraction(2, 3)
    with pytest.raises(ValueError):
        Poly((1, 2)).constant_value()
