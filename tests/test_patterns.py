"""Finite-difference fits: polynomials in n, their values and ratio limits."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ulrich_forge import PolyRing
from ulrich_forge.patterns import FIT_MIN_TAIL, fit_polynomial, format_ratio, ratio_limit, value_at
from ulrich_forge.sequences import analyze, parse_family_spec

RING_N = PolyRing(("n",))


def fit(rule, start, count=8):
    return fit_polynomial([rule(n) for n in range(start, start + count)], start_index=start)


TRIANGLE = fit(lambda n: n * (n - 1) // 2, 1)
FALLING = fit(lambda n: 3 - n * n, 1)
TETRA = fit(lambda n: (n ** 3 - n) // 6, -2)
ODD = fit(lambda n: 2 * n + 1, 1)


class TestFitPolynomial:
    def test_polynomials_in_n(self):
        assert all(p.ring == RING_N for p in (TRIANGLE, FALLING, TETRA, ODD))

    @pytest.mark.parametrize("poly, text", [
        (TRIANGLE, "1/2*n^2 - 1/2*n"),
        (FALLING, "-n^2 + 3"),
        (TETRA, "1/6*n^3 - 1/6*n"),
        (ODD, "2*n + 1"),
    ])
    def test_prints_negative_and_fractional_coefficients(self, poly, text):
        assert str(poly) == text

    def test_format_ratio(self):
        assert format_ratio(TRIANGLE, FALLING) == "(1/2*n^2 - 1/2*n)/(-n^2 + 3)"
        assert format_ratio(TETRA, ODD) == "(1/6*n^3 - 1/6*n)/(2*n + 1)"
        assert format_ratio(FALLING, fit(lambda n: 1, 1)) == "-n^2 + 3"
        assert format_ratio(ODD, fit(lambda n: n, 1)) == "(2*n + 1)/n"
        assert format_ratio(fit(lambda n: 0, 1), fit(lambda n: n * n, 1)) == "0/n^2"

    def test_ratio_limit(self):
        assert ratio_limit(TRIANGLE, FALLING) == Fraction(-1, 2)
        assert ratio_limit(ODD, TETRA) == 0
        assert ratio_limit(TETRA, ODD) is None
        with pytest.raises(ZeroDivisionError):
            ratio_limit(ODD, fit(lambda n: 0, 1))

    def test_limits_are_exact_rationals(self):
        third = ratio_limit(fit(lambda n: n, 1), fit(lambda n: 3 * n, 1))
        assert type(third) is Fraction and third == Fraction(1, 3)
        assert ratio_limit(ODD, fit(lambda n: 2 * n, 1)) == 1

    @pytest.mark.parametrize("spec", [
        "freeplus ideal=(x,y) growth=n",
        "freeplus ideal=(x^2,y) growth=2*n",
        "powers ideal=(x, y^n)",
    ])
    def test_analyze_computes_no_float_limit(self, spec):
        table = analyze(parse_family_spec(spec, PolyRing(("x", "y")), (1, 7)))
        assert table.exact and table.limits
        for value in table.limits.values():
            assert type(value) is int or (type(value) is Fraction and value.denominator != 1)

    def test_no_fit_for_an_exponential(self):
        assert fit_polynomial([2 ** n for n in range(1, 9)]) is None

    def test_no_fit_below_the_least_tail(self):
        assert fit_polynomial([5] * (FIT_MIN_TAIL - 1)) is None
        assert str(fit_polynomial([5] * FIT_MIN_TAIL)) == "5"


@given(st.lists(st.integers(-20, 20), min_size=1, max_size=5),
       st.integers(-6, 6), st.integers(0, 3))
def test_recovers_integer_valued_polynomials(coeffs, start, extra):
    # sum of c_j * C(n, j): every integer-valued polynomial of degree <= 4
    def rule(n):
        return sum(c * math.prod(range(n - j + 1, n + 1)) // math.factorial(j)
                   for j, c in enumerate(coeffs))

    n = RING_N.var("n")
    expected = RING_N.zero()
    for j, c in enumerate(coeffs):
        falling = RING_N.one()
        for i in range(j):
            falling = falling * (n - RING_N.const(i))
        expected = expected + falling.scale(Fraction(c, math.factorial(j)))
    count = len(coeffs) - 1 + FIT_MIN_TAIL + extra
    fitted = fit(rule, start, count)
    assert fitted == expected
    assert all(value_at(fitted, k) == rule(k) for k in range(-20, 20))
