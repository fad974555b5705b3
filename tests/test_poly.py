"""Polynomial arithmetic, monomial orders, and the text grammar."""
import random

import pytest
from hypothesis import given, strategies as st

from ulrich_forge import (
    EQ,
    GREVLEX,
    GT,
    LEXICOGRAPHIC,
    LT,
    ParseError,
    PolyRing,
    PrimeField,
    compare_monomials,
    elimination_order,
    parse_generator_list,
    parse_polynomial,
)

R = PolyRing(("x", "y"))


def p(text, ring=R):
    return parse_polynomial(text, ring)


class TestParse:
    def test_difference_of_squares(self):
        assert p("x^2 - y^2").terms == {(2, 0): 1, (0, 2): -1}

    def test_like_terms_collect(self):
        assert p("x*y + x*y").terms == {(1, 1): 2}

    def test_cancellation_gives_zero(self):
        assert p("x - x").is_zero

    def test_caret_binds_tightest(self):
        assert p("-x^2") == -p("x^2")
        assert p("(x+y)^2") == p("x^2 + 2*x*y + y^2")

    def test_integer_power_and_rational_coeff(self):
        assert p("2^3").constant_term() == 8
        assert p("1/2*x + 1/2*x") == p("x")

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError):
            p("2x")
        with pytest.raises(ParseError):
            p("x y")

    def test_unknown_variable(self):
        with pytest.raises(ParseError) as err:
            p("x + z")
        assert "z" in str(err.value)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            p("x +\n* y")
        assert err.value.line == 2

    def test_nesting_limit(self):
        assert p("y*" + "(" * 100 + "x" + ")" * 100) == p("x*y")
        with pytest.raises(ParseError) as err:
            p("y*" + "(" * 101 + "x" + ")" * 101)
        assert (err.value.line, err.value.column) == (1, 103)

    def test_list_error_columns_count_from_the_whole_input(self):
        for text, column in (("x, y + $", 8), ("  (x*y, x^2 ? y)", 13),
                             ("x," + "(" * 101 + "x" + ")" * 101, 103)):
            with pytest.raises(ParseError) as err:
                parse_generator_list(text, R)
            assert (err.value.line, err.value.column) == (1, column)
        with pytest.raises(ParseError) as err:
            parse_generator_list("x,\n  y + $", R)
        assert (err.value.line, err.value.column) == (2, 7)

    def test_nonprime_modulus_rejected(self):
        with pytest.raises(ValueError):
            PrimeField(6)

    def test_prime_field_arithmetic(self):
        ring = PolyRing(("x", "y"), PrimeField(5))
        q = parse_polynomial("3*x + 3*x", ring)
        assert q.terms == {(1, 0): 1}


class TestArithmetic:
    def test_product_difference_of_squares(self):
        assert p("x+y") * p("x-y") == p("x^2 - y^2")

    def test_mul_by_zero(self):
        assert (p("x+y") * R.zero()).is_zero

    def test_sum_cancels(self):
        assert p("x^2-y^2") + p("y^2") == p("x^2")

    def test_power(self):
        assert p("x+y") ** 3 == p("x^3 + 3*x^2*y + 3*x*y^2 + y^3")


class TestOrders:
    def test_grevlex_equal_degree_rule(self):
        assert compare_monomials((2, 0), (1, 1), GREVLEX) == GT

    def test_reflexive(self):
        assert compare_monomials((3, 4), (3, 4), GREVLEX) == EQ

    def test_lex_rule(self):
        assert compare_monomials((0, 5), (1, 0), LEXICOGRAPHIC) == LT

    def test_degree_dominates_grevlex(self):
        assert compare_monomials((1, 1), (3, 0), GREVLEX) == LT

    def test_elimination_block_dominates(self):
        order = elimination_order(1)
        # any monomial meeting the first variable beats any that does not
        assert order.compare((1, 0, 0), (0, 9, 9)) == GT


coeffs = st.integers(min_value=-9, max_value=9)
exps = st.tuples(st.integers(0, 4), st.integers(0, 4))
polys = st.dictionaries(exps, coeffs, min_size=0, max_size=5).map(
    lambda d: R.poly({k: R.field.from_int(v) for k, v in d.items()})
)
orders = st.sampled_from([GREVLEX, LEXICOGRAPHIC, elimination_order(1)])


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(exps, exps, exps, orders)
def test_order_total_and_multiplicative(u, v, w, order):
    results = {compare_monomials(u, v, order), -compare_monomials(v, u, order)}
    assert len(results) == 1  # antisymmetric, exactly one of LT/EQ/GT
    if compare_monomials(u, v, order) == LT:
        uw = tuple(a + b for a, b in zip(u, w))
        vw = tuple(a + b for a, b in zip(v, w))
        assert compare_monomials(uw, vw, order) == LT
    assert compare_monomials((0, 0), u, order) in (LT, EQ)


@given(polys)
def test_print_parse_roundtrip(a):
    assert parse_polynomial(a.to_str(), R) == a


def test_print_parse_roundtrip_bulk():
    rng = random.Random(20240817)
    for _ in range(1000):
        terms = {}
        for _ in range(rng.randrange(0, 6)):
            e = (rng.randrange(0, 7), rng.randrange(0, 7))
            c = rng.randrange(-50, 51)
            if c:
                terms[e] = R.field.from_int(c)
        q = R.poly(terms)
        assert parse_polynomial(q.to_str(), R) == q
