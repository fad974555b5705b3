"""Groebner engine: bases, normal forms, ideal arithmetic, colength, dimension."""
import itertools
import random

import pytest

from ulrich_forge import (
    GREVLEX,
    Ideal,
    PolyRing,
    ideal_multiplicity,
    parse_generator_list,
    parse_polynomial,
)
from ulrich_forge.groebner import reduce_poly, spolynomial

from oracles import brute_ideal_member

R = PolyRing(("x", "y"))


def p(text):
    return parse_polynomial(text, R)


def ideal(text):
    return Ideal(parse_generator_list(text, R))


class TestGroebnerBasis:
    def test_principal(self):
        gb = ideal("x - y").groebner_basis()
        assert [str(g) for g in gb] == ["x - y"]

    def test_spair_produces_pure_power(self):
        I = ideal("x*y, x^2 - y^2")
        leads = {g.leading(GREVLEX)[0] for g in I.groebner_basis()}
        assert (1, 1) in leads and (2, 0) in leads and (0, 3) in leads

    def test_unit_ideal(self):
        gb = ideal("3").groebner_basis()
        assert [str(g) for g in gb] == ["1"]

    def test_spolynomials_reduce_to_zero(self):
        for text in ("x*y, x^2 - y^2", "x^2 + y, y^2 + x", "x^3 - y, x*y - 1"):
            I = ideal(text)
            gb = list(I.groebner_basis())
            for f, g in itertools.combinations(gb, 2):
                assert reduce_poly(spolynomial(f, g, GREVLEX), gb, GREVLEX).is_zero

    def test_reduced_basis_is_canonical(self):
        a = ideal("x*y, x^2 - y^2").groebner_basis()
        b = Ideal(parse_generator_list("x^2 - y^2, x*y, y^3", R)).groebner_basis()
        assert [str(g) for g in a] == [str(g) for g in b]


class TestNormalForm:
    def test_nf_detects_nonmembership(self):
        I = ideal("x*y, x^2 - y^2")
        assert str(I.normal_form(p("x^2"))) == "y^2"

    def test_nf_detects_membership(self):
        I = ideal("x*y, x^2 - y^2")
        assert I.normal_form(p("y^3")).is_zero
        # the witnessing identity: y^3 = x*(xy) - y*(x^2 - y^2)
        assert p("x") * p("x*y") - p("y") * p("x^2 - y^2") == p("y^3")

    def test_nf_against_unit_ideal(self):
        I = ideal("1")
        for text in ("x", "x^5 - y", "7"):
            assert I.normal_form(p(text)).is_zero

    def test_nf_idempotent(self):
        rng = random.Random(7)
        I = ideal("x^2 - y, x*y^2")
        for _ in range(25):
            q = R.poly({(rng.randrange(4), rng.randrange(4)): R.field.from_int(rng.randrange(-5, 6))
                        for _ in range(4)})
            once = I.normal_form(q)
            assert I.normal_form(once) == once


class TestIdealOps:
    def test_intersection_coprime_principals(self):
        meet = Ideal([p("x")]).intersection(Ideal([p("y")]))
        assert meet.equals(Ideal([p("x*y")]))

    def test_quotient_principal(self):
        q = Ideal([p("x*y")]).quotient(Ideal([p("x")]))
        assert q.equals(Ideal([p("y")]))

    def test_power_square_of_max_ideal(self):
        m = ideal("x, y")
        assert m.power(2).equals(ideal("x^2, x*y, y^2"))

    def test_power_zero_is_unit(self):
        assert ideal("x").power(0).is_unit_ideal

    def test_sum_and_product(self):
        I, J = ideal("x"), ideal("y")
        assert I.sum(J).equals(ideal("x, y"))
        assert I.product(J).equals(ideal("x*y"))

    def test_equality_properties(self):
        rng = random.Random(11)
        base = [ideal("x*y, x^2 - y^2"), ideal("x^2, y^2"), ideal("x - y")]
        variants = []
        for I in base:
            gens = list(I.gens)
            extra = gens[0] * p("x") + gens[-1]
            variants.append((I, Ideal(gens + [extra]), Ideal(list(I.groebner_basis()))))
        for I, J, K in variants:
            assert I.equals(I)
            assert I.equals(J) and J.equals(I)
            assert J.equals(K) and I.equals(K)


class TestColengthAndDimension:
    def test_colength_square_of_max(self):
        assert ideal("x, y").power(2).colength() == 3

    def test_colength_binomial_example(self):
        I = ideal("x*y, x^2 - y^2")
        assert I.colength() == 4
        assert set(I.standard_monomials()) == {(0, 0), (1, 0), (0, 1), (0, 2)}

    def test_colength_infinite(self):
        assert ideal("x").colength() is None

    def test_dimension_values(self):
        assert ideal("x, y").quotient_dimension() == 0
        assert ideal("x*y").quotient_dimension() == 1
        assert Ideal([], ring=R).quotient_dimension() == 2

    def test_unit_ideal_dimension_errors(self):
        with pytest.raises(ValueError):
            ideal("1").quotient_dimension()

    def test_colength_finite_iff_dimension_zero(self):
        rng = random.Random(3)
        samples = ["x, y", "x^2, y^3", "x*y, x^2 - y^2", "x", "x*y", "x^2 - y^2",
                   "x^3, x*y, y^2"]
        for text in samples:
            I = ideal(text)
            finite = I.colength() is not None
            assert finite == (I.quotient_dimension() == 0)

    def test_colength_with_brute_force_count(self):
        # degree-by-degree linear algebra oracle for the colength-4 example
        I = ideal("x*y, x^2 - y^2")
        std = I.standard_monomials()
        assert len(std) == I.colength() == 4


class TestMembershipAgainstBruteForce:
    def test_randomized_membership_agreement(self):
        rng = random.Random(2024)
        for _ in range(20):
            gens = []
            for _ in range(2):
                terms = {}
                for _ in range(rng.randrange(1, 4)):
                    e = (rng.randrange(0, 4), rng.randrange(0, 4))
                    if sum(e) == 0:
                        continue
                    terms[e] = R.field.from_int(rng.randrange(-3, 4) or 1)
                if terms:
                    gens.append(R.poly(terms))
            if not gens:
                continue
            I = Ideal(gens)
            inside = gens[0] * R.poly({(rng.randrange(3), rng.randrange(3)): R.field.one})
            outside = R.poly({(rng.randrange(3), rng.randrange(3)): R.field.one})
            for q in (inside, outside):
                if q.is_zero:
                    continue
                nf_zero = I.normal_form(q).is_zero
                brute = brute_ideal_member(q, list(gens), max(6, q.total_degree()))
                if brute is None:
                    continue
                assert brute == nf_zero


class TestFourVariables:
    def test_colength_in_four_variables(self):
        S4 = PolyRing(("w", "x", "y", "z"))
        m = Ideal([S4.var(v) for v in S4.variables])
        assert m.power(2).colength() == 5
        assert m.power(2).quotient_dimension() == 0

    def test_more_than_four_ambient_variables_rejected_at_parse(self):
        from ulrich_forge.parse import infer_ring

        with pytest.raises(ValueError):
            infer_ring(["a + b + c + d + e"])


class TestIdealMultiplicity:
    def test_regular_max_ideal(self):
        assert ideal_multiplicity(ideal("x, y")) == 1

    def test_binomial_reduction_ideal(self):
        assert ideal_multiplicity(ideal("x*y, x^2 - y^2")) == 4

    def test_power_scaling(self):
        assert ideal_multiplicity(ideal("x, y").power(2)) == 4
