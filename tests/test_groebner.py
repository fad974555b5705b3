"""Groebner engine: bases, normal forms, ideal arithmetic, colength, dimension."""
import itertools
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, strategies as st

from ulrich_forge import (
    GREVLEX,
    LEXICOGRAPHIC,
    QQ,
    BlockOrder,
    Ideal,
    Polynomial,
    PolyRing,
    PrimeField,
    ideal_multiplicity,
    parse_generator_list,
    parse_polynomial,
)
from ulrich_forge import groebner
from ulrich_forge.cli import main
from ulrich_forge.groebner import reduce_poly, spolynomial
from ulrich_forge.newton import staircase
from ulrich_forge.patterns import InconclusiveError

from oracles import (
    box_staircase,
    brute_ideal_member,
    brute_newton_twice_area,
    full_power_reduction_multiplicity,
    generator_power,
    is_groebner_basis,
    naive_buchberger,
    naive_ideal_equals,
    naive_ideal_multiplicity,
    naive_reduce_poly,
    reduced_bound_contains,
)

R = PolyRing(("x", "y"))
R3 = PolyRing(("x", "y", "z"))
FIELDS = [QQ, PrimeField(7), PrimeField(32003)]
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "cli"


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


@st.composite
def staircase_points(draw):
    """Points of N^d, d = 1..3, with zero coordinates and duplicates; most
    often every axis holds one, sometimes some axis holds none."""
    dim = draw(st.integers(1, 3))
    points = draw(st.lists(st.tuples(*[st.integers(0, 4)] * dim), max_size=6))
    for i in range(dim):
        if draw(st.integers(0, 5)):
            points.append(tuple(draw(st.integers(0, 6)) * (j == i) for j in range(dim)))
    if points and draw(st.booleans()):
        points.append(draw(st.sampled_from(points)))
    return draw(st.permutations(points)), dim


class TestStaircase:
    @given(staircase_points())
    def test_columns_equal_the_box_filter(self, case):
        points, dim = case
        assert staircase(points, dim) == box_staircase(points, dim)

    @pytest.mark.parametrize("points, dim, want", [
        ([(3,), (5,), (3,)], 1, [(0,), (1,), (2,)]),
        ([(2, 0), (0, 2), (1, 1), (2, 0)], 2, [(0, 0), (0, 1), (1, 0)]),
        # the origin spans the unit ideal
        ([(0, 0)], 2, []),
        ([(2, 0, 0), (0, 0, 0), (1, 1, 1)], 3, []),
        ([(0, 0, 1), (1, 0, 0), (0, 3, 0)], 3, [(0, 0, 0), (0, 1, 0), (0, 2, 0)]),
        # no point on the second axis
        ([(2, 0), (1, 1)], 2, None),
        ([(2, 0, 0), (0, 2, 0), (1, 0, 1)], 3, None),
        ([], 1, None),
    ])
    def test_edge_cases(self, points, dim, want):
        assert staircase(points, dim) == want == box_staircase(points, dim)


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

    def test_window_reproducer(self):
        # the second differences of colength(J^t) run 107, 109, 109, 109,
        # 110, 110, ...: a window of three equal values read 109
        J = ideal("y^11, x^3*y^8, x^8*y^5, x^9*y^10, x^10")
        assert ideal_multiplicity(J) == 110

    def test_points_off_the_origin(self):
        # V(I) is the origin, where I is (x^2, x*y, y^2) up to units (e = 4),
        # and (0, -1), where I is the maximal ideal (e = 1)
        I = ideal("x^2 + 2*x^3, y^2 + y^3, x*y + 3*x^2")
        assert I.colength() == 4
        assert ideal_multiplicity(I) == 5 == naive_ideal_multiplicity(I)

    def test_two_generators_give_the_colength(self):
        # a complete intersection at each of its points, the origin among them
        I = ideal("x^2 - y^3, x*y + y^2")
        assert ideal_multiplicity(I) == I.colength() == naive_ideal_multiplicity(I)

    def test_infinite_colength_refused(self):
        with pytest.raises(ValueError):
            ideal_multiplicity(ideal("x^2, x*y"))

    @pytest.mark.parametrize("text, e", [
        ("x^3, y^3, z^3, x*y*z", 27),
        ("x^2, y^2, z^2, x*y, y*z", 8),
        ("x^4, y^4, z^4, x^2*y, y^2*z, x*z^3", 40),
    ])
    def test_three_variable_monomials_take_the_newton_path(self, text, e, monkeypatch):
        calls = []
        monkeypatch.setattr(groebner, "buchberger",
                            lambda *a, real=groebner.buchberger: calls.append(a) or real(*a))
        assert ideal_multiplicity(Ideal(parse_generator_list(text, R3))) == e
        # the colength's basis only; the reduction path makes 21 calls on the last
        assert len(calls) <= 1

    def test_tries_run_side_by_side(self, monkeypatch):
        # the first combination finds no r <= 4 on this ideal, whose own
        # coefficient 5 meets the tries' coefficients; a later try certifies e
        text = "x^3 + x^4, y^3 + 5*y^4, x*y^2 + x^2*y"
        I = ideal(text)
        assert ideal_multiplicity(I) == 11 == naive_ideal_multiplicity(I)
        monkeypatch.setattr(groebner, "REDUCTION_TRIES", 1)
        monkeypatch.setattr(groebner, "T_MAX", 4)
        with pytest.raises(InconclusiveError, match="REDUCTION_TRIES=1 .* T_MAX=4"):
            ideal_multiplicity(ideal(text))

    @pytest.mark.parametrize("ring, text, e, calls", [
        (R3, "x^2 + y*z, y^2 + x*z, z^2 + x*y, x*y*z", 8, 4),
        (R, "x^3 - x^4, y^3 - y^4, 2*x^2*y - x*y^2", 11, 5),
        (R, "x^5 - 2*x^6, y^5 - 3*y^6, y^3 + 2*x^2*y", 16, 5),
        # slot 14 of the ideals workload: e = 11 at the origin, 2 at (1/2, 0)
        (R, "x^4 - 2*x^5, y^4 + 2*y^5, 3*y^3, 3*x*y^2", 13, 5),
    ])
    def test_rounds_past_r_0_count_instead_of_reducing(self, ring, text, e, calls, monkeypatch):
        # the bases of I, Q, Q + I^2 and I^2, and of I^3 on the plane rows:
        # their reduction number is 2, so the colengths skip r = 1 and the
        # first try's r = 2 count holds in round 1, before a second try
        # starts; the space row certifies e at r = 1 by counting Q + I^3
        # against Q + I^2.  One count each, and it interreduces and
        # post-checks nothing of its own
        made, inside, counts = [], [], []

        def counted(*a, real=groebner.buchberger):
            made.append(a)
            inside.append(a)
            try:
                return real(*a)
            finally:
                inside.pop()

        def only_inside(name):
            def guarded(*a, real=getattr(groebner, name)):
                assert inside, f"{name} outside buchberger"
                return real(*a)
            monkeypatch.setattr(groebner, name, guarded)

        monkeypatch.setattr(groebner, "buchberger", counted)
        monkeypatch.setattr(groebner, "_fills",
                            lambda *a, real=groebner._fills: counts.append(a) or real(*a))
        only_inside("_interreduce")
        only_inside("_passed")
        assert ideal_multiplicity(Ideal(parse_generator_list(text, ring))) == e
        assert len(made) == calls
        assert len(counts) == 1

    def test_budget_inside_the_r_1_count_propagates(self, monkeypatch):
        # the space ideal's one count is Q + I^3 against Q + I^2; with a
        # one-bit budget from its start, its refusal leaves ideal_multiplicity
        def starved(*a, real=groebner._fills):
            monkeypatch.setattr(groebner, "BUCHBERGER_MAX_BITS", 1)
            return real(*a)

        monkeypatch.setattr(groebner, "_fills", starved)
        I = Ideal(parse_generator_list("x^2 + y*z, y^2 + x*z, z^2 + x*y, x*y*z", R3))
        with pytest.raises(InconclusiveError, match="BUCHBERGER_MAX_BITS=1"):
            ideal_multiplicity(I)

    def test_budgets_are_named(self, monkeypatch):
        I = ideal("x^2 + 2*x^3, y^2 + y^3, x*y + 3*x^2")
        monkeypatch.setattr(groebner, "REDUCTION_TRIES", 0)
        with pytest.raises(InconclusiveError, match="REDUCTION_TRIES=0"):
            ideal_multiplicity(I)
        # this ideal needs r = 1, so r <= 0 runs out on every try
        monkeypatch.setattr(groebner, "REDUCTION_TRIES", 2)
        monkeypatch.setattr(groebner, "T_MAX", 0)
        with pytest.raises(InconclusiveError, match="T_MAX=0"):
            ideal_multiplicity(I)


plane_exponents = st.tuples(st.integers(0, 6), st.integers(0, 6))
# monomial plane ideals of finite colength: a power of each variable plus
# up to four more exponents
monomial_plane_ideals = st.builds(lambda a, b, more: [(a, 0), (0, b)] + more,
                                  st.integers(1, 6), st.integers(1, 6),
                                  st.lists(plane_exponents, max_size=4))
# and in three variables, small enough for the forced reduction path: a
# power of each variable and one or two exponents off the axes, so that most
# bases have more elements than variables
monomial_space_ideals = st.builds(
    lambda powers, more: [tuple(a * (i == j) for j in range(3)) for i, a in enumerate(powers)]
    + more, st.tuples(*[st.integers(2, 3)] * 3),
    st.lists(st.tuples(*[st.integers(0, 2)] * 3).filter(lambda v: v.count(0) < 2),
             min_size=1, max_size=2))


@given(st.one_of(monomial_plane_ideals, monomial_space_ideals))
def test_reduction_path_equals_newton_value(exps):
    ring = R if len(exps[0]) == 2 else R3
    I = Ideal([ring.monomial(e) for e in exps])
    e = ideal_multiplicity(I)
    if ring is R:
        assert e == brute_newton_twice_area(exps)
    basis = I.groebner_basis()
    if len(basis) > ring.nvars:  # the path needs more basis elements than variables
        assert groebner._reduction_multiplicity(I, basis) == e


@st.composite
def axis_ideals(draw):
    """The ideals workload's shape over Q, F_7 or F_32003: x^a * (1 + c*x)
    and y^a * (1 + c'*y), which cut out a finite grid through the origin,
    plus one or two forms of degree 2..min(a, 3) with one or two terms."""
    ring = PolyRing(("x", "y"), draw(st.sampled_from(FIELDS)))
    coeff = st.sampled_from((-3, -2, -1, 1, 2, 3)).map(ring.field.from_int)
    a = draw(st.integers(2, 5))
    x, y = ring.gens()
    gens = [ring.monomial((a, 0)) * (ring.one() + x.scale(draw(coeff))),
            ring.monomial((0, a)) * (ring.one() + y.scale(draw(coeff)))]
    d = draw(st.integers(2, min(a, 3)))
    for _ in range(draw(st.integers(1, 2))):
        exps = draw(st.lists(st.integers(0, d), min_size=1, max_size=2, unique=True))
        gens.append(sum((ring.monomial((i, d - i), draw(coeff)) for i in exps), ring.zero()))
    return Ideal(gens, GREVLEX, ring)


def _monomial_ideal(exps, fld):
    ring = PolyRing(("x", "y", "z")[:len(exps[0])], fld)
    return Ideal([ring.monomial(e) for e in exps], GREVLEX, ring)


@given(st.one_of(
    st.builds(_monomial_ideal, st.one_of(monomial_plane_ideals, monomial_space_ideals),
              st.sampled_from(FIELDS)),
    axis_ideals()))
# r = 2 in three variables, where Q + I^2 would read 39, not 40
@example(_monomial_ideal([(3, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 1)], QQ))
@example(_monomial_ideal([(4, 0, 0), (0, 4, 0), (0, 0, 2), (1, 1, 1)], PrimeField(7)))
def test_briancon_skoda_answer_equals_the_full_power_answer(I):
    # colength(Q + I^min(r+1, d)) against colength(Q + I^(r+1)), for the
    # same Q and the same r
    basis = I.groebner_basis()
    if len(basis) <= I.ring.nvars:
        return
    try:
        want = full_power_reduction_multiplicity(I, basis)
    except InconclusiveError:
        with pytest.raises(InconclusiveError):
            groebner._reduction_multiplicity(I, basis)
        return
    assert groebner._reduction_multiplicity(I, basis) == want


@given(axis_ideals())
# r = 2 in three variables, as in the property above
@example(_monomial_ideal([(3, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 1)], QQ))
@example(_monomial_ideal([(4, 0, 0), (0, 4, 0), (0, 0, 2), (1, 1, 1)], PrimeField(32003)))
def test_counting_test_agrees_with_the_reduced_bound(I):
    # for r = 1, 2 on the first two seeded combinations: the staircase count
    # against the reduced basis of the bound and a normal form per element
    # of I^(r+1)'s basis
    basis = I.groebner_basis()
    if len(basis) <= I.ring.nvars:
        return
    powers = list(itertools.islice(groebner._power_tower(I), 3))
    for Q, rest in itertools.islice(groebner._combinations(I, basis), 2):
        for r in (1, 2):
            lower, upper = powers[r - 1].groebner_basis(), powers[r].groebner_basis()
            bound = groebner._bound(Q, rest, lower, upper)
            products = groebner._bound(Q, [], lower, upper)
            colength = powers[r].colength()
            holds = reduced_bound_contains(bound, upper, I.order)
            assert groebner._fills(bound, I.order, colength) == holds
            # mutants: a target one below the colength, and Q * I^r without
            # the products of the other basis elements with I^(r+1)
            assert not groebner._fills(bound, I.order, colength - 1)
            alone = groebner._fills(products, I.order, colength)
            assert alone == reduced_bound_contains(products, upper, I.order)
            assert holds or not alone


@given(st.one_of(
    st.builds(_monomial_ideal, st.one_of(monomial_plane_ideals, monomial_space_ideals),
              st.sampled_from(FIELDS)),
    axis_ideals()))
@example(_monomial_ideal([(3, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 1)], QQ))
@example(_monomial_ideal([(4, 0, 0), (0, 4, 0), (0, 0, 2), (1, 1, 1)], PrimeField(7)))
# reduction number 2 at the origin: the colengths skip r = 1
@example(ideal("x^3 - x^4, y^3 - y^4, 2*x^2*y - x*y^2"))
def test_r_1_colengths_agree_with_the_bound(I):
    # L = colength(I^2) - d * colength(I) is at most e(I) and at most
    # colength(Q + I^2); on the first two seeded combinations the r = 1 test
    # by colengths (None when they skip it) decides as the count on the
    # bound Q * I + (rest) * I^2 and as its reduced basis
    basis = I.groebner_basis()
    if len(basis) <= I.ring.nvars:
        return
    I2 = I.power(2)
    L = I2.colength() - I.ring.nvars * I.colength()
    assert L <= naive_ideal_multiplicity(I)
    upper = I2.groebner_basis()
    for Q, rest in itertools.islice(groebner._combinations(I, basis), 2):
        square = Ideal(groebner._bound(Q, rest, (I.ring.one(),), basis), I.order, I.ring)
        assert L <= square.colength()
        bound = groebner._bound(Q, rest, basis, upper)
        holds = reduced_bound_contains(bound, upper, I.order)
        assert groebner._fills(bound, I.order, I2.colength()) == holds
        assert bool(groebner._r1_test(Q, rest, I, square, I2)) == holds


class TestNewtonNondegenerate:
    @pytest.mark.parametrize("text, e", [
        # x*y^2 not integral over (x^2*y, x^4 - y^4): the ideal (x^2*y, x^4 - y^4) + (x*y^2)
        ("x^2*y, x^4 - y^4, x*y^2", 11),
        ("x*y^2, x^5 - y^5, x^2*y", 13),
        ("x^3 + x^2*y, y^3 - 2*x*y^2, x^2*y^2", 9),
    ])
    def test_read_off_the_polygon(self, text, e, monkeypatch):
        calls = []
        monkeypatch.setattr(groebner, "buchberger",
                            lambda *a, real=groebner.buchberger: calls.append(a) or real(*a))
        I = ideal(text)
        assert groebner._newton_nondegenerate(I, I.colength())
        assert ideal_multiplicity(I) == e
        assert len(calls) == 1  # the colength's basis; no power of I
        assert groebner._reduction_multiplicity(I, I.groebner_basis()) == e
        assert naive_ideal_multiplicity(ideal(text)) == e

    @pytest.mark.parametrize("text, e", [
        # 1 - t^2 is the initial form on the edge from x^2 to y^2: degenerate,
        # and the polygon would read 4
        ("x^2 - y^2, x^3, y^3", 6),
        # the forms on the edge x + y = 2 share the root t = 1; again not 4
        ("x^2 - x*y, x*y - y^2, x^3, y^3", 5),
        # V(I) holds (0, -1) besides the origin
        ("x^2 + 2*x^3, y^2 + y^3, x*y + 3*x^2", 5),
    ])
    def test_degenerate_or_off_the_origin_takes_the_reduction(self, text, e):
        I = ideal(text)
        assert not groebner._newton_nondegenerate(I, I.colength())
        assert ideal_multiplicity(I) == e == naive_ideal_multiplicity(ideal(text))

    def test_prime_fields_take_the_reduction(self):
        ring = PolyRing(("x", "y"), PrimeField(101))
        I = Ideal(parse_generator_list("x^2*y, x^4 - y^4, x*y^2", ring))
        assert not groebner._newton_nondegenerate(I, I.colength())
        assert ideal_multiplicity(I) == 11


# plane ideals (x^a, y^b) plus one or two binomials under that corner, so
# that both sides of the non-degeneracy test occur
plane_binomial_ideals = st.integers(2, 5).flatmap(lambda a: st.integers(2, 5).flatmap(
    lambda b: st.tuples(st.just(a), st.just(b), st.lists(st.tuples(
        st.tuples(st.integers(0, a - 1), st.integers(0, b - 1)).filter(lambda u: sum(u) > 1),
        st.tuples(st.integers(0, a - 1), st.integers(0, b - 1)).filter(lambda u: sum(u) > 1),
        st.sampled_from((-2, -1, 1, 3))), min_size=1, max_size=2))))


@given(plane_binomial_ideals)
def test_newton_path_equals_the_reduction(spec):
    a, b, binomials = spec
    gens = [R.monomial((a, 0)), R.monomial((0, b))]
    gens += [R.monomial(u) + R.monomial(v, QQ.from_int(k)) for u, v, k in binomials if u != v]
    I = Ideal(gens)
    basis = I.groebner_basis()
    if len(basis) <= 2 or not groebner._newton_nondegenerate(I, I.colength()):
        return
    assert ideal_multiplicity(I) == groebner._reduction_multiplicity(I, basis)


class TestBuchbergerBudget:
    # coefficients explode under the elimination order of every intersection
    EXPLODING = ("-27/7*t*x*y^2 - 2/3*x*y^3 - 3/2*t^2*x + 29/10*t*x^2 + 1/12*t*x, "
                 "19/12*t^2*x + 7/5*x^2*y + 25/6*t*x - 13/9*x*y + 5/12*t, "
                 "-10/11*t^2*x^2 + 25/12*t*x*y^2 + 22/9*t^2*x + 11/6*t^2*y + 7*t*x*y")

    def test_exploding_elimination_is_refused(self):
        gens = parse_generator_list(self.EXPLODING, PolyRing(("t", "x", "y")))
        start = time.perf_counter()
        with pytest.raises(InconclusiveError, match="BUCHBERGER_MAX_BITS=16384"):
            groebner.buchberger(gens, BlockOrder(split=1))
        assert time.perf_counter() - start < 10
        assert len(groebner.buchberger(gens)) > 0  # grevlex stays in budget

    def test_command_line_exits_3_naming_the_budget(self, monkeypatch, capsys):
        monkeypatch.setattr(groebner, "BUCHBERGER_MAX_BITS", 8)
        assert main(["groebner", "--ideal", self.EXPLODING, "--vars", "t,x,y"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("inconclusive: ") and "BUCHBERGER_MAX_BITS=8" in err


# (ambient variables, order): grevlex on the plane, elimination of a tag
ORDERS = [(("x", "y"), GREVLEX), (("x", "y"), LEXICOGRAPHIC),
          (("t", "x", "y"), BlockOrder(split=1))]


def _random_poly(rng, ring, nterms, max_degree, min_degree=0):
    terms = {}
    for _ in range(nterms):
        degree = rng.randint(min_degree, max_degree)
        cuts = sorted(rng.randint(0, degree) for _ in range(ring.nvars - 1))
        exps = tuple(b - a for a, b in zip([0] + cuts, cuts + [degree]))
        terms[exps] = ring.field.from_int(rng.choice([-3, -2, -1, 1, 2, 5]))
    return Polynomial(ring, terms)


def _polys(ring, max_terms, max_degree):
    """Polynomials with non-integer rational coefficients over Q, none of
    them monic but by chance."""
    fld = ring.field
    exps = st.lists(st.integers(0, max_degree), min_size=ring.nvars,
                    max_size=ring.nvars).map(tuple)
    coeffs = st.builds(lambda a, b: fld.div(fld.from_int(a), fld.from_int(b)),
                       st.integers(-9, 9), st.sampled_from([1, 2, 3, 5]))
    return st.dictionaries(exps, coeffs, max_size=max_terms).map(ring.poly)


def _reduction_cases(seed, count):
    rng = random.Random(seed)
    for fld in FIELDS:
        for names, order in ORDERS:
            ring = PolyRing(names, fld)
            for _ in range(count):
                basis = [_random_poly(rng, ring, rng.randint(1, 4), 3)
                         for _ in range(rng.randint(1, 4))]
                basis = [g for g in basis if not g.is_zero]
                p = _random_poly(rng, ring, rng.randint(1, 8), 6)
                yield p, basis, order


def _power_cases(seed, count):
    rng = random.Random(seed)
    for fld in FIELDS:
        ring = PolyRing(("x", "y"), fld)
        x, y = ring.var("x"), ring.var("y")
        for _ in range(count):
            a, b = rng.randint(2, 4), rng.randint(2, 4)
            gens = [x ** a + _random_poly(rng, ring, 2, a, 2),
                    y ** b + _random_poly(rng, ring, 2, b, 2),
                    _random_poly(rng, ring, rng.randint(1, 3), 3, 2)]
            I = Ideal(gens, ring=ring)
            if I.colength() is not None:
                yield I


def _gb_strings(I):
    return [g.to_str() for g in I.groebner_basis()]


class TestIdealEquality:
    """Ideal.equals compares reduced bases; the oracle tests mutual
    containment.  `other` is built in each order, so its generators are
    converted into self's order."""

    @given(st.data())
    def test_equals_agrees_with_mutual_containment(self, data):
        fld = data.draw(st.sampled_from(FIELDS))
        order = data.draw(st.sampled_from([GREVLEX, LEXICOGRAPHIC, BlockOrder(split=1)]))
        ring = PolyRing(("x", "y"), fld)
        nonzero = lambda degree: _polys(ring, 3, degree).filter(lambda g: not g.is_zero)
        gens = data.draw(st.lists(nonzero(2), min_size=1, max_size=2))
        if data.draw(st.booleans()):
            # a recombination: g_i plus a multiple of g_(i+1), the last kept
            factors = data.draw(st.lists(_polys(ring, 2, 1), min_size=len(gens) - 1,
                                         max_size=len(gens) - 1))
            other = [g + h * nxt for g, h, nxt in zip(gens, factors, gens[1:])] + gens[-1:]
        else:
            # a perturbed copy: one generator moved by a polynomial
            i = data.draw(st.integers(0, len(gens) - 1))
            other = list(gens)
            other[i] = other[i] + data.draw(nonzero(3))
        I = Ideal(gens, GREVLEX, ring)
        J = Ideal(data.draw(st.permutations(other)), order, ring)
        want = naive_ideal_equals(I, J)
        assert I.equals(J) == want
        assert J.equals(I) == want


class TestReducerOracle:
    """The heap reducer against the rebuild-every-step reducer it replaced."""

    def test_seeded_reductions_equal_oracle(self):
        checked = 0
        for p, basis, order in _reduction_cases(seed=11, count=40):
            got = reduce_poly(p, basis, order).terms
            want = naive_reduce_poly(p, basis, order).terms
            assert list(got.items()) == list(want.items()), (p, basis, order)
            checked += 1
        assert checked == 360

    def test_buchberger_bases_equal_with_oracle_reducer(self):
        # naive_buchberger reduces whole field polynomials with the old
        # reducer, so this compares the integer kernel with field arithmetic
        rng = random.Random(12)
        checked = 0
        for fld in FIELDS:
            for names, order in ORDERS:
                ring = PolyRing(names, fld)
                for _ in range(6):
                    gens = [_random_poly(rng, ring, rng.randint(2, 4), 3) for _ in range(3)]
                    got = groebner.buchberger(gens, order)
                    want = naive_buchberger(gens, order)
                    assert [list(g.terms.items()) for g in got] == \
                        [list(g.terms.items()) for g in want], (gens, order)
                    checked += 1
        assert checked == 54

    @given(st.data())
    def test_reduce_poly_equals_oracle_on_rational_bases(self, data):
        fld = data.draw(st.sampled_from(FIELDS))
        names, order = data.draw(st.sampled_from(ORDERS))
        ring = PolyRing(names, fld)
        basis = [g for g in data.draw(st.lists(_polys(ring, 4, 3), min_size=1, max_size=4))
                 if not g.is_zero]
        p = data.draw(_polys(ring, 8, 6))
        got = reduce_poly(p, basis, order).terms
        want = naive_reduce_poly(p, basis, order).terms
        assert list(got.items()) == list(want.items())

    def test_one_key_per_entered_monomial(self, monkeypatch):
        # Machine-independent gate: within one call, no exponent vector is
        # keyed twice, and every keyed one entered the running polynomial.
        # Basis leading terms are cached on the polynomials beforehand.
        rng = random.Random(13)
        for fld in FIELDS:
            for names, order in ORDERS:
                ring = PolyRing(names, fld)
                for _ in range(8):
                    gens = [_random_poly(rng, ring, rng.randint(2, 4), 3) for _ in range(3)]
                    basis = list(Ideal(gens, order, ring).groebner_basis())
                    for g in basis:
                        g.leading(order)
                    p = _random_poly(rng, ring, rng.randint(2, 8), 6)
                    entered = set()
                    want = naive_reduce_poly(p, basis, order, entered)
                    keyed = []
                    original = type(order).key

                    def counting(self, exps, original=original):
                        keyed.append(exps)
                        return original(self, exps)

                    monkeypatch.setattr(type(order), "key", counting)
                    got = reduce_poly(p, basis, order)
                    monkeypatch.undo()
                    assert got == want
                    assert len(keyed) == len(set(keyed)), (p, basis)
                    assert set(keyed) <= entered


def _post_check(basis, order):
    images = [groebner._image(g, order) for g in basis]
    groebner._assert_buchberger_criterion(images, order, basis[0].ring.field)


def _mutations(basis):
    """Each basis with one element dropped, then with one coefficient moved
    by 3/7 over Q (3/5 over F_p, so F_7 can divide)."""
    fld = basis[0].ring.field
    delta = fld.div(fld.from_int(3), fld.from_int(7 if fld == QQ else 5))
    for i in range(len(basis) if len(basis) > 1 else 0):
        yield basis[:i] + basis[i + 1:]
    for i, g in enumerate(basis):
        for e, c in g.terms.items():
            moved = g.ring.poly({**g.terms, e: fld.add(c, delta)})
            if not moved.is_zero:
                yield basis[:i] + [moved] + basis[i + 1:]


class TestSharedBases:
    """One reduced basis per generator tuple and order, shared by every Ideal
    and by the elimination in Ideal.intersection; read warm, it is the basis
    the field-arithmetic oracle computes."""

    @pytest.fixture
    def computed(self, monkeypatch):
        calls = []
        original = groebner.buchberger

        def counted(gens, order=GREVLEX):
            calls.append((tuple(gens), order))
            return original(gens, order)

        monkeypatch.setattr(groebner, "buchberger", counted)
        return calls

    @pytest.mark.parametrize("argv", [
        ["verify-35", "--n", "2"],
        ["verify-51", "--ring", str(GOLDEN / "r2.ring")],
        ["verify-37", "--n", "2"],
    ], ids=["verify-35", "verify-51", "verify-37"])
    def test_each_generator_list_reduced_once(self, argv, computed, capsys):
        # with a basis per Ideal these made 12, 10 and 12 calls on 8 lists;
        # the power-equality reduction test made 8 on 8 (it also reduced
        # each I + (z) and (I + (z))^2).  Now: (x^2, y^2), the pair
        # (x*y, x^2 - y^2), and pair * (pair + (z)) for the two ring
        # generators z outside the pair's ideal; no power of pair + (z)
        assert main(argv) == 0
        assert len(computed) == len(set(computed)) == 4

    def test_key_is_the_tuple_as_given(self, computed):
        gens = parse_generator_list("x*y, x^2 - y^2", R)
        first = Ideal(gens).groebner_basis()
        assert Ideal(gens).groebner_basis() is first
        # a reordered list may meet BUCHBERGER_MAX_BITS differently, so it is
        # computed again, and the unique reduced basis comes back
        assert Ideal(gens[::-1]).groebner_basis() == first
        assert len(computed) == 2
        assert groebner._reduced_basis.cache_info().maxsize == groebner.REDUCED_BASES

    def test_intersection_reads_the_cache(self, computed):
        A, B = ideal("x^2, y"), ideal("x, y^2")
        assert _gb_strings(A.intersection(B)) == _gb_strings(A.intersection(B))
        assert [order for _, order in computed].count(BlockOrder(split=1)) == 1

    def test_an_inconclusive_basis_is_not_kept(self, monkeypatch):
        gens = parse_generator_list("x^2 + 5*y, x*y", R)
        monkeypatch.setattr(groebner, "BUCHBERGER_MAX_BITS", 2)
        with pytest.raises(InconclusiveError, match="BUCHBERGER_MAX_BITS=2"):
            Ideal(gens).groebner_basis()
        monkeypatch.undo()
        assert Ideal(gens).groebner_basis() == naive_buchberger(gens, GREVLEX)

    def test_shared_images_are_tuples(self):
        gens = tuple(parse_generator_list("x*y, x^2 - y^2", R))
        basis, images = groebner._reduced_basis(gens, GREVLEX)
        assert len(images) == len(basis) == 3
        assert isinstance(images, tuple) and all(isinstance(im[2], tuple) for im in images)
        assert images is basis.images

    @given(st.data())
    def test_carried_images_are_the_images_of_the_basis(self, data):
        # the images buchberger reduced are the ones a fresh _image makes
        fld = data.draw(st.sampled_from(FIELDS))
        names, order = data.draw(st.sampled_from(ORDERS))
        ring = PolyRing(names, fld)
        gens = data.draw(st.lists(_polys(ring, 3, 2), min_size=1, max_size=3))
        basis = groebner.buchberger(gens, order)
        assert basis.images == tuple(groebner._image(g, order) for g in basis)

    def test_staircases_are_shared_by_leading_exponents(self, monkeypatch):
        walked = []
        real = groebner.staircase
        monkeypatch.setattr(groebner, "staircase", lambda *a: walked.append(a) or real(*a))
        A, B = ideal("x^2 - y, y^2"), ideal("x^2 + 3*y, y^2")
        assert A.colength() == B.colength() == 4
        assert A.standard_monomials() == B.standard_monomials() == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert len(walked) == 1

    @given(st.data())
    def test_warm_bases_equal_the_oracle(self, data):
        fld = data.draw(st.sampled_from(FIELDS))
        ring = PolyRing(("x", "y"), fld)
        gens = data.draw(st.lists(_polys(ring, 3, 2), min_size=1, max_size=3))
        for listed in (gens, data.draw(st.permutations(gens))):
            Ideal(listed, GREVLEX, ring).groebner_basis()
            warm = Ideal(listed, GREVLEX, ring).groebner_basis()
            assert warm == naive_buchberger(listed, GREVLEX)
        # the elimination input of A and B, lifted as Ideal.intersection lifts it
        A = Ideal(gens, GREVLEX, ring)
        B = Ideal(data.draw(st.lists(_polys(ring, 3, 2), min_size=1, max_size=2)),
                  GREVLEX, ring)
        A.intersection(B)
        big = PolyRing(("_t", "x", "y"), fld)
        t = big.var("_t")
        lifted = tuple([t * groebner._lift(a, big) for a in A.gens]
                       + [(big.one() - t) * groebner._lift(b, big) for b in B.gens])
        hits = groebner._reduced_basis.cache_info().hits
        warm, _ = groebner._reduced_basis(lifted, BlockOrder(split=1))
        if not (A.is_zero_ideal or B.is_zero_ideal):
            assert groebner._reduced_basis.cache_info().hits == hits + 1
        assert warm == naive_buchberger(lifted, BlockOrder(split=1))


class TestPostCheck:
    """The all-pairs post-check rejects what is not a Groebner basis."""

    def test_named_mutations_are_rejected(self):
        # the reduced basis of (x*y, x^2 - y^2) is x^2 - y^2, x*y, y^3
        basis = list(ideal("x*y, x^2 - y^2").groebner_basis())
        _post_check(basis, GREVLEX)
        without_cube = [g for g in basis if g != p("y^3")]
        perturbed = [p("x*y"), p("x^2 - y^2"), p("y^3 + 3/7*x")]
        for bad in (without_cube, perturbed):
            assert not is_groebner_basis(bad, GREVLEX)
            with pytest.raises(AssertionError, match="post-check failed"):
                _post_check(bad, GREVLEX)

    def test_seeded_mutations_agree_with_oracle(self):
        rng = random.Random(31)
        for fld in FIELDS:
            for names, order in ORDERS:
                ring = PolyRing(names, fld)
                rejected = 0
                for _ in range(4):
                    # two generators without constant or linear terms keep
                    # the bases away from (1)
                    gens = [_random_poly(rng, ring, rng.randint(2, 4), 3, 2) for _ in range(2)]
                    basis = list(groebner.buchberger(gens, order))
                    _post_check(basis, order)
                    for bad in _mutations(basis):
                        if is_groebner_basis(bad, order):
                            _post_check(bad, order)
                            continue
                        with pytest.raises(AssertionError):
                            _post_check(bad, order)
                        rejected += 1
                assert rejected >= 10, (fld, order)

    def test_a_passed_basis_reduces_no_pair_again(self, monkeypatch):
        # the recombined list has the same reduced basis: its Buchberger run
        # skips exactly the post-check's C(n, 2) pair reductions
        gens = parse_generator_list("x^3 + 2*x^4, y^3 - y^4, x*y^2 + 3*x^2*y", R)
        x = R.var("x")
        recombined = [gens[0] + x * gens[2], gens[1] - gens[2].scale(QQ.from_int(2)), gens[2]]
        reductions = []
        real = groebner._pseudo_reduce
        monkeypatch.setattr(groebner, "_pseudo_reduce",
                            lambda *a: reductions.append(a) or real(*a))
        n = len(Ideal(gens).groebner_basis())
        reductions.clear()
        assert Ideal(gens).equals(Ideal(recombined))
        warm = len(reductions)
        assert groebner._passed.cache_info().hits == 1
        groebner._reduced_basis.cache_clear()
        groebner._passed.cache_clear()
        reductions.clear()
        Ideal(recombined).groebner_basis()
        assert len(reductions) - warm == n * (n - 1) // 2 > 0
        assert groebner._passed.cache_info().maxsize == groebner.REDUCED_BASES

    def test_mutations_still_fail_after_the_basis_passed(self):
        for fld in FIELDS:
            ring = PolyRing(("x", "y"), fld)
            gens = parse_generator_list("x^2*y - 2*y^3 + x, x*y^2 - x^2 + y^2", ring)
            basis = list(Ideal(gens).groebner_basis())
            _post_check(basis, GREVLEX)
            assert groebner._passed.cache_info().hits >= 1  # buchberger's own check
            rejected = 0
            for bad in _mutations(basis):
                if is_groebner_basis(bad, GREVLEX):
                    continue
                for _ in range(2):  # a failure is not remembered
                    with pytest.raises(AssertionError, match="post-check failed"):
                        _post_check(bad, GREVLEX)
                rejected += 1
            assert rejected >= 5, fld

    def test_failed_post_check_exits_4(self, monkeypatch, capsys):
        from ulrich_forge.cli import main

        # drop the last element of every interreduced basis before the check
        interreduce = groebner._interreduce
        monkeypatch.setattr(groebner, "_interreduce",
                            lambda *args: interreduce(*args)[:-1])
        assert main(["groebner", "--ideal", "(x*y, x^2-y^2)", "--colength"]) == 4
        captured = capsys.readouterr()
        assert captured.err == ("certificate self-check failed: Buchberger post-check "
                                "failed: nonzero S-polynomial remainder\n")


class TestPowerTower:
    """Powers built from reduced bases against generator-built powers."""

    def test_seeded_powers_equal_generator_powers(self):
        checked = 0
        for I in _power_cases(seed=21, count=3):
            for t in (1, 2, 3):
                assert _gb_strings(I.power(t)) == _gb_strings(generator_power(I, t))
            checked += 1
        assert checked >= 6

    def test_seeded_multiplicities_equal_oracle(self):
        checked = 0
        for I in _power_cases(seed=22, count=3):
            assert ideal_multiplicity(I) == naive_ideal_multiplicity(I), I
            checked += 1
        assert checked >= 6

    def test_generator_order_does_not_follow_the_hash_seed(self):
        # ties in the leading-term sort of the products keep generation
        # order: a set of polynomials would iterate by hashes that include
        # the variable names' string hashes
        code = ("import itertools\n"
                "from ulrich_forge import Ideal, PolyRing, PrimeField, parse_generator_list\n"
                "from ulrich_forge.groebner import _power_tower\n"
                "R = PolyRing(('x', 'y', 'z'), PrimeField(32003))\n"
                "I = Ideal(parse_generator_list('x^4 + y^3*z, y^4 + z^3, z^4 + x^3, x*y*z^2, "
                "x^2*y', R))\n"
                "square = next(itertools.islice(_power_tower(I), 1, None))\n"
                "print([g.to_str() for g in square.gens])\n")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        lists = {subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
                                check=True).stdout
                 for seed in ("0", "2")}
        assert len(lists) == 1
