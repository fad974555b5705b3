"""Groebner engine: bases, normal forms, ideal arithmetic, colength, dimension."""
import itertools
import pathlib
import random
import time

import pytest
from hypothesis import given, strategies as st

from ulrich_forge import (
    GREVLEX,
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
from ulrich_forge.patterns import InconclusiveError

from oracles import (
    brute_ideal_member,
    brute_newton_twice_area,
    generator_power,
    is_groebner_basis,
    naive_buchberger,
    naive_ideal_multiplicity,
    naive_reduce_poly,
)

R = PolyRing(("x", "y"))
R3 = PolyRing(("x", "y", "z"))
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


FIELDS = [QQ, PrimeField(7), PrimeField(32003)]
# (ambient variables, order): grevlex on the plane, elimination of a tag
ORDERS = [(("x", "y"), GREVLEX), (("t", "x", "y"), BlockOrder(split=1))]


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


class TestReducerOracle:
    """The heap reducer against the rebuild-every-step reducer it replaced."""

    def test_seeded_reductions_equal_oracle(self):
        checked = 0
        for p, basis, order in _reduction_cases(seed=11, count=40):
            got = reduce_poly(p, basis, order).terms
            want = naive_reduce_poly(p, basis, order).terms
            assert list(got.items()) == list(want.items()), (p, basis, order)
            checked += 1
        assert checked == 240

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
        assert checked == 36

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
        # with a basis per Ideal these made 12, 10 and 12 calls on 8 lists
        assert main(argv) == 0
        assert len(computed) == len(set(computed)) == 8

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
