"""Koszul homology tallies: cyclic, ideal-module, finite-length, monomial."""
import random
import re

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ulrich_forge import (
    FiniteLengthModule,
    FreeModule,
    Ideal,
    MonomialModule,
    PolyRing,
    colon_module,
    koszul_cyclic,
    koszul_finlen,
    koszul_ideal_module,
    koszul_monomial_R,
    parse_generator_list,
    parse_polynomial,
)
from ulrich_forge import groebner, koszul
from ulrich_forge.fields import QQ, PrimeField
from ulrich_forge.groebner import ideal_multiplicity
from ulrich_forge.koszul import (
    monomial_min_gens,
    monomial_saturation,
    quotient_module_length,
)
from ulrich_forge.orders import BlockOrder
from ulrich_forge.pipelines import no_ulrich_semigroup
from ulrich_forge.semigroup import FULL_PLANE, AffineSemigroup, gap_set_auto, sg_member

from oracles import (
    dense_evaluate,
    dense_mat_mul,
    elimination_koszul_cyclic,
    naive_colon_count,
    naive_koszul_monomial,
    naive_mat_rank,
    naive_min_gens,
    naive_saturation_points,
    pointset_homology_points,
)

R = PolyRing(("x", "y"))
X, Y = R.var("x"), R.var("y")
R2 = no_ulrich_semigroup(2)


def p(text):
    return parse_polynomial(text, R)


def ideal(text):
    return Ideal(parse_generator_list(text, R))


class TestCyclic:
    def test_residue_field(self):
        assert koszul_cyclic(X, Y, ideal("x, y")).as_tuple() == (1, 2, 1)

    def test_free_ring(self):
        assert koszul_cyclic(X, Y, Ideal([], ring=R)).as_tuple() == (1, 0, 0)

    def test_dimension_one_quotient(self):
        assert koszul_cyclic(p("x^2"), p("y^2"), ideal("x*y")).as_tuple() == (3, 3, 0)

    def test_embedded_component_gives_h2(self):
        tally = koszul_cyclic(X, Y, ideal("x^2, x*y"))
        assert tally.h2 == 1  # the class of x is killed by the maximal ideal

    @pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(32003)],
                             ids=lambda fld: fld.name)
    def test_matches_the_elimination_oracle(self, field):
        # finite-colength J, monomial and supported away from the origin
        # (x^a*(1 - c*x)^k vanishes at x = 1/c too), against h0 = colength(J + K)
        # and h2 = l((J : K)/J) from the colon ideal
        ring = PolyRing(("x", "y"), field)
        rng = random.Random(42)
        checked = 0
        while checked < 16:
            a, b = rng.randrange(1, 4), rng.randrange(1, 4)
            x, y, c = ring.var("x"), ring.var("y"), ring.const(rng.choice((1, 2, -3)))
            gens = [ring.monomial((a, 0)), ring.monomial((0, b))]
            for i in rng.sample((0, 1), rng.randrange(3)):
                gens[i] = gens[i] * (ring.one() - (x, y)[i] * c) ** rng.randrange(1, 3)
            if rng.random() < 0.7:
                gens.append(ring.monomial((rng.randrange(1, 4), rng.randrange(1, 4))))
            if rng.random() < 0.6:
                gens.append(ring.monomial((rng.randrange(0, 3), rng.randrange(0, 3)))
                            - ring.monomial((rng.randrange(0, 3), rng.randrange(0, 3))))
            J = Ideal([g for g in gens if not g.is_zero])
            if J.is_unit_ideal or J.colength() > 30:
                continue
            f, g = rng.choice([
                (ring.monomial((rng.randrange(1, 3), 0)), ring.monomial((0, rng.randrange(1, 3)))),
                (x + y, x - y), (c * x - ring.one(), y), (c * x - ring.one(), c * y - ring.one())])
            tally = koszul_cyclic(f, g, J)
            assert tally.as_tuple() == elimination_koszul_cyclic(f, g, J), (J, f, g)
            checked += 1

    def test_finite_colength_runs_no_elimination(self, monkeypatch):
        orders = []
        cached = groebner._reduced_basis

        def counted(gens, order):
            orders.append(order)
            return cached(gens, order)

        monkeypatch.setattr(groebner, "_reduced_basis", counted)
        assert koszul_cyclic(X, Y, ideal("x^3 - x^4, y^3 - y^4, x*y")).as_tuple() == (1, 3, 2)
        assert orders and not any(isinstance(o, BlockOrder) for o in orders)
        koszul_cyclic(X, Y, ideal("x^2, x*y"))  # positive dimension: elimination
        assert any(isinstance(o, BlockOrder) for o in orders)

    def test_a_corrupted_column_breaks_commutation(self, monkeypatch):
        # f and g act by commuting maps; one wrong normal form among the
        # columns of f makes f (g b) differ from g (f b) at some b
        J = ideal("x^3 - x^4, y^3 - y^4, x*y")
        columns = koszul.multiplication_columns
        fld = R.field

        def corrupted(q, J, monomials):
            cols = columns(q, J, monomials)
            if q == X:
                m = monomials[0]
                cols[1] = {**cols[1], m: fld.add(cols[1].get(m, fld.zero), fld.one)}
            return cols

        monkeypatch.setattr(koszul, "multiplication_columns", corrupted)
        with pytest.raises(AssertionError, match="do not commute"):
            koszul_cyclic(X, Y, J)
        monkeypatch.setattr(koszul, "multiplication_columns", columns)
        assert koszul_cyclic(X, Y, J).as_tuple() == (1, 3, 2)

    def test_regular_pair_on_free_ring(self):
        # S/(f, g) of finite length makes (f, g) S-regular: the tally is
        # (colength, 0, 0), and the colength is the multiplicity e((f, g))
        rng = random.Random(31)
        checked = 0
        while checked < 10:
            f = R.monomial((rng.randrange(1, 4), 0)) + R.monomial(
                (rng.randrange(0, 3), rng.randrange(1, 3))).scale(
                R.field.from_int(rng.randrange(-3, 4) or 1))
            g = R.monomial((0, rng.randrange(1, 4))) - R.monomial(
                (rng.randrange(1, 3), rng.randrange(0, 3)))
            K = Ideal([f, g])
            length = K.colength()
            if length is None or length > 9:
                continue
            assert koszul_cyclic(f, g, Ideal([], ring=R)).as_tuple() == (length, 0, 0)
            assert ideal_multiplicity(K) == length
            checked += 1


def translate(poly, a, b):
    """poly(x + a, y + b)."""
    x, y = X + R.const(a), Y + R.const(b)
    out = R.zero()
    for (i, j), c in poly.terms.items():
        out = out + (x ** i * y ** j).scale(c)
    return out


def embedded_ideals(seed, count):
    """Ideals c*Q with Q primary to the origin: infinite colength, and an
    embedded component at the origin."""
    rng = random.Random(seed)
    factors = [p("x"), p("y"), p("x*y"), p("x^2"), p("x + y")]
    for _ in range(count):
        gens = [R.monomial((rng.randrange(1, 4), 0)), R.monomial((0, rng.randrange(1, 4)))]
        if rng.random() < 0.5:
            gens.append(R.monomial((rng.randrange(1, 3), rng.randrange(1, 3))))
        if rng.random() < 0.4:
            gens.append(p("x^2 - y^2"))
        c = rng.choice(factors)
        yield Ideal([c * q for q in gens])


SOPS = [(X, Y), (p("x^2"), Y), (p("x + y"), p("x - y"))]


class TestQuotientModuleLength:
    def test_equals_the_colength_difference(self):
        # for J of finite colength, the length of (J : K)/J is the difference
        # of the colengths of J and J : K
        rng = random.Random(5)
        checked = 0
        while checked < 20:
            monos = [(rng.randrange(1, 5), 0), (0, rng.randrange(1, 5))]
            monos += [(rng.randrange(1, 4), rng.randrange(1, 4)) for _ in range(rng.randrange(3))]
            gens = [R.monomial(e) for e in monos]
            if rng.random() < 0.5:
                gens.append(p("x*y - y^2"))
            J = Ideal(gens)
            K = Ideal(list(rng.choice(SOPS)))
            if J.is_unit_ideal or J.colength() > 20:
                continue
            A = J.quotient(K)
            assert quotient_module_length(A, J, J.sum(K)) == J.colength() - A.colength()
            checked += 1

    def test_minimal_generators_of_an_ideal(self):
        J = ideal("x^3, x*y, y^4")
        m = ideal("x, y")
        assert quotient_module_length(J, J.product(m), m) == 3

    def test_annihilator_of_infinite_colength_rejected(self):
        with pytest.raises(ValueError):
            quotient_module_length(ideal("x"), ideal("x^2"), ideal("x"))


class TestTranslation:
    """Moving the inputs by x -> x + a, y -> y + b is a ring automorphism, so
    it keeps every Koszul length, wherever the support moves."""

    @pytest.mark.parametrize("f, g", SOPS)
    def test_tallies_are_translation_invariant(self, f, g):
        rng = random.Random(11)
        for J in embedded_ideals(13, 8):
            a, b = rng.choice([(1, 0), (0, -1), (2, 1), (-1, 3)])
            assert J.colength() is None
            cyclic = koszul_cyclic(f, g, J)
            assert cyclic.h2 > 0
            moved = Ideal([translate(q, a, b) for q in J.gens])
            f2, g2 = translate(f, a, b), translate(g, a, b)
            assert koszul_cyclic(f2, g2, moved) == cyclic, (J, a, b)
            assert koszul_ideal_module(f2, g2, moved) == koszul_ideal_module(f, g, J), (J, a, b)


@pytest.mark.parametrize("names, message", [
    (("x", "y"), "S/(f, g) does not have finite length"),
    (("x",), "two ambient variables required"),
])
@pytest.mark.parametrize("kind", ["free", "ideal"])
def test_free_and_ideal_tallies_refuse_a_pair_that_is_not_regular(names, message, kind):
    # (x, x^2) has infinite colength in k[x, y]; in k[x] its colength is
    # finite, but the pair is not regular: H1(x, x^2; S) = S/(x)
    ring = PolyRing(names)
    x = ring.var("x")
    with pytest.raises(ValueError, match=re.escape(message)):
        if kind == "free":
            FreeModule(1).tally((x, x ** 2))
        else:
            J = Ideal([a * b for a in ring.gens() for b in ring.gens()])
            koszul_ideal_module(x, x ** 2, J)


class TestIdealModule:
    def test_maximal_ideal(self):
        assert koszul_ideal_module(X, Y, ideal("x, y")).as_tuple() == (2, 1, 0)

    def test_principal_is_free(self):
        assert koszul_ideal_module(X, Y, ideal("x")).as_tuple() == (1, 0, 0)

    def test_square_of_maximal(self):
        assert koszul_ideal_module(X, Y, ideal("x^2, x*y, y^2")).as_tuple() == (3, 2, 0)

    def test_zero_ideal_rejected(self):
        with pytest.raises(ValueError):
            koszul_ideal_module(X, Y, Ideal([], ring=R))

    def test_hilbert_burch_rank_bookkeeping(self):
        rng = random.Random(77)
        checked = 0
        while checked < 25:
            terms = {}
            for _ in range(rng.randrange(1, 4)):
                e = (rng.randrange(0, 4), rng.randrange(0, 4))
                if sum(e) == 0:
                    continue
                terms[e] = R.field.from_int(rng.randrange(-4, 5) or 2)
            gens = [R.poly(terms)] if terms else []
            for _ in range(rng.randrange(0, 3)):
                e = (rng.randrange(1, 4), rng.randrange(0, 3))
                gens.append(R.monomial(e))
            gens = [g for g in gens if not g.is_zero]
            if not gens:
                continue
            J = Ideal(gens)
            if J.is_zero_ideal or J.is_unit_ideal:
                continue
            tally = koszul_ideal_module(X, Y, J)
            assert tally.h1 == tally.h0 - 1  # b = a - 1
            assert tally.h2 == 0
            checked += 1


FIELDS = [QQ, PrimeField(7), PrimeField(32003)]


@st.composite
def plane_polys(draw, ring, constant=False):
    """A polynomial with up to three terms of degree at most 3 on each
    variable, with no constant term unless `constant`."""
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
    terms = draw(st.dictionaries(exps if constant else exps.filter(any),
                                 st.integers(-3, 3).filter(bool), min_size=1, max_size=3))
    return sum((ring.monomial(e, ring.field.from_int(c)) for e, c in terms.items()),
               ring.zero())


@st.composite
def origin_primary(draw):
    """(J, f, g) over Q, F_7 or F_32003: J holds x^a and y^b with a, b <= 3,
    so it is primary to the origin, and f, g lie in the maximal ideal."""
    ring = PolyRing(("x", "y"), draw(st.sampled_from(FIELDS)))
    gens = [ring.monomial((draw(st.integers(1, 3)), 0)),
            ring.monomial((0, draw(st.integers(1, 3))))]
    gens += draw(st.lists(plane_polys(ring), max_size=2))
    return Ideal(gens), draw(plane_polys(ring)), draw(plane_polys(ring))


@st.composite
def commuting_nilpotents(draw):
    """(field, n, {"x": X, "y": Y}): a block sum of two pairs (N, q(N)) and
    (q'(N'), N') with N, N' strictly upper triangular and q, q' without
    constant term, so X and Y commute and are nilpotent."""
    field = draw(st.sampled_from(FIELDS))
    entries = st.integers(-2, 2).map(field.from_int)
    blocks = []
    for _ in range(2):
        k = draw(st.integers(0, 3))
        N = [[draw(entries) if j > i else field.zero for j in range(k)] for i in range(k)]
        c1, c2 = draw(entries), draw(entries)
        q = [[field.add(field.mul(c1, a), field.mul(c2, b)) for a, b in zip(r, r2)]
             for r, r2 in zip(N, dense_mat_mul(N, N, field))]
        blocks.append((N, q))
    (n1, q1), (n2, q2) = blocks
    k1, k2 = len(n1), len(n2)

    def block_sum(a, b):
        return [row + [field.zero] * k2 for row in a] + [[field.zero] * k1 + row for row in b]

    return field, k1 + k2, {"x": block_sum(n1, q2), "y": block_sum(q1, n2)}


@given(origin_primary(), origin_primary(), st.tuples(st.integers(0, 2), st.integers(0, 2)),
       st.integers(-3, 3).filter(bool))
def test_single_term_columns_are_normal_forms(case, other, shift, c):
    # a product that lands on a standard monomial of J is its own column;
    # the monomials come from J's staircase (from_cyclic) and from another
    # ideal's (quotient_module_length), whose products may leave J's
    J = case[0]
    ring = J.ring
    q = ring.monomial(shift, ring.field.from_int(c))
    monomials = J.standard_monomials() + other[0].standard_monomials()
    assert (koszul.multiplication_columns(q, J, monomials)
            == [J.normal_form(q * ring.monomial(m)).terms for m in monomials])


class TestFinLen:
    def test_square_of_max_quotient(self):
        M = FiniteLengthModule.from_cyclic(ideal("x^2, x*y, y^2"))
        assert koszul_finlen(M, X, Y).as_tuple() == (1, 3, 2)

    def test_residue_field(self):
        M = FiniteLengthModule.from_cyclic(ideal("x, y"))
        assert koszul_finlen(M, X, Y).as_tuple() == (1, 2, 1)

    def test_zero_module(self):
        assert koszul_finlen(FiniteLengthModule.zero(R), X, Y).as_tuple() == (0, 0, 0)

    def test_chi_vanishes_on_random_modules(self):
        rng = random.Random(2718)
        seen = 0
        while seen < 50:
            a, b = rng.randrange(1, 5), rng.randrange(1, 5)
            monos = [(a, 0), (0, b), (rng.randrange(1, 4), rng.randrange(1, 4))]
            J = Ideal([R.monomial(e) for e in monos])
            if J.colength() > 15:
                continue
            M = FiniteLengthModule.from_cyclic(J)
            f = R.monomial((rng.randrange(1, 3), 0)) + (
                R.monomial((0, rng.randrange(1, 3))) if rng.random() < 0.4 else R.zero())
            g = R.monomial((0, rng.randrange(1, 3)))
            tally = koszul_finlen(M, f, g)
            assert tally.chi == 0
            assert tally.chi1 >= 0
            seen += 1

    def test_noncommuting_actions_rejected(self):
        one = R.field.one
        zero = R.field.zero
        up = ((zero, one), (zero, zero))
        down = ((zero, zero), (one, zero))
        with pytest.raises(ValueError):
            FiniteLengthModule(R, ("a", "b"), {"x": up, "y": down})

    @pytest.mark.parametrize("x", [((1,),), ((0, 1), (1, 0)), ((0, 1, 0), (0, 0, 1), (0, 0, 2))])
    def test_non_nilpotent_action_rejected(self, x):
        n = len(x)
        zero = tuple((0,) * n for _ in range(n))
        with pytest.raises(ValueError, match="action of x is not nilpotent"):
            FiniteLengthModule(R, "abc"[:n], {"x": x, "y": zero})

    def test_repeated_labels_stay_apart(self):
        # the columns are keyed by basis position, not by label
        M = FiniteLengthModule(R, ("e", "e"), {"x": ((0, 1), (0, 0)), "y": ((0, 0), (0, 0))})
        assert M.columns(X) == [{}, {0: 1}]
        assert M.min_gens() == 1
        assert koszul_finlen(M, X, Y).as_tuple() == (1, 2, 1)

    @given(origin_primary())
    def test_matches_the_cyclic_tally(self, case):
        J, f, g = case
        assert koszul_finlen(FiniteLengthModule.from_cyclic(J), f, g) == koszul_cyclic(f, g, J)

    @given(commuting_nilpotents(), st.data())
    def test_columns_and_min_gens_match_the_dense_oracle(self, module, data):
        field, n, matrices = module
        ring = PolyRing(("x", "y"), field)
        M = FiniteLengthModule(ring, range(n), matrices)
        poly = data.draw(plane_polys(ring, constant=True))
        dense = dense_evaluate(poly, matrices, n)
        assert M.columns(poly) == [{i: row[j] for i, row in enumerate(dense)
                                    if not field.is_zero(row[j])} for j in range(n)]
        stacked = [matrices["x"][i] + matrices["y"][i] for i in range(n)]
        assert M.min_gens() == n - naive_mat_rank(stacked, field)


PLANE_RINGS = [
    R2,
    no_ulrich_semigroup(3),
    AffineSemigroup(2, ((2, 0), (3, 0), (0, 2), (0, 3), (1, 1))),
    AffineSemigroup(2, ((3, 0), (4, 0), (5, 0), (0, 2), (0, 5), (1, 2), (2, 1))),
    FULL_PLANE,
]


def gap_reach(G):
    gaps = gap_set_auto(G)
    return tuple(max((g[i] for g in gaps), default=0) for i in range(G.dim))


def proof_box(G, gens, a, b):
    """A box side above the generators' floor that holds the point set C of
    the koszul docstring for u = (a, 0), (0, b): every point of C lies below
    the largest generator plus the gap reach plus u, coordinate by coordinate.
    The same side covers the colon points C - u1 - u2 above the colon oracle's
    lower floor."""
    reach = gap_reach(G)
    return max(max(m[i] for m in gens) - min(m[i] for m in gens) + reach[i] + (a, b)[i]
               for i in (0, 1))


# (G, generators, a, b, tally) of modules whose homology lies far above the
# generators' degrees: negative coordinates pull those degrees down, and two
# generators K = 20 apart make H1 at the corner (K, 0).
REPRODUCERS = [
    (FULL_PLANE, ((3, -5), (-6, 4)), 2, 1, (4, 2, 0)),
    (R2, ((0, 0), (20, -20)), 2, 2, (12, 8, 0)),
    (FULL_PLANE, ((2, -3), (-4, 3)), 1, 1, (2, 1, 0)),
]


class TestMonomial:
    SOP = ((2, 0), (0, 2))

    def test_ring_over_itself_golden(self):
        M = MonomialModule(R2, ((0, 0),))
        assert koszul_monomial_R(M, self.SOP).as_tuple() == (6, 2, 0)

    def test_plane_as_module_matches_cyclic(self):
        M = MonomialModule(R2, ((0, 0), (1, 0), (0, 1)))
        over_r = koszul_monomial_R(M, self.SOP)
        over_s = koszul_cyclic(p("x^2"), p("y^2"), Ideal([], ring=R))
        assert over_r.as_tuple() == over_s.as_tuple() == (4, 0, 0)

    def test_h2_vanishes_for_torsion_free(self):
        for gens in (((0, 0),), ((2, 0), (0, 2)), ((4, 0),)):
            assert koszul_monomial_R(MonomialModule(R2, gens), self.SOP).h2 == 0

    def test_non_member_parameter_rejected(self):
        with pytest.raises(ValueError):
            koszul_monomial_R(MonomialModule(R2, ((0, 0),)), ((1, 0), (0, 2)))

    def test_zero_module(self):
        assert koszul_monomial_R(MonomialModule(R2, ()), self.SOP).as_tuple() == (0, 0, 0)

    @pytest.mark.parametrize("u", [((1, 1), (2, 0)), ((1, 0), (2, 0)), ((0, 1), (0, 0))])
    def test_pair_off_the_two_axes_refused(self, u):
        M = MonomialModule(FULL_PLANE, ((0, 0),))
        with pytest.raises(ValueError, match="not a power of x and a power of y"):
            koszul_monomial_R(M, u)
        with pytest.raises(ValueError, match="not a power of x and a power of y"):
            colon_module(M, 1, *u)

    def test_three_variable_ring_refused(self):
        G = AffineSemigroup(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        with pytest.raises(ValueError, match="two variables"):
            koszul_monomial_R(MonomialModule(G, ((0, 0, 0),)), ((1, 0, 0), (0, 1, 0)))

    def test_pair_in_either_order(self):
        M = MonomialModule(R2, ((0, 0), (3, -1)))
        assert koszul_monomial_R(M, ((0, 3), (2, 0))) == koszul_monomial_R(M, ((2, 0), (0, 3)))

    @pytest.mark.parametrize("G, gens, a, b, tally", REPRODUCERS)
    def test_reproducers_match_the_oracles(self, G, gens, a, b, tally):
        u1, u2 = (a, 0), (0, b)
        M = MonomialModule(G, gens)
        box = proof_box(G, gens, a, b)
        assert koszul_monomial_R(M, (u1, u2)).as_tuple() == tally
        assert naive_koszul_monomial(gens, G.generators, u1, u2, box) == tally
        _, length = colon_module(M, 1, u1, u2)
        assert length == naive_colon_count(gens, G.generators, u1, u2, box) == tally[1]

    def test_tallies_match_rank_oracle(self):
        rng = random.Random(1729)
        checked = 0
        while checked < 30:
            G = PLANE_RINGS[checked % len(PLANE_RINGS)]
            gens = tuple({(rng.randrange(-2, 4), rng.randrange(-2, 4))
                          for _ in range(rng.randrange(1, 4))})
            u1, u2 = (rng.randrange(1, 5), 0), (0, rng.randrange(1, 5))
            if not (sg_member(G, u1).member and sg_member(G, u2).member):
                continue
            M = MonomialModule(G, gens)
            box = proof_box(G, gens, u1[0], u2[1])
            oracle = naive_koszul_monomial(gens, G.generators, u1, u2, box)
            assert koszul_monomial_R(M, (u1, u2)).as_tuple() == oracle, (G, gens, u1, u2)
            checked += 1


class TestColonModule:
    def test_saturated_module_has_zero_colon(self):
        M = MonomialModule(R2, ((0, 0), (1, 0), (0, 1)))  # the plane ring itself
        _, length = colon_module(M, 1, (2, 0), (0, 2))
        assert length == 0

    def test_ring_colon_equals_h1_golden(self):
        M = MonomialModule(R2, ((0, 0),))
        for t in (1, 2):
            enlarged, length = colon_module(M, t, (2, 0), (0, 2))
            assert length == 2
            assert len(enlarged.gens) >= len(M.gens)

    def test_lengths_match_lattice_oracle(self):
        modules = [
            ((0, 0),),
            ((0, 0), (1, 0), (0, 1)),
            ((2, 0),),
            ((2, 0), (0, 2)),
            ((4, 0), (1, 1)),
            ((3, 0), (0, 3), (1, 1)),
        ]
        for gens in modules:
            M = MonomialModule(R2, gens)
            u1, u2 = (2, 0), (0, 2)
            _, length = colon_module(M, 1, u1, u2)
            h1 = koszul_monomial_R(M, (u1, u2)).h1
            oracle = naive_colon_count(gens, R2.generators, u1, u2)
            assert length == h1 == oracle

    def test_saturated_summand_contributes_nothing(self):
        # direct-sum style additivity is exercised through the sequences layer;
        # here: a module already saturated in its own right has colon length 0,
        # and a shifted cyclic module has the lattice oracle's colon length
        u1, u2 = (2, 0), (0, 2)
        base = ((4, 0),)
        _, l1 = colon_module(MonomialModule(R2, base), 1, u1, u2)
        plane_like = ((8, 8), (9, 8), (8, 9))
        _, l2 = colon_module(MonomialModule(R2, plane_like), 1, u1, u2)
        assert l2 == 0 == naive_colon_count(plane_like, R2.generators, u1, u2)
        assert l1 == naive_colon_count(base, R2.generators, u1, u2)


class TestMembershipPredicate:
    """The monomial routines read the support over a proven finite point
    set, the Koszul count by rows and the rest by one membership predicate;
    the oracles walk a box point by point."""

    @settings(max_examples=25)
    @given(st.sampled_from(PLANE_RINGS),
           st.sets(st.tuples(st.integers(-8, 5), st.integers(-8, 5)), min_size=1, max_size=3),
           st.integers(1, 4), st.integers(1, 4))
    @example(*REPRODUCERS[0][:4])
    @example(*REPRODUCERS[1][:4])
    @example(*REPRODUCERS[2][:4])
    def test_match_the_per_point_oracles(self, G, gens, a, b):
        u1, u2 = (a, 0), (0, b)
        assume(sg_member(G, u1).member and sg_member(G, u2).member)
        gens = tuple(gens)
        M = MonomialModule(G, gens)
        box = proof_box(G, gens, a, b)
        tally = koszul_monomial_R(M, (u1, u2))
        assert tally.as_tuple() == naive_koszul_monomial(gens, G.generators, u1, u2, box)
        assert tally.chi == a * b
        _, length = colon_module(M, 1, u1, u2)
        assert length == naive_colon_count(gens, G.generators, u1, u2, box) == tally.h1
        _, q_points = monomial_saturation(M)
        assert set(q_points) == naive_saturation_points(gens, G.generators, gap_reach(G))
        assert len(q_points) == len(set(q_points))
        assert monomial_min_gens(M) == naive_min_gens(gens, G.generators)


    def test_min_gens_in_three_variables(self):
        G = AffineSemigroup(3, ((2, 0, 0), (3, 0, 0), (0, 2, 0), (0, 3, 0), (0, 0, 2),
                                (0, 0, 3), (1, 1, 0), (1, 0, 1), (0, 1, 1)))
        rng = random.Random(3)
        for _ in range(30):
            gens = tuple({tuple(rng.randint(-2, 4) for _ in range(3))
                          for _ in range(rng.randint(1, 5))})
            assert monomial_min_gens(MonomialModule(G, gens)) == naive_min_gens(gens, G.generators)


class TestFarTranslates:
    """Two generators far apart: the H1 that their overlap makes sits at the
    corner (K, 0), far above every degree of the generators."""

    @pytest.mark.parametrize("K", [20, 2046, 10**9])
    def test_far_translates_add_up(self, K):
        u1, u2 = (2, 0), (0, 2)
        base = MonomialModule(R2, ((0, 0),))
        M = MonomialModule(R2, ((0, 0), (K, -K)))
        assert koszul_monomial_R(base, (u1, u2)).as_tuple() == (6, 2, 0)
        assert koszul_monomial_R(M, (u1, u2)).as_tuple() == (12, 8, 0)
        assert colon_module(M, 1, u1, u2)[1] == 8
        _, q_base = monomial_saturation(base)
        _, q_points = monomial_saturation(M)
        assert set(q_points) == set(q_base) | {(x + K, y - K) for x, y in q_base}
        assert monomial_min_gens(M) == 2

    def test_row_work_does_not_depend_on_the_spread(self, monkeypatch):
        # the windows follow C, not a box around the generators, so the
        # support rows built are the same at K = 20 and K = 10^9
        support_row = koszul._support_row
        calls = []

        def counted(*args):
            calls.append(args[2:])
            return support_row(*args)

        monkeypatch.setattr(koszul, "_support_row", counted)
        counts = []
        for K in (20, 10**9):
            calls.clear()
            M = MonomialModule(R2, ((0, 0), (K, -K)))
            assert koszul_monomial_R(M, ((2, 0), (0, 2))).as_tuple() == (12, 8, 0)
            assert colon_module(M, 1, (2, 0), (0, 2))[1] == 8
            assert all(width < 20 for _, _, width in calls)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_chi_check_catches_a_dropped_support_bit(self, monkeypatch):
        # the tally counts set bits, so a support row that loses a point
        # must still trip the chi = a*b check
        support_row = koszul._support_row
        dropped = []

        def lossy(*args):
            row = support_row(*args)
            if row and not dropped:
                dropped.append(args[2:])
                row ^= 1 << (row.bit_length() - 1)
            return row

        M = MonomialModule(R2, ((0, 0),))
        u = ((2, 0), (0, 2))
        assert koszul_monomial_R(M, u).as_tuple() == (6, 2, 0)
        monkeypatch.setattr(koszul, "_support_row", lossy)
        with pytest.raises(AssertionError, match=r"^chi 3 of a rank-one module differs "
                                                 r"from e\(\(x\^2, y\^2\)\) = 4$"):
            koszul_monomial_R(M, u)
        assert len(dropped) == 1


@st.composite
def finite_gap_semigroups(draw):
    """A plane semigroup with a finite gap set: (c, 0), (c + 1, 0),
    (0, d), (0, d + 1), (1, j) and (i, 1), and up to two more generators."""
    c, d, i, j = (draw(st.integers(1, 4)) for _ in range(4))
    extra = draw(st.sets(st.tuples(st.integers(1, 5), st.integers(1, 5)), max_size=2))
    return AffineSemigroup(2, tuple(sorted({(c, 0), (c + 1, 0), (0, d), (0, d + 1),
                                            (1, j), (i, 1)} | extra)))


class TestRowWindows:
    """The row windows against the point-by-point count over C: the same H0
    and H1 points, not only as many."""

    @given(finite_gap_semigroups(),
           st.sets(st.tuples(st.integers(-8, 5), st.integers(-8, 5)), max_size=3),
           st.tuples(st.integers(1, 3), st.integers(0, 2)),
           st.tuples(st.integers(1, 3), st.integers(0, 2)),
           st.booleans())
    @example(REPRODUCERS[0][0], REPRODUCERS[0][1], (2, 0), (1, 0), False)
    @example(REPRODUCERS[1][0], REPRODUCERS[1][1], (1, 0), (1, 0), False)
    @example(REPRODUCERS[2][0], REPRODUCERS[2][1], (1, 0), (1, 0), True)
    @example(R2, (), (1, 0), (1, 0), False)
    def test_points_match_the_pointset_oracle(self, G, gens, xs, ys, swap):
        # u1, u2 are nonzero sums of the axis generators, so they lie in G
        c = min(g[0] for g in G.generators if g[1] == 0)
        d = min(g[1] for g in G.generators if g[0] == 0)
        u1 = (xs[0] * c + xs[1] * (c + 1), 0)
        u2 = (0, ys[0] * d + ys[1] * (d + 1))
        u = (u2, u1) if swap else (u1, u2)
        M = MonomialModule(G, tuple(gens))
        h0, h1 = koszul._homology_points(M, u)
        want0, want1 = pointset_homology_points(M, u)
        assert sorted(koszul._points(h0)) == sorted(want0)
        assert sorted(koszul._points(h1)) == sorted(want1)
