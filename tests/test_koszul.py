"""Koszul homology tallies: cyclic, ideal-module, finite-length, monomial."""
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from ulrich_forge import (
    FiniteLengthModule,
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
from ulrich_forge.groebner import ideal_multiplicity
from ulrich_forge import koszul
from ulrich_forge.koszul import (
    _auto_bound,
    _code_box,
    monomial_min_gens,
    monomial_saturation,
    quotient_module_length,
)
from ulrich_forge.pipelines import no_ulrich_semigroup
from ulrich_forge.semigroup import (
    CODE_WIDTH,
    FULL_PLANE,
    AffineSemigroup,
    decode,
    gap_set_auto,
    sg_member,
)

from oracles import (
    naive_colon_count,
    naive_koszul_monomial,
    naive_min_gens,
    naive_saturation_points,
    scan_support,
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

    def test_h1_matches_matrix_rank_oracle(self):
        rng = random.Random(42)
        checked = 0
        while checked < 25:
            a, b = rng.randrange(1, 4), rng.randrange(1, 4)
            monos = [(a, 0), (0, b)]
            if rng.random() < 0.7:
                monos.append((rng.randrange(1, 4), rng.randrange(1, 4)))
            gens = [R.monomial(e) for e in monos]
            if rng.random() < 0.6:
                gens.append(R.monomial((rng.randrange(0, 3), rng.randrange(0, 3)))
                            - R.monomial((rng.randrange(0, 3), rng.randrange(0, 3))))
            J = Ideal([g for g in gens if not g.is_zero])
            if J.is_unit_ideal or J.colength() > 30:
                continue
            f = R.monomial((rng.randrange(1, 3), 0))
            g = R.monomial((0, rng.randrange(1, 3)))
            via_chi = koszul_cyclic(f, g, J)
            via_ranks = koszul_finlen(FiniteLengthModule.from_cyclic(J), f, g)
            assert via_chi.as_tuple() == via_ranks.as_tuple()
            checked += 1

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

    def test_insufficient_bound_raises(self, monkeypatch):
        from ulrich_forge.patterns import InconclusiveError

        monkeypatch.setattr(koszul, "_auto_bound", lambda M, u1, u2: 4)
        with pytest.raises(InconclusiveError) as err:
            koszul_monomial_R(MonomialModule(R2, ((0, 0),)), self.SOP)
        assert "of degree bound 4" in str(err.value)

    def test_tallies_match_rank_oracle(self):
        rings = [
            R2,
            no_ulrich_semigroup(3),
            AffineSemigroup(2, ((2, 0), (3, 0), (0, 2), (0, 3), (1, 1))),
            AffineSemigroup(2, ((3, 0), (4, 0), (5, 0), (0, 2), (0, 5), (1, 2), (2, 1))),
            FULL_PLANE,
        ]
        rng = random.Random(1729)
        checked = 0
        while checked < 30:
            G = rings[checked % len(rings)]
            gens = tuple({(rng.randrange(-2, 4), rng.randrange(-2, 4))
                          for _ in range(rng.randrange(1, 4))})
            u1, u2 = (rng.randrange(1, 5), 0), (0, rng.randrange(1, 5))
            if not (sg_member(G, u1).member and sg_member(G, u2).member):
                continue
            M = MonomialModule(G, gens)
            floor = sum(min(m[i] for m in gens) for i in (0, 1))
            box = _auto_bound(M, u1, u2) - floor
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


class TestCodedSupports:
    """The monomial routines test membership by adding codes; the oracles
    walk tuples point by point."""

    @settings(max_examples=25)
    @given(st.sampled_from(PLANE_RINGS),
           st.sets(st.tuples(st.integers(-4, 3), st.integers(-4, 3)), min_size=1, max_size=3),
           st.integers(1, 4), st.integers(1, 4))
    def test_match_the_per_point_oracles(self, G, gens, a, b):
        u1, u2 = (a, 0), (0, b)
        assume(sg_member(G, u1).member and sg_member(G, u2).member)
        gens = tuple(gens)
        M = MonomialModule(G, gens)
        D = _auto_bound(M, u1, u2)
        box = D - sum(min(m[i] for m in gens) for i in (0, 1))
        tally = koszul_monomial_R(M, (u1, u2))
        assert tally.as_tuple() == naive_koszul_monomial(gens, G.generators, u1, u2, box)
        _, length = colon_module(M, 1, u1, u2)
        assert length == naive_colon_count(gens, G.generators, u1, u2, box) == tally.h1
        _, q_points = monomial_saturation(M)
        assert set(q_points) == naive_saturation_points(gens, G.generators, gap_reach(G))
        assert len(q_points) == len(set(q_points))
        assert monomial_min_gens(M) == naive_min_gens(gens, G.generators)


class TestCodeWidth:
    """Codes of CODE_WIDTH bits tell apart points whose coordinates (but the
    last) span at most 2**CODE_WIDTH values; a support that spans more is
    coded at a wider width, so no count changes."""

    G3 = AffineSemigroup(3, ((2, 0, 0), (3, 0, 0), (0, 2, 0), (0, 3, 0), (0, 0, 2),
                             (0, 0, 3), (1, 1, 0), (1, 0, 1), (0, 1, 1)))

    @pytest.mark.parametrize("past", [0, 1])
    def test_far_translates_add_up(self, past):
        u1, u2 = (2, 0), (0, 2)
        base = MonomialModule(R2, ((0, 0),))
        D = _auto_bound(base, u1, u2)
        # with its shift by u1 + u2 the first coordinate spans K + D + 3 values
        K = (1 << CODE_WIDTH) - D - 3 + past
        M = MonomialModule(R2, ((0, 0), (K, -K)))
        assert _auto_bound(M, u1, u2) == D
        assert _code_box(M, D, (u1, u2, (2, 2)))[1] == CODE_WIDTH + past
        one = koszul_monomial_R(base, (u1, u2))
        assert koszul_monomial_R(M, (u1, u2)) == one + one
        assert colon_module(M, 1, u1, u2)[1] == 2 * colon_module(base, 1, u1, u2)[1]
        _, q_base = monomial_saturation(base)
        _, q_points = monomial_saturation(M)
        assert set(q_points) == set(q_base) | {(x + K, y - K) for x, y in q_base}
        assert monomial_min_gens(M) == 2

    @pytest.mark.parametrize("past", [0, 1])
    def test_support_at_the_width_limit(self, past):
        # the second coordinate spans K + bound + 2 values
        bound = 4
        K = (1 << CODE_WIDTH) - bound - 2 + past
        M = MonomialModule(self.G3, ((0, 0, 0), (-K, K + 1, -1)))
        floor, width = _code_box(M, bound)
        assert width == CODE_WIDTH + past
        assert {decode(c, floor, width) for c in M.support(bound)} == scan_support(M, bound)
        assert monomial_min_gens(M) == 2

    def test_default_width_aliases_past_the_limit(self):
        # why the support takes its width from the box: (-K, K + 1, -1) has
        # code 0 at CODE_WIDTH bits, so the two translates share every code
        K = 1 << CODE_WIDTH
        M = MonomialModule(self.G3, ((0, 0, 0), (-K, K + 1, -1)))
        assert len(M.support(4, CODE_WIDTH)) * 2 == len(scan_support(M, 4))
        assert len(M.support(4)) == len(scan_support(M, 4))
