"""Koszul homology tallies: cyclic, ideal-module, finite-length, monomial."""
import random

import pytest

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
from ulrich_forge.pipelines import no_ulrich_semigroup
from ulrich_forge.semigroup import FULL_PLANE

from oracles import naive_colon_count

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

    def test_insufficient_bound_raises(self):
        from ulrich_forge.patterns import InconclusiveError

        with pytest.raises(InconclusiveError) as err:
            koszul_monomial_R(MonomialModule(R2, ((0, 0),)), self.SOP, degree_bound=4)
        assert "of degree bound 4" in str(err.value)


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
        # adjoining the saturated plane module leaves the colon length alone
        base = ((4, 0),)
        with_plane = ((4, 0), (6, 0), (5, 1), (4, 2))  # 4,0 plus x^4*(plane gens shifted deep)
        M1 = MonomialModule(R2, base)
        _, l1 = colon_module(M1, 1, (2, 0), (0, 2))
        sat_part = MonomialModule(FULL_PLANE, ((8, 8),))
        # direct-sum style additivity is exercised through the sequences layer;
        # here: a module already saturated in its own right has colon length 0
        plane_like = MonomialModule(R2, ((8, 8), (9, 8), (8, 9)))
        _, l2 = colon_module(plane_like, 1, (2, 0), (0, 2))
        assert l2 == 0
        assert l1 >= 0
