"""Reduction and integral-closure certificates."""
import random

import pytest
from hypothesis import given, strategies as st

from ulrich_forge import (
    Ideal,
    PolyRing,
    groebner,
    is_integral,
    is_reduction,
    parse_generator_list,
    parse_polynomial,
    reduction,
    verify_minimal_reduction,
)
from ulrich_forge.cli import main
from ulrich_forge.pipelines import no_ulrich_subring
from ulrich_forge.reduction import NEGATIVE_MULTIPLICITY

from oracles import brute_newton_twice_area, in_newton_polyhedron

R = PolyRing(("x", "y"))


def p(text):
    return parse_polynomial(text, R)


def ideal(text):
    return Ideal(parse_generator_list(text, R))


I_2 = ideal("x*y, x^2 - y^2")


class TestIsReduction:
    def test_adjoining_integral_element(self):
        # x^2 satisfies z^2 - (x^2 - y^2) z - (xy)^2 = 0 over I
        z = p("x^2")
        identity = z * z - p("x^2 - y^2") * z - p("x*y") ** 2
        assert identity.is_zero
        cert = is_reduction(I_2, I_2.sum(Ideal([z])))
        assert cert.positive and cert.t <= 2

    def test_multiplicity_negative(self):
        cert = is_reduction(I_2, ideal("x, y"))
        assert cert.kind == "NEGATIVE_MULTIPLICITY"
        assert (cert.e_small, cert.e_large) == (4, 1)

    def test_identity_reduction(self):
        cert = is_reduction(I_2, I_2)
        assert cert.positive and cert.t == 0

    def test_containment_enforced(self):
        with pytest.raises(ValueError):
            is_reduction(ideal("x^2"), ideal("y"))

    def test_unequal_reduced_bases_fail_loudly(self, monkeypatch):
        # J = I passes the generator check at t = 0; J's reduced basis is
        # then made to differ from I's by a non-monic first element
        I, J = ideal("x*y, x^2 - y^2"), ideal("x*y, x^2 - y^2")
        basis = Ideal.groebner_basis

        def broken(self):
            gb = basis(self)
            return (gb[0].scale(2),) + gb[1:] if self is J else gb

        monkeypatch.setattr(Ideal, "groebner_basis", broken)
        with pytest.raises(AssertionError, match="reduction re-verification failed"):
            is_reduction(I, J)

    def test_finite_colength_enforced(self):
        with pytest.raises(ValueError):
            is_reduction(ideal("x"), ideal("x, y"))


class TestCertifiedMultiplicities:
    def test_window_reproducer_is_positive(self, capsys):
        # every exponent of J lies on or above the segment from (10, 0) to
        # (0, 11); the window's e_J = 109 once gave NEGATIVE_MULTIPLICITY
        assert main(["reduction", "--ideal", "x^10, y^11",
                     "--in", "y^11, x^3*y^8, x^8*y^5, x^9*y^10, x^10"]) == 0
        assert capsys.readouterr().out == "POSITIVE(t=6)\n"


POS1, POS3, POS6 = "POSITIVE(t=1)", "POSITIVE(t=3)", "POSITIVE(t=6)"
NEG = "NEGATIVE_MULTIPLICITY(e_I=4, e_J=1)"


def _inconclusive(t_max):
    return f"INCONCLUSIVE(t_max={t_max})"


# outcome and ideal_multiplicity calls at t_max = 0..7: the multiplicities
# are compared once, after t = min(2, t_max) fails, and never again
SEARCH_TABLE = [
    ("x^2, y^2", "x^2, x*y, y^2",
     [(_inconclusive(0), 2)] + [(POS1, 0)] * 7),
    ("x^10, y^11", "y^11, x^3*y^8, x^8*y^5, x^9*y^10, x^10",
     [(_inconclusive(t), 2) for t in range(6)] + [(POS6, 2)] * 2),
    ("x*y, x^2 - y^2", "x, y", [(NEG, 2)] * 8),
    ("x^4, y^4", "x^4, x^3*y, y^4",
     [(_inconclusive(t), 2) for t in range(3)] + [(POS3, 2)] * 5),
]


@pytest.mark.parametrize("small, large, expected", SEARCH_TABLE)
def test_search_compares_multiplicities_once(small, large, expected, monkeypatch):
    calls = []
    original = reduction.ideal_multiplicity

    def counted(I):
        calls.append(I)
        return original(I)

    monkeypatch.setattr(reduction, "ideal_multiplicity", counted)
    seen = []
    for t_max in range(8):
        calls.clear()
        cert = is_reduction(ideal(small), ideal(large), t_max)
        seen.append((cert.describe(), len(calls)))
    assert seen == expected


plane_exponents = st.tuples(st.integers(0, 6), st.integers(0, 6))


@given(st.integers(1, 6), st.integers(1, 6), st.lists(plane_exponents, max_size=3),
       st.lists(plane_exponents, min_size=1, max_size=2))
def test_monomial_reduction_iff_equal_newton_polyhedra(a, b, more, extra):
    # the integral closure of a monomial ideal is spanned by the monomials
    # of its Newton polyhedron, so I in J is a reduction iff they agree
    small = [(a, 0), (0, b)] + more
    I = Ideal([R.monomial(e) for e in small])
    J = Ideal([R.monomial(e) for e in small + extra])
    cert = is_reduction(I, J)
    if all(in_newton_polyhedron(small, v) for v in extra):
        assert cert.positive
    else:
        assert cert.kind == NEGATIVE_MULTIPLICITY
        assert cert.e_small == brute_newton_twice_area(small)
        assert cert.e_large == brute_newton_twice_area(small + extra)


class TestEachBasisOnce:
    """I * J^0 is I itself, and the multiplicity fallback builds no power
    tower for an ideal with at most two generators or a monomial basis, so
    no power of J and no copy of I is reduced twice."""

    @pytest.fixture
    def reduced(self, monkeypatch):
        lists = []
        original = groebner.buchberger

        def counted(gens, *args):
            lists.append(tuple(g.to_str() for g in gens))
            return original(gens, *args)

        monkeypatch.setattr(groebner, "buchberger", counted)
        return lists

    def test_negative(self, reduced):
        cert = is_reduction(ideal("x*y, x^2 - y^2"), ideal("x, y"))
        assert cert.kind == "NEGATIVE_MULTIPLICITY"
        # J, I, I*J, J^2, I*J^2; J^3 is not in I*J^2, which its generators
        # show, and both multiplicities are colengths of two-generated ideals
        assert len(reduced) == 5
        assert len(set(reduced)) == 5

    def test_positive_after_the_fallback(self, reduced):
        cert = is_reduction(ideal("x^4, y^4"), ideal("x^4, x^3*y, y^4"))
        assert cert.positive and cert.t == 3
        # J, I, I*J, J^2, I*J^2, J^3, then I*J^3, whose generator list J^4
        # repeats and reads from the shared basis cache; e(I) is a colength
        # and e(J) a Newton area, so the fallback reduces nothing
        assert len(reduced) == 7
        assert len(set(reduced)) == 7


class TestIsIntegral:
    def test_positive_with_membership_gap(self):
        for n in range(2, 6):
            I = ideal(f"x*y, x^{n} - y^{n}")
            z = p(f"x^{n}")
            cert = is_integral(z, I)
            assert cert.positive
            assert not I.normal_form(z).is_zero  # jointly: z in closure(I) - I

    def test_negative_example(self):
        cert = is_integral(p("x"), I_2)
        assert cert.kind == "NEGATIVE_MULTIPLICITY"
        assert (cert.e_small, cert.e_large) == (4, 2)

    def test_element_of_ideal(self):
        cert = is_integral(p("x*y"), I_2)
        assert cert.positive and cert.t == 0

    def test_monotone_in_the_ideal(self):
        # integral over I forces integral over any larger finite-colength ideal
        z = p("x^2")
        bigger = I_2.sum(ideal("x^3"))
        assert is_integral(z, I_2).positive
        assert is_integral(z, bigger).positive

    def test_order_bound_inside_square_of_max(self):
        # certified-integral elements over an ideal inside m^2 stay in m^2
        rng = random.Random(13)
        candidates = [p("x^2"), p("x^3"), p("x^2*y"), p("y^3"), p("x*y^2"),
                      p("x^2 + x*y"), p("y^2 - x*y")]
        for z in candidates:
            cert = is_integral(z, I_2)
            if cert.positive:
                assert all(sum(e) >= 2 for e in z.terms)


class TestVerifyMinimalReduction:
    def test_plane_family_certificate(self):
        sub = no_ulrich_subring(2)
        report = verify_minimal_reduction(sub, parse_generator_list("x*y, x^2 - y^2", R))
        assert report.verdict
        assert len(report.items) == 7
        assert all(cert.positive for _, cert in report.items)

    def test_alternative_parameter_pair(self):
        sub = no_ulrich_subring(2)
        report = verify_minimal_reduction(sub, parse_generator_list("x^2, y^2", R))
        assert report.verdict  # (x^2, y^2) also reduces the maximal ideal

    def test_non_sop_rejected(self):
        sub = no_ulrich_subring(2)
        with pytest.raises(ValueError) as err:
            verify_minimal_reduction(sub, parse_generator_list("x^2, x^3", R))
        assert "colength" in str(err.value)

    def test_elements_outside_subring_rejected(self):
        sub = no_ulrich_subring(2)
        with pytest.raises(ValueError):
            verify_minimal_reduction(sub, parse_generator_list("x, y", R))

    @pytest.mark.parametrize("pair", ["1, x*y", "1 + x*y, x^2 - y^2"])
    def test_elements_with_a_constant_term_rejected(self, pair):
        # 1 and 1 + x*y lie in R_2 but not in its maximal ideal
        sub = no_ulrich_subring(2)
        with pytest.raises(ValueError, match="not in the maximal ideal of the subring"):
            verify_minimal_reduction(sub, parse_generator_list(pair, R))
