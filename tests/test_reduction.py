"""Reduction and integral-closure certificates."""
import random

import pytest
from hypothesis import example, given, strategies as st

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
from ulrich_forge.fields import QQ, PrimeField
from ulrich_forge.patterns import InconclusiveError
from ulrich_forge.pipelines import no_ulrich_subring
from ulrich_forge.reduction import NEGATIVE_MULTIPLICITY
from ulrich_forge.subring import parse_ring_spec

from oracles import (
    brute_newton_twice_area,
    in_newton_polyhedron,
    power_equality_integral,
    power_equality_reduction,
)

R = PolyRing(("x", "y"))
FIELDS = [QQ, PrimeField(7), PrimeField(32003)]


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

    def test_finite_colength_enforced(self):
        with pytest.raises(ValueError):
            is_reduction(ideal("x"), ideal("x, y"))


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


def _outcome(search, *args):
    """describe() of a certificate, or the message of a search that raised
    InconclusiveError."""
    try:
        return search(*args).describe()
    except InconclusiveError as exc:
        return f"inconclusive: {exc}"


@st.composite
def workload_ideals(draw):
    """The ideals workload's shape over Q, F_7 or F_32003: x^a * (1 + c*x)
    and y^a * (1 + c'*y), which cut out a finite grid through the origin,
    plus one or two forms of degree 2..min(a, 3) with one or two terms; and
    a, which bounds the degrees of the elements added to it."""
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
    return Ideal(gens, ring=ring), a


def _plane_monomial(draw, ring, low, high):
    degree = draw(st.integers(low, high))
    i = draw(st.integers(0, degree))
    return ring.monomial((i, degree - i))


@st.composite
def workload_pairs(draw):
    """(I, J, t_max): I in the ideals workload's shape, J = I plus one or
    two monomials of degree 1..a+1, t_max 0..3 or T_MAX."""
    I, a = draw(workload_ideals())
    extra = [_plane_monomial(draw, I.ring, 1, a + 1) for _ in range(draw(st.integers(1, 2)))]
    t_max = draw(st.sampled_from((0, 1, 2, 3, groebner.T_MAX)))
    return I, I.sum(Ideal(extra, ring=I.ring)), t_max


@st.composite
def monomial_pairs(draw):
    """(I, J, t_max): I = (x^a, y^b) plus up to two monomials, J = I plus
    one or two more, over Q, F_7 or F_32003.  Half the time the added
    monomials lie on or above the segment from (a, 0) to (0, b), so that
    they are integral over (x^a, y^b) and I is a reduction of J."""
    ring = PolyRing(("x", "y"), draw(st.sampled_from(FIELDS)))
    a, b = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    exps = st.tuples(st.integers(0, 6), st.integers(0, 6))
    small = [(a, 0), (0, b)] + draw(st.lists(exps, max_size=2))
    above = [(i, j) for i in range(1, a) for j in range(-(-(a - i) * b // a), b)]
    if above and draw(st.booleans()):
        extra = draw(st.lists(st.sampled_from(above), min_size=1, max_size=2))
    else:
        extra = draw(st.lists(exps, min_size=1, max_size=2))
    I = Ideal([ring.monomial(e) for e in small], ring=ring)
    J = Ideal([ring.monomial(e) for e in small + extra], ring=ring)
    return I, J, draw(st.sampled_from((0, 1, 2, 3, groebner.T_MAX)))


@st.composite
def workload_elements(draw):
    """(z, I): a monomial z of degree 1..a over an ideal in the ideals
    workload's shape."""
    I, a = draw(workload_ideals())
    return _plane_monomial(draw, I.ring, 1, a), I


@st.composite
def parameter_elements(draw):
    """(z, I): I = (x^i*y^j, x^a - y^a) with i + j < a, as in the ideals
    workload's integrality jobs, and a monomial z of degree 2..a, over Q,
    F_7 or F_32003."""
    ring = PolyRing(("x", "y"), draw(st.sampled_from(FIELDS)))
    a = draw(st.integers(3, 5))
    i = draw(st.integers(1, a - 2))
    j = draw(st.integers(1, a - 1 - i))
    I = Ideal([ring.monomial((i, j)), ring.monomial((a, 0)) - ring.monomial((0, a))], ring=ring)
    return _plane_monomial(draw, ring, 2, a), I


class TestAgainstPowerEquality:
    """is_reduction and is_integral give the certificate of the search that
    builds J^(t+1) and compares reduced bases (power_equality_reduction)."""

    @given(st.one_of(workload_pairs(), monomial_pairs()))
    # the first failing product at t = 1 lies in I * J^2, and another
    # product of it with J's generators never lies in I * J^t or needs t = 4
    @example((ideal("x^4, y^5"), ideal("x^4, y^5, x^2*y^3, x^3*y"), groebner.T_MAX))
    @example((ideal("x^5, y^5"), ideal("x^5, y^5, x^3*y^3, x^4*y"), groebner.T_MAX))
    def test_reduction(self, case):
        I, J, t_max = case
        assert _outcome(is_reduction, I, J, t_max) == _outcome(power_equality_reduction, I, J, t_max)

    @given(st.one_of(workload_elements(), parameter_elements()))
    def test_integral(self, case):
        z, I = case
        assert _outcome(is_integral, z, I) == _outcome(power_equality_integral, z, I)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    @pytest.mark.parametrize("small, large, expected", SEARCH_TABLE)
    def test_search_table(self, small, large, expected, field):
        ring = PolyRing(("x", "y"), field)
        I = Ideal(parse_generator_list(small, ring))
        J = Ideal(parse_generator_list(large, ring))
        for t_max, (line, _) in enumerate(expected):
            assert is_reduction(I, J, t_max).describe() == line
            assert power_equality_reduction(I, J, t_max).describe() == line

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    @pytest.mark.parametrize("small, large, line", [
        ("x^4, y^4, z^4", "x^4, y^4, z^4, x^2*y, y^2*z, x*z^3",
         "NEGATIVE_MULTIPLICITY(e_I=64, e_J=40)"),
        ("(x^2 + y*z)^2, y^2 + x*z, z^2 + x*y", "x^2 + y*z, y^2 + x*z, z^2 + x*y, x*y*z",
         "NEGATIVE_MULTIPLICITY(e_I=16, e_J=8)"),
    ], ids=["e_J=40", "e_J=8"])
    def test_three_variable_pins(self, small, large, line, field):
        ring = PolyRing(("x", "y", "z"), field)
        I = Ideal(parse_generator_list(small, ring))
        J = Ideal(parse_generator_list(large, ring))
        assert is_reduction(I, J).describe() == line
        assert power_equality_reduction(I, J).describe() == line


class TestEachBasisOnce:
    """I * J^0 is I itself, each I * J^t is built from the basis of
    I * J^(t-1), no power of J is built, and the multiplicity fallback builds
    no power tower for an ideal with at most two generators or a monomial
    basis, so no ideal is reduced twice."""

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
        # J (x*y is not among J's generators, so I <= J takes normal forms),
        # I, I*J and I*J^2; the products of three of x, y are not in I*J^2,
        # and both multiplicities are colengths of two-generated ideals
        assert len(reduced) == 4
        assert len(set(reduced)) == 4

    def test_positive_after_the_fallback(self, reduced):
        cert = is_reduction(ideal("x^4, y^4"), ideal("x^4, x^3*y, y^4"))
        assert cert.positive and cert.t == 3
        # I, I*J, I*J^2, then J for e(J), a Newton area, and I*J^3, which
        # holds (x^3*y)^4; I <= J is read off J's generators and e(I) is a
        # colength
        assert len(reduced) == 5
        assert len(set(reduced)) == 5

    def test_integral_element_reduces_one_basis(self, reduced):
        # once I's basis is warm, z^2 in I * (I + (z)) needs that one basis
        for n in range(2, 6):
            I = ideal(f"x*y, x^{n} - y^{n}")
            I.groebner_basis()
            reduced.clear()
            assert is_integral(p(f"x^{n}"), I).describe() == "POSITIVE(t=1)"
            assert reduced == [tuple(g.to_str() for g in groebner._products(
                I.gens, I.gens + (p(f"x^{n}"),), I.order, R).gens)]

    def test_window_reproducer(self, reduced):
        # I, I*J, ..., I*J^6 and J for e(J); the power-equality search
        # reduces J^2, ..., J^7 as well
        cert = is_reduction(ideal("x^10, y^11"),
                            ideal("y^11, x^3*y^8, x^8*y^5, x^9*y^10, x^10"))
        assert cert.describe() == "POSITIVE(t=6)"
        assert len(reduced) == len(set(reduced)) == 8


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


class TestGlobalRefusalOfALocalReduction:
    """(x^2 - x^3, y^2) is a minimal reduction of the maximal ideal of the
    local ring at the origin, since x^2 - x^3 = x^2 * (1 - x) and 1 - x is a
    unit there; but it also vanishes at (1, 0), so the global test refuses
    it.  These pins hold until lengths and multiplicities are taken at the
    origin."""

    SPEC = "ring ambient=(x,y) gens=[x^2, x^3, y^2, y^3, x*y] reduction=[x^2 - x^3, y^2]\n"

    def test_certificates(self):
        sub, pair = parse_ring_spec(self.SPEC)
        report = verify_minimal_reduction(sub, pair)
        assert not report.verdict
        assert [(g.to_str(), cert.describe()) for g, cert in report.items] == [
            ("x^2", "NEGATIVE_MULTIPLICITY(e_I=6, e_J=4)"),
            ("x^3", "NEGATIVE_MULTIPLICITY(e_I=6, e_J=4)"),
            ("y^2", "POSITIVE(t=0)"),
            ("y^3", "POSITIVE(t=0)"),
            ("x*y", "NEGATIVE_MULTIPLICITY(e_I=6, e_J=5)"),
        ]

    def test_verify_51_refuses(self, tmp_path, capsys):
        ring = tmp_path / "local.ring"
        ring.write_text(self.SPEC)
        assert main(["verify-51", "--ring", str(ring)]) == 0
        out = capsys.readouterr().out
        assert ("certificate: hypotheses not satisfied: "
                "provided pair is not a minimal reduction\n") in out
        assert "verdict: HYPOTHESES_NOT_SATISFIED\n" in out
