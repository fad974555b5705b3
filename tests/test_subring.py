"""Presented subrings: semigroup and tag-variable membership, the ring
builder, extension ideals, and height-two multiplier witnesses."""
import random

import pytest

from ulrich_forge import (
    BuilderParams,
    HypothesisFailure,
    Ideal,
    PolyRing,
    PresentedSubring,
    build_ring,
    extend_to_S,
    parse_generator_list,
    parse_polynomial,
    parse_ring_spec,
    s2_multiplier_witness,
    sg_member,
)
from ulrich_forge.fields import QQ, PrimeField
from ulrich_forge.pipelines import no_ulrich_semigroup, no_ulrich_subring, reduction_ideal
from ulrich_forge.reduction import verify_minimal_reduction

R = PolyRing(("x", "y"))


def p(text):
    return parse_polynomial(text, R)


R2 = no_ulrich_subring(2)


class TestMembership:
    def test_member_with_certificate(self):
        res = R2.membership(p("x*y^3"))
        assert res.member
        assert R2.evaluate_representation(res.representation) == p("x*y^3")

    def test_non_member_returns_residue(self):
        res = R2.membership(p("x"))
        assert not res.member
        assert res.residue is not None and not res.residue.is_zero

    def test_zero_is_member(self):
        assert R2.membership(R.zero()).member

    def test_non_monomial_member(self):
        # x^2 - y^2 is a difference of generators
        res = R2.membership(p("x^2 - y^2"))
        assert res.member
        assert R2.evaluate_representation(res.representation) == p("x^2 - y^2")

    def test_dual_algorithm_agreement(self):
        rng = random.Random(101)
        for n in (2, 3):
            sub = no_ulrich_subring(n)
            G = no_ulrich_semigroup(n)
            for _ in range(200):
                e = (rng.randrange(0, 9), rng.randrange(0, 9))
                mono = R.monomial(e)
                assert sub.tag_membership(mono).member == sg_member(G, e).member


class TestSemigroupPath:
    """membership() of a monomial subring against the elimination oracle."""

    FIELDS = (QQ, PrimeField(7))

    def check_both_paths(self, sub, z):
        fast, slow = sub.membership(z), sub.tag_membership(z)
        assert fast.member == slow.member
        for res in (fast, slow):
            assert (res.residue is not None and not res.residue.is_zero) == (not res.member)
            if res.member:
                assert sub.evaluate_representation(res.representation) == z
        if not fast.member:
            G = sub.monomial_model
            assert set(fast.residue.terms) == {
                e for e in z.terms if not sg_member(G, e).member}
        return fast.member

    def test_random_polynomials_agree(self):
        rng = random.Random(404)
        for field in self.FIELDS:
            for n in (2, 3):
                sub = no_ulrich_subring(n, field)
                ring = sub.ring
                fixed = [parse_polynomial(t, ring)
                         for t in ("x^2 - y^2", "x*y + x", f"x^{n} - y^{n}", "0")]
                seen = set()
                for z in fixed + [ring.poly({
                        (rng.randrange(7), rng.randrange(7)): field.from_int(rng.randrange(1, 7))
                        for _ in range(rng.randrange(1, 5))}) for _ in range(60)]:
                    seen.add(self.check_both_paths(sub, z))
                assert seen == {True, False}

    def test_non_unit_generator_coefficients(self):
        for field in self.FIELDS:
            ring = PolyRing(("x", "y"), field)
            # 2*x^2 and x^2 share a semigroup generator
            sub = PresentedSubring(ring, parse_generator_list(
                "2*x^2, x*y, 3*y^2, x^2, 5*x^3", ring))
            assert len(sub.monomial_model.generators) == 4
            for text, member in (("x^4 + 5*x^3*y - y^2", True), ("4*x^5*y", True),
                                 ("x^2*y + y^2", False), ("x*y^2", False)):
                z = parse_polynomial(text, ring)
                assert self.check_both_paths(sub, z) == member

    def test_certificate_mismatch_fails_loudly(self, monkeypatch):
        sub = no_ulrich_subring(2)
        monkeypatch.setattr(PresentedSubring, "evaluate_representation",
                            lambda self, rep: self.ring.zero())
        with pytest.raises(AssertionError):
            sub.membership(p("x*y"))

    def test_pipeline_checks_skip_the_tag_basis(self):
        sub = no_ulrich_subring(3)
        x = sub.ring.var("x")
        assert s2_multiplier_witness(sub, x) is not None
        assert verify_minimal_reduction(sub, reduction_ideal(3, sub.ring).gens).verdict
        assert sub._tag_basis is None

    def test_non_monomial_subring_builds_the_tag_basis(self):
        base = PresentedSubring(R, parse_generator_list("x*y, x^2 - y^2, x^2", R))
        assert base.monomial_model is None
        assert base.membership(p("y^2")).member
        assert base._tag_basis is not None


class TestExtension:
    def test_max_ideal_extension_collapses(self):
        mS = extend_to_S(R2, R2.gens)
        assert mS.equals(Ideal(parse_generator_list("x*y, x^2, y^2", R)))

    def test_extension_of_reduction_is_itself(self):
        I = Ideal(parse_generator_list("x*y, x^2 - y^2", R))
        assert extend_to_S(R2, I.gens).equals(I)

    def test_empty_extension_is_zero(self):
        assert extend_to_S(R2, ()).is_zero_ideal

    def test_non_member_rejected(self):
        with pytest.raises(ValueError):
            extend_to_S(R2, [p("x")])


class TestWitness:
    def test_witness_for_x(self):
        u, v = s2_multiplier_witness(R2, p("x"))
        assert {str(u), str(v)} == {"x^2", "y^2"}
        assert R2.membership(u * p("x")).member
        assert R2.membership(v * p("x")).member
        assert Ideal([u, v]).colength() == 4

    def test_witness_for_y_by_symmetry(self):
        u, v = s2_multiplier_witness(R2, p("y"))
        assert {str(u), str(v)} == {"x^2", "y^2"}

    def test_member_input_rejected(self):
        with pytest.raises(ValueError):
            s2_multiplier_witness(R2, p("x*y"))

    def test_all_small_non_members_have_witnesses(self):
        for n in (2, 3):
            sub = no_ulrich_subring(n)
            G = no_ulrich_semigroup(n)
            for a in range(4):
                for b in range(4 - a):
                    if (a, b) == (0, 0) or sg_member(G, (a, b)).member:
                        continue
                    assert s2_multiplier_witness(sub, R.monomial((a, b))) is not None


class TestBuilder:
    def params(self, **overrides):
        base = dict(
            u=tuple(parse_generator_list("x*y, x^2 - y^2", R)),
            f=p("x^2"),
            multipliers=((p("x^2"), p("y^2")), (p("x^2"), p("y^2"))),
            extras=tuple(parse_generator_list("x^3, x^2*y, y^3, x*y^2", R)),
        )
        base.update(overrides)
        return BuilderParams(**base)

    def test_builds_the_plane_family_ring(self):
        report = build_ring(self.params())
        built = report.ring
        # same subalgebra as the monomial presentation, generator sets aside
        assert all(built.membership(g).member for g in R2.gens)
        assert all(R2.membership(g).member for g in built.gens)
        assert len(report.hypotheses) >= 4

    def test_builder_ring_matches_semigroup_model(self):
        for n in (2, 3):
            params = BuilderParams(
                u=tuple(parse_generator_list(f"x*y, x^{n} - y^{n}", R)),
                f=p(f"x^{n}"),
                multipliers=((p(f"x^{n}"), p(f"y^{n}")), (p(f"x^{n}"), p(f"y^{n}"))),
                extras=(p(f"x^{n+1}"), p(f"x^{n}*y"), p(f"y^{n+1}"), p(f"x*y^{n}")),
            )
            built = build_ring(params).ring
            sub = no_ulrich_subring(n)
            assert all(built.membership(g).member for g in sub.gens)
            assert all(sub.membership(g).member for g in built.gens)

    def test_f_inside_ideal_rejected(self):
        with pytest.raises(HypothesisFailure) as err:
            build_ring(self.params(f=p("x*y")))
        assert "f in I" in err.value.clause

    def test_integrally_closed_parameters_rejected(self):
        with pytest.raises(HypothesisFailure) as err:
            build_ring(self.params(u=tuple(parse_generator_list("x, y", R)), f=p("x^3")))
        assert "f" in err.value.clause

    def test_non_sop_rejected(self):
        with pytest.raises(HypothesisFailure) as err:
            build_ring(self.params(u=tuple(parse_generator_list("x^2, x^3", R))))
        assert "colength" in err.value.clause

    def test_multiplier_outside_partial_ring_rejected(self):
        with pytest.raises(HypothesisFailure):
            build_ring(self.params(multipliers=((p("x"), p("y^2")), (p("x^2"), p("y^2")))))

    def test_low_height_multiplier_pair_rejected(self):
        # x^4 = (x^2)^2 lies in the partial ring but (x^2, x^4) has height 1
        with pytest.raises(HypothesisFailure) as err:
            build_ring(self.params(multipliers=((p("x^2"), p("x^4")), (p("x^2"), p("y^2")))))
        assert "colength infinite" in err.value.clause

    def test_three_variable_monomial_build(self):
        S3 = PolyRing(("x", "y", "z"))

        def q(text):
            return parse_polynomial(text, S3)

        params = BuilderParams(
            u=(q("x^2"), q("y^2"), q("z^2")),
            f=q("x*y"),
            multipliers=((q("x^2"), q("y^2")), (q("y^2"), q("z^2")),
                         (q("x^2"), q("z^2"))),
            extras=(q("x*z"), q("y*z")),
        )
        report = build_ring(params)
        built = report.ring
        assert built.ring.nvars == 3
        # x*y is integral over (x^2, y^2, z^2) but outside its extension
        assert not Ideal([q("x^2"), q("y^2"), q("z^2")]).contains(q("x*y"))
        assert not built.membership(q("x")).member
        assert built.membership(q("x^3*y")).member


class TestRingSpecParsing:
    def test_documented_format(self):
        sub, reduction = parse_ring_spec(
            "ring ambient=(x,y) gens=[x^2, x^3, x^2*y, y^2, y^3, x*y^2, x*y]"
        )
        assert len(sub.gens) == 7
        assert reduction is None
        assert sub.monomial_model is not None

    def test_reduction_clause(self):
        _, reduction = parse_ring_spec(
            "ring ambient=(x,y) gens=[x*y, x^2] reduction=[x*y, x^2 - y^2]"
        )
        assert [str(g) for g in reduction] == ["x*y", "x^2 - y^2"]

    def test_field_clause(self):
        sub, _ = parse_ring_spec("ring ambient=(x,y) gens=[x^2, x*y, y^2] field=fp:7")
        assert sub.ring.field.name == "F_7"

    def test_generator_with_constant_term_rejected(self):
        with pytest.raises(ValueError):
            PresentedSubring(R, [p("x + 1")])
