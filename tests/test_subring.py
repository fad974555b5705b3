"""Presented subrings: semigroup and tag-variable membership, the ring
builder, extension ideals, and height-two multiplier witnesses."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from ulrich_forge import (
    BuilderParams,
    HypothesisFailure,
    Ideal,
    PolyRing,
    PresentedSubring,
    build_ring,
    groebner,
    parse_generator_list,
    parse_polynomial,
    parse_ring_spec,
    s2_multiplier_witness,
    sg_member,
    subring,
)
from ulrich_forge.cli import main
from ulrich_forge.fields import QQ, PrimeField
from ulrich_forge.koszul import MonomialModule, monomial_min_gens
from ulrich_forge.pipelines import (
    no_ulrich_semigroup,
    no_ulrich_subring,
    reduction_ideal,
    verify_ulrich_equivalence,
)
from ulrich_forge.reduction import verify_minimal_reduction
from ulrich_forge.semigroup import gap_obstruction, minimal_plane_generators

from oracles import naive_extension_criterion, naive_s2_multiplier_witness

R = PolyRing(("x", "y"))


def p(text):
    return parse_polynomial(text, R)


R2 = no_ulrich_subring(2)

# the three-variable ring that verify-51 refuses for want of a multiplier pair
SPACE_RING = "ring ambient=(x,y,z) gens=[x^2, x^3, y^2, y^3, z^2, z^3, x*y, y*z, x*z]"
COEFFICIENTS = st.sampled_from([1, 2, 3, -1, -2, -3])
# (dimension, finite gap set); the oracle takes about 0.4 s on a finite
# space ring, so that kind is drawn once in seven
RING_KINDS = st.sampled_from([(2, False), (2, True), (3, False)] * 2 + [(3, True)])


def unit(dim, i, a=1):
    return tuple(a if k == i else 0 for k in range(dim))


@st.composite
def monomial_subrings(draw):
    """(subring, whether its gap set is finite), in 2 or 3 variables with
    generator coefficients in +-1..3.  A finite plane ring has x^a, x^(a+1),
    y^b, y^(b+1), x*y^c and x^c*y; a finite space ring has two variables,
    x_k^(a+1), x_k^(a+2) and the two products x_i*x_k.  Otherwise each axis
    gets nothing, one power or (in the plane) two consecutive powers, and up
    to two more monomials are added."""
    dim, finite = draw(RING_KINDS)
    a = [draw(st.integers(1, 3)) for _ in range(dim)]
    if finite and dim == 2:
        c = [draw(st.integers(1, 2)) for _ in range(2)]
        exps = {unit(2, i, a[i] + s) for i in range(2) for s in (0, 1)}
        exps |= {(1, c[0]), (c[1], 1)}
    elif finite:
        k = draw(st.integers(0, 2))
        exps = {unit(3, k, a[k] + s) for s in (1, 2)}
        exps |= {e for i in range(3) if i != k
                 for e in (unit(3, i), tuple(int(j in (i, k)) for j in range(3)))}
    else:
        powers = [(), (0,), (0, 1)][:5 - dim]  # keeps the space oracle cheap
        exps = {unit(dim, i, a[i] + s) for i in range(dim) for s in draw(st.sampled_from(powers))}
        exps |= set(draw(st.lists(st.tuples(*[st.integers(0, 2)] * dim).filter(any),
                                  min_size=0 if exps else 1, max_size=2)))
    ring = PolyRing(("x", "y", "z")[:dim])
    gens = [ring.monomial(e).scale(draw(COEFFICIENTS)) for e in sorted(exps)]
    return PresentedSubring(ring, gens), finite


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


def test_tag_membership_reuses_the_basis_images(monkeypatch):
    images = []
    original = groebner._image

    def counted(p, order):
        images.append(p)
        return original(p, order)

    monkeypatch.setattr(groebner, "_image", counted)
    # four generators, not all monomials: a 24-element tag basis, whose
    # images the first call makes and every later call reuses
    sub = PresentedSubring(R, parse_generator_list("x^2, x*y - y^2, y^3, x^3 + y^3", R))
    assert sub.monomial_model is None
    assert sub.tag_membership(p("x^2*y^3")).member
    assert images
    images.clear()
    for text, member in (("x^3", True), ("x^2*y^2 - 2*x*y^3 + y^4", True),
                         ("x", False), ("y^2", False)):
        assert sub.tag_membership(p(text)).member == member
    assert images == []


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


# (generators, reduction) of verify-51 rings: R_n with and without extra
# integral monomials, one ring with Ulrich modules, and k[x, y]
CRITERION_RINGS = [
    *((f"x^{n}, x^{n + 1}, x^{n}*y, y^{n}, y^{n + 1}, x*y^{n}, x*y", f"x*y, x^{n} - y^{n}")
      for n in range(2, 7)),
    ("x^2, x^3, x^2*y, y^2, y^3, x*y^2, x*y, y^4", "x*y, x^2 - y^2"),
    ("x^3, x^4, x^3*y, y^3, y^4, x*y^3, x*y, x^4, x^2*y^3", "x*y, x^3 - y^3"),
    ("x^4, x^5, x^4*y, y^4, y^5, x*y^4, x*y, x^2*y^3, y^6", "x*y, x^4 - y^4"),
    ("x, x*y, y^2, y^3", "x, y^2"),
    ("x, y", None),
]


class TestExtensionCriterion:
    """verify-51's row (d), one normal-form scan of m_R's generators, against
    the ideal equality it replaced."""

    @pytest.mark.parametrize("gens, reduction", CRITERION_RINGS)
    def test_row_d_agrees_with_the_ideal_equality(self, gens, reduction):
        sub = PresentedSubring(R, parse_generator_list(gens, R))
        u = parse_generator_list(reduction, R) if reduction else None
        report = verify_ulrich_equivalence(sub, u)
        (row,) = [c for c in report.checks if c.claim.startswith("(d)")]
        equal, witness = naive_extension_criterion(sub, u or [p("x"), p("y")])
        assert row.verdict == ("true" if equal else "false")
        assert row.certificate == witness
        (data,) = [c.certificate for c in report.checks if c.anchor == "multiplicity-bookkeeping"]
        G = sub.monomial_model
        assert data["nu_of_cover"] == monomial_min_gens(
            MonomialModule(G, minimal_plane_generators(G)))

    def test_unit_reduction_is_refused_by_the_cli(self, tmp_path, capsys):
        ring = tmp_path / "r2.ring"
        ring.write_text("ring ambient=(x,y) gens=[x^2, x^3, x^2*y, y^2, y^3, x*y^2, x*y] "
                        "reduction=[1, x*y]\n", encoding="utf-8")
        assert main(["verify-51", "--ring", str(ring)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 1 is not in the maximal ideal of the subring\n"


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

    @pytest.mark.parametrize("gens, f", [
        ("x*y, x^2 - y^2, x^3, y^3, x^2*y, x*y^2", "x"),
        (None, "x + y"),
        (None, "x - 2*x*y"),
    ])
    def test_polynomial_search_agrees_with_the_oracle(self, gens, f):
        # a non-monomial subring, or R_2 with an f of two terms
        sub = R2 if gens is None else PresentedSubring(R, parse_generator_list(gens, R))
        fast, slow = s2_multiplier_witness(sub, p(f)), naive_s2_multiplier_witness(sub, p(f))
        assert fast is not None and tuple(map(str, fast)) == tuple(map(str, slow))

    @settings(max_examples=25)
    @given(monomial_subrings())
    def test_agrees_with_the_oracle(self, case):
        sub, finite = case
        assert not finite or gap_obstruction(sub.monomial_model) is None
        for name in sub.ring.variables:
            x = sub.ring.var(name)
            if sub.membership(x).member:
                continue
            fast, slow = s2_multiplier_witness(sub, x), naive_s2_multiplier_witness(sub, x)
            assert (fast and tuple(map(str, fast))) == (slow and tuple(map(str, slow)))

    @pytest.mark.parametrize("label, name", [
        *((f"R{n}", name) for n in (2, 3, 8) for name in "xy"),
        *(("space", name) for name in "xyz"),
    ])
    def test_one_colength_and_three_memberships(self, label, name, monkeypatch):
        # f itself, then u*f and v*f; the pair's colength is the one Buchberger.
        # The plane search builds no product polynomials and makes one
        # semigroup test per axis here (x^n*f and y^n*f are members), so
        # sg_member runs once for f, twice for the axes and twice for u*f, v*f
        sub = parse_ring_spec(SPACE_RING)[0] if label == "space" else no_ulrich_subring(int(label[1:]))
        calls = {"buchberger": 0, "membership": 0, "sg_member": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(groebner, "buchberger", counted("buchberger", groebner.buchberger))
        monkeypatch.setattr(PresentedSubring, "membership",
                            counted("membership", PresentedSubring.membership))
        monkeypatch.setattr(subring, "sg_member", counted("sg_member", subring.sg_member))

        def no_products(gens):
            raise AssertionError("the monomial search built product polynomials")

        monkeypatch.setattr(subring, "_products", no_products)
        witness = s2_multiplier_witness(sub, sub.ring.var(name))
        assert (witness is None) == (sub.ring.nvars == 3)
        assert calls["buchberger"] <= 1
        assert calls["membership"] <= 3
        assert calls["sg_member"] == (1 if label == "space" else 5)

    # the axis generators 2*x^2 and -x^2 share an exponent, so only the text
    # tells the candidates of that axis apart
    TIED = "2*x^2, x^3, y^2, -y^3, x*y, -x^2"

    @pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
    @pytest.mark.parametrize("name", "xy")
    def test_coefficient_ties_on_an_axis_agree_with_the_oracle(self, field, name):
        ring = PolyRing(("x", "y"), field)
        sub = PresentedSubring(ring, parse_generator_list(self.TIED, ring))
        f = ring.var(name)
        fast, slow = s2_multiplier_witness(sub, f), naive_s2_multiplier_witness(sub, f)
        assert fast is not None and tuple(map(str, fast)) == tuple(map(str, slow))
        if (field, name) == (QQ, "x"):
            assert tuple(map(str, fast)) == ("-x^2", "-y^3")

    @pytest.mark.parametrize("gens", ["x^2, x^3", "x^2, x^3, x^2*y, x*y"])
    @pytest.mark.parametrize("name", "xy")
    def test_one_axis_only_has_no_witness(self, gens, name):
        sub = PresentedSubring(R, parse_generator_list(gens, R))
        assert s2_multiplier_witness(sub, p(name)) is None
        assert naive_s2_multiplier_witness(sub, p(name)) is None

    @pytest.mark.parametrize("gens", ["x^2, x^3", "x^2, -x^3"])
    def test_one_variable_has_no_witness(self, gens):
        # (x^2, x^3) has finite colength but height one; k[x^2, x^3] is a
        # one-dimensional domain, so Cohen-Macaulay and its own S2-ification
        line = PolyRing(("x",))
        sub = PresentedSubring(line, parse_generator_list(gens, line))
        x = line.var("x")
        assert s2_multiplier_witness(sub, x) is None
        assert naive_s2_multiplier_witness(sub, x) is None

    def test_pair_without_finite_colength_fails_loudly(self, monkeypatch):
        monkeypatch.setattr(Ideal, "colength", lambda self: None)
        with pytest.raises(AssertionError, match="fails its certificate"):
            s2_multiplier_witness(R2, p("x"))

    def test_product_that_does_not_evaluate_back_fails_loudly(self, monkeypatch):
        monkeypatch.setattr(PresentedSubring, "evaluate_representation",
                            lambda self, rep: self.ring.zero())
        with pytest.raises(AssertionError, match="does not evaluate back"):
            s2_multiplier_witness(R2, p("x"))

    @pytest.mark.parametrize("cls, name, broken", [
        (Ideal, "colength", lambda self: None),
        (PresentedSubring, "evaluate_representation", lambda self, rep: self.ring.zero()),
    ], ids=["colength", "evaluate_representation"])
    def test_broken_pair_certificate_exits_4(self, cls, name, broken, monkeypatch, capsys):
        monkeypatch.setattr(cls, name, broken)
        assert main(["verify-35", "--n", "2"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("certificate self-check failed: ")
        assert "Traceback" not in err


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
