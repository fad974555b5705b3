"""Module families: asymptotic tables, torsion reduction, saturation."""
import random
from fractions import Fraction

import pytest

from ulrich_forge import (
    DirectSum,
    FiniteLengthModule,
    FinLenModule,
    FreeModule,
    Ideal,
    IdealModule,
    MonomialModule,
    MonomialRModule,
    PolyRing,
    SequenceFamily,
    analyze,
    direct_sum,
    parse_family_spec,
    parse_generator_list,
    resolution_ranks,
    saturate_over_S,
    torsion_reduce,
)
from ulrich_forge import sequences
from ulrich_forge.fields import QQ, PrimeField
from ulrich_forge.koszul import koszul_ideal_module
from ulrich_forge.pipelines import no_ulrich_semigroup
from ulrich_forge.sequences import CyclicModule, sim_judgment

R = PolyRing(("x", "y"))
R2 = no_ulrich_semigroup(2)


def ideal(text):
    return Ideal(parse_generator_list(text, R))


class TestAnalyze:
    def test_free_plus_maximal_ideal_family(self):
        family = parse_family_spec("freeplus ideal=(x,y) growth=n", R, (1, 10))
        table = analyze(family)
        assert table.verdict == "LIM_ULRICH_TREND"
        assert table.exact
        assert table.formulas["e/nu"] == "(n + 1)/(n + 2)"
        assert table.formulas["h1/nu"] == "1/(n + 2)"
        for row in table.rows:
            assert row.e_over_nu == Fraction(row.n + 1, row.n + 2)
            assert row.h1_over_nu == Fraction(1, row.n + 2)

    def test_growing_power_ideal_family(self):
        family = parse_family_spec("powers ideal=(x,y^n)", R, (1, 10))
        table = analyze(family)
        assert table.verdict == "NOT_LIM_CM_EVIDENCE"
        assert table.exact
        assert all(row.h1_over_nu == Fraction(1, 2) for row in table.rows)

    def test_free_family(self):
        table = analyze(parse_family_spec("free growth=n", R, (1, 8)))
        assert table.verdict == "LIM_ULRICH_TREND"
        assert all(row.h1 == row.h2 == 0 for row in table.rows)

    def test_direct_sum_additivity(self):
        fam_sum = SequenceFamily(
            rule=lambda n: direct_sum(FreeModule(n), IdealModule(ideal("x, y"))),
            sop=(R.var("x"), R.var("y")), index_range=(1, 6), base_ring=R)
        fam_free = SequenceFamily(rule=lambda n: FreeModule(n),
                                  sop=(R.var("x"), R.var("y")),
                                  index_range=(1, 6), base_ring=R)
        fam_ideal = SequenceFamily(rule=lambda n: IdealModule(ideal("x, y")),
                                   sop=(R.var("x"), R.var("y")),
                                   index_range=(1, 6), base_ring=R)
        rows_sum = analyze(fam_sum).rows
        rows_free = analyze(fam_free).rows
        rows_ideal = analyze(fam_ideal).rows
        for s, f, i in zip(rows_sum, rows_free, rows_ideal):
            assert s.nu == f.nu + i.nu
            assert s.e == f.e + i.e
            assert (s.h0, s.h1, s.h2) == (f.h0 + i.h0, f.h1 + i.h1, f.h2 + i.h2)

    def test_zero_module_rejected(self):
        family = SequenceFamily(rule=lambda n: FreeModule(0),
                                sop=(R.var("x"), R.var("y")),
                                index_range=(1, 4), base_ring=R)
        with pytest.raises(ValueError):
            analyze(family)


def random_ideal(rng, ring):
    """One to three generators of one to three terms, degree at most 3."""
    fld = ring.field
    gens = []
    for _ in range(rng.randint(1, 3)):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            a = rng.randint(0, 3)
            terms[(a, rng.randint(0, 3 - a))] = fld.from_int(rng.choice([-2, -1, 1, 3]))
        gens.append(ring.poly(terms))
    return Ideal(gens, ring=ring)


class TestModuleInvariants:
    @pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(32003)],
                             ids=lambda f: f.name)
    def test_ideal_nu_matches_koszul_h0(self, field):
        ring = PolyRing(("x", "y"), field)
        x, y = ring.gens()
        rng = random.Random(5)
        # the unit ideal, principal ideals, ideals that are not m-primary or
        # miss the origin, then m-primary ones
        fixed = ["1", "x", "x^2 + y^3", "x*y", "x^2, x*y", "y + 1", "x, y^2", "x, y",
                 "x^3, x^2*y, x*y^2, y^3", "x^2*y, x*y^2 + y^4, x^5"]
        ideals = [Ideal(parse_generator_list(t, ring)) for t in fixed]
        ideals += [random_ideal(rng, ring) for _ in range(30)]
        for J in ideals:
            assert IdealModule(J).nu() == koszul_ideal_module(x, y, J).h0, J

    def test_ideal_nu_costs_no_koszul_tally(self, monkeypatch):
        calls = []
        original = sequences.koszul_ideal_module

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(sequences, "koszul_ideal_module", counted)
        table = analyze(parse_family_spec("freeplus ideal=(x,y) growth=n", R, (1, 10)))
        assert [row.nu for row in table.rows] == [n + 2 for n in range(1, 11)]
        assert len(calls) == 10

    def test_empty_direct_sum_is_zero_module(self):
        zero = DirectSum(())
        assert zero.nu() == 0
        assert zero.mult() == 0
        assert zero.dimension() == -1
        assert zero.tally((R.var("x"), R.var("y"))).as_tuple() == (0, 0, 0)
        assert zero.torsion_free
        family = SequenceFamily(rule=lambda n: zero, sop=(R.var("x"), R.var("y")),
                                index_range=(1, 3), base_ring=R)
        with pytest.raises(ValueError, match="is zero"):
            analyze(family)

    def test_cyclic_module_invariants(self):
        line = CyclicModule(ideal("x"))
        assert (line.nu(), line.mult(), line.dimension()) == (1, 0, 1)
        assert (CyclicModule(ideal("1")).nu(), CyclicModule(ideal("1")).dimension()) == (0, -1)
        assert CyclicModule(Ideal([], ring=R)).mult() == 1

    def test_torsion_free_flag_decides_the_split_shape(self):
        k_module = FinLenModule(FiniteLengthModule.from_cyclic(ideal("x, y")))
        sop = (R.var("x"), R.var("y"))
        cyclic = SequenceFamily(
            rule=lambda n: direct_sum(k_module, CyclicModule(ideal("x")), FreeModule(n)),
            sop=sop, index_range=(1, 4), base_ring=R)
        with pytest.raises(ValueError, match="not in the decidable split shape"):
            torsion_reduce(cyclic)
        nested = SequenceFamily(
            rule=lambda n: DirectSum((k_module, DirectSum((FreeModule(n), FreeModule(1))))),
            sop=sop, index_range=(1, 4), base_ring=R)
        reduced, ledger = torsion_reduce(nested)
        assert all(ok for _, ok in ledger.identities)
        assert [row.nu for row in analyze(reduced).rows] == [2, 3, 4, 5]


class TestResolutionRanks:
    def test_maximal_ideal(self):
        assert resolution_ranks(ideal("x, y")) == (2, 1)

    def test_principal(self):
        assert resolution_ranks(ideal("x")) == (1, 0)

    def test_square_of_maximal(self):
        assert resolution_ranks(ideal("x^2, x*y, y^2")) == (3, 2)

    def test_rank_one_families_classify_by_b_over_a(self):
        # b/a -> 0 exactly for S^n + (x,y); constant 1/2 for (x, y^n)
        good = parse_family_spec("freeplus ideal=(x,y) growth=n", R, (1, 8))
        bad = parse_family_spec("powers ideal=(x,y^n)", R, (1, 8))
        assert analyze(good).verdict == "LIM_ULRICH_TREND"
        assert analyze(bad).verdict == "NOT_LIM_CM_EVIDENCE"

    def test_vanishing_b_over_a_forces_lim_ulrich(self):
        # torsion-free families with b/a -> 0 are lim Ulrich: e = a - b makes
        # e/nu -> 1 automatic
        family = SequenceFamily(
            rule=lambda n: direct_sum(FreeModule(n),
                                      IdealModule(ideal("x^2, x*y, y^2"))),
            sop=(R.var("x"), R.var("y")), index_range=(1, 8), base_ring=R)
        table = analyze(family)
        assert table.exact
        assert table.verdict == "LIM_ULRICH_TREND"
        for row in table.rows:
            assert row.e == row.h0 - row.h1  # rank equals a - b

    def test_non_polynomial_growth_gives_evidence_only(self):
        family = SequenceFamily(
            rule=lambda n: FreeModule(2 ** n),
            sop=(R.var("x"), R.var("y")), index_range=(1, 8), base_ring=R)
        table = analyze(family)
        assert not table.exact
        assert table.verdict == "LIM_CM_TREND"
        assert any("finite-index" in note for note in table.notes)


class TestTorsionReduce:
    def sop(self):
        return (R.var("x"), R.var("y"))

    def test_small_torsion_stays_weakly_lim_cm(self):
        k_module = FiniteLengthModule.from_cyclic(ideal("x, y"))
        family = SequenceFamily(
            rule=lambda n: direct_sum(FinLenModule(k_module), FreeModule(n)),
            sop=self.sop(), index_range=(1, 8), base_ring=R)
        reduced, ledger = torsion_reduce(family)
        assert all(ok for _, ok in ledger.identities)
        assert ledger.entry("nu(C) ~ 0").limit_zero
        assert analyze(reduced).verdict == "LIM_ULRICH_TREND"
        assert analyze(family).verdict == "LIM_ULRICH_TREND"

    def test_large_torsion_breaks_weakly_lim_cm(self):
        family = SequenceFamily(
            rule=lambda n: direct_sum(
                FinLenModule(FiniteLengthModule.semisimple(R, n * (n + 1) // 2)),
                FreeModule(n * n)),
            sop=self.sop(), index_range=(1, 8), base_ring=R)
        table = analyze(family)
        assert table.verdict == "NOT_LIM_CM_EVIDENCE"
        assert table.limits["chi1/nu"] == Fraction(1, 3)
        reduced, ledger = torsion_reduce(family)
        assert not ledger.entry("nu(C) ~ 0").limit_zero
        assert ledger.entry("nu(C) ~ 0").a[2] == Fraction(3 * 4, 2)
        assert analyze(reduced).verdict == "LIM_ULRICH_TREND"

    def test_torsion_free_family_unchanged(self):
        family = SequenceFamily(rule=lambda n: FreeModule(n), sop=self.sop(),
                                index_range=(1, 6), base_ring=R)
        reduced, ledger = torsion_reduce(family)
        orig = analyze(family)
        red = analyze(reduced)
        assert [r.nu for r in orig.rows] == [r.nu for r in red.rows]

    def test_bookkeeping_identity_recorded(self):
        m2 = FiniteLengthModule.from_cyclic(ideal("x, y").power(2))
        family = SequenceFamily(
            rule=lambda n: direct_sum(FinLenModule(m2), FreeModule(n),
                                      IdealModule(ideal("x, y"))),
            sop=self.sop(), index_range=(1, 7), base_ring=R)
        _, ledger = torsion_reduce(family)
        names = [name for name, _ in ledger.identities]
        assert "chi1(C) == h0(C)" in names
        assert all(ok for _, ok in ledger.identities)

    def test_undecidable_shape_rejected(self):
        family = SequenceFamily(
            rule=lambda n: FinLenModule(FiniteLengthModule.semisimple(R, n)),
            sop=self.sop(), index_range=(1, 5), base_ring=R)
        with pytest.raises(ValueError):
            torsion_reduce(family)

    def test_sim_transitivity(self):
        nu = [n * n for n in range(1, 9)]
        a = [n * n + n for n in range(1, 9)]
        b = [n * n + 2 for n in range(1, 9)]
        c = [n * n - n for n in range(1, 9)]
        ab = sim_judgment("a~b", a, b, nu)
        bc = sim_judgment("b~c", b, c, nu)
        ac = sim_judgment("a~c", a, c, nu)
        assert ab.exact and bc.exact and ac.exact
        assert ab.limit_zero and bc.limit_zero and ac.limit_zero


class TestSaturation:
    def monomial_sop(self):
        return (R.monomial((2, 0)), R.monomial((0, 2)))

    def test_principal_family_has_constant_quotient(self):
        family = SequenceFamily(
            rule=lambda n: MonomialRModule(MonomialModule(R2, ((2 * n, 0),))),
            sop=self.monomial_sop(), index_range=(1, 8), base_ring=R)
        saturated, ledger = saturate_over_S(family, R2)
        assert all(ok for _, ok in ledger.identities)
        q_entry = ledger.entry("len(Q) ~ 0")
        assert all(v == 2 for v in q_entry.a)  # the two gaps translate verbatim

    def test_already_saturated_family_is_trivial(self):
        family = SequenceFamily(
            rule=lambda n: MonomialRModule(
                MonomialModule(R2, ((n, n), (n + 1, n), (n, n + 1)))),
            sop=self.monomial_sop(), index_range=(1, 6), base_ring=R)
        saturated, ledger = saturate_over_S(family, R2)
        assert all(v == 0 for v in ledger.entry("len(Q) ~ 0").a)

    def test_ring_itself_meets_h1_bound(self):
        family = SequenceFamily(
            rule=lambda n: MonomialRModule(MonomialModule(R2, ((0, 0),))),
            sop=self.monomial_sop(), index_range=(1, 4), base_ring=R)
        saturated, ledger = saturate_over_S(family, R2)
        bound_name = "len(Q) <= h1(x^t, y^t; M)"
        assert dict(ledger.identities)[bound_name]
        assert all(v == 2 for v in ledger.entry("len(Q) ~ 0").a)

    def test_multiplicity_rows_agree(self):
        family = SequenceFamily(
            rule=lambda n: MonomialRModule(MonomialModule(R2, ((2 * n, 0), (n, n)))),
            sop=self.monomial_sop(), index_range=(1, 6), base_ring=R)
        _, ledger = saturate_over_S(family, R2)
        assert dict(ledger.identities)["nu_R(MS) <= nu_R(S) * nu_S(MS)"]
