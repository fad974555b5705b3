"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.  Run `pytest -s tests/test_acceptance.py` to see
the lines on success."""
import random
import time
from fractions import Fraction

from ulrich_forge import (
    FiniteLengthModule,
    Ideal,
    MonomialModule,
    PolyRing,
    colon_module,
    gap_set,
    gap_set_auto,
    koszul_cyclic,
    koszul_finlen,
    koszul_ideal_module,
    koszul_monomial_R,
    localize_at_face,
    multiplicity,
    parse_generator_list,
    parse_polynomial,
    sg_member,
    verify_minimal_reduction,
)
from ulrich_forge.pipelines import (
    localization_semigroup,
    no_ulrich_semigroup,
    no_ulrich_subring,
    verify_no_ulrich,
    verify_ulrich_equivalence_for_example,
)
from ulrich_forge.semigroup import homogeneous_multiplicity

from oracles import naive_colon_count

R = PolyRing(("x", "y"))


def _report(number: int, label: str, ok: bool):
    print(f"[criterion {number:2}] {'PASS' if ok else 'FAIL'}  {label}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_1_ulrich_witness():
    ok = True
    for n in (2, 3, 4, 5):
        start = time.perf_counter()
        I = Ideal(parse_generator_list(f"x*y, x^{n} - y^{n}", R))
        nf = I.normal_form(parse_polynomial(f"x^{n}", R))
        mS = no_ulrich_subring(n).maximal_ideal_extension()
        unequal = not I.equals(mS)
        elapsed = time.perf_counter() - start
        ok = ok and (not nf.is_zero) and unequal and elapsed < 1.0
        report = verify_no_ulrich(n)
        ok = ok and report.verdict == "NO_ULRICH"
    _report(1, "normal-form witness and extension inequality give NO_ULRICH, n=2..5", ok)


def test_criterion_2_minimal_reduction():
    ok = True
    for n in (2, 3, 4):
        start = time.perf_counter()
        sub = no_ulrich_subring(n)
        rep = verify_minimal_reduction(
            sub, parse_generator_list(f"x*y, x^{n} - y^{n}", R))
        elapsed = time.perf_counter() - start
        ok = ok and rep.verdict and elapsed < 10.0
        ok = ok and all(c.positive and c.t <= 12 for _, c in rep.items)
    _report(2, "all generators integrally certified over the reduction, n=2..4", ok)


def test_criterion_3_multiplicity_cross_check():
    ok = True
    for n in (2, 3, 4):
        e_semigroup = multiplicity(no_ulrich_semigroup(n))
        e_colength = Ideal(parse_generator_list(f"x*y, x^{n} - y^{n}", R)).colength()
        ok = ok and e_semigroup == e_colength
        if n == 2:
            ok = ok and e_semigroup == 4
    _report(3, "semigroup multiplicity equals reduction colength, n=2..4", ok)


def test_criterion_4_localization():
    ok = True
    for n in (2, 3):
        T = localization_semigroup(n)
        e_value, _ = homogeneous_multiplicity(T)
        loc = localize_at_face(T)
        ok = ok and e_value == (n + 1) ** 2
        ok = ok and loc.semigroup.generators == no_ulrich_semigroup(n).generators
    _report(4, "space-family multiplicity is (n+1)^2 and localizes onto the plane family", ok)


def test_criterion_5_gap_sets():
    ok = gap_set(no_ulrich_semigroup(2), 12) == {(1, 0), (0, 1)}
    for n in (2, 3, 4):
        gaps = gap_set_auto(no_ulrich_semigroup(n))
        ok = ok and isinstance(gaps, frozenset) and len(gaps) >= 2
    _report(5, "gap set of the n=2 ring is {(1,0),(0,1)} and finite for n=2..4", ok)


def test_criterion_6_koszul_baselines():
    x, y = R.var("x"), R.var("y")
    ok = koszul_cyclic(x, y, Ideal([x, y])).as_tuple() == (1, 2, 1)
    rng = random.Random(606)
    seen = 0
    while seen < 50:
        a, b = rng.randrange(1, 5), rng.randrange(1, 5)
        extra = (rng.randrange(1, 4), rng.randrange(1, 4))
        J = Ideal([R.monomial((a, 0)), R.monomial((0, b)), R.monomial(extra)])
        if J.colength() > 15:
            continue
        M = FiniteLengthModule.from_cyclic(J)
        f = R.monomial((rng.randrange(1, 3), 0))
        g = R.monomial((0, rng.randrange(1, 3)))
        tally = koszul_finlen(M, f, g)
        ok = ok and tally.chi == 0 and tally.chi1 >= 0
        seen += 1
    _report(6, "residue-field tally (1,2,1); chi=0 and chi1>=0 on 50 random modules", ok)


def test_criterion_7_colon_equals_h1():
    R2 = no_ulrich_semigroup(2)
    modules = [((0, 0),), ((0, 0), (1, 0), (0, 1)), ((2, 0),), ((2, 0), (0, 2)),
               ((4, 0), (1, 1)), ((3, 0), (0, 3), (1, 1))]
    ok = len(modules) >= 5
    for gens in modules:
        M = MonomialModule(R2, gens)
        _, length = colon_module(M, 1, (2, 0), (0, 2))
        h1 = koszul_monomial_R(M, ((2, 0), (0, 2))).h1
        oracle = naive_colon_count(gens, R2.generators, (2, 0), (0, 2))
        ok = ok and length == h1 == oracle
    _report(7, "colon-module length equals h1 on 6 modules, against the lattice oracle", ok)


def test_criterion_8_asymptotic_harness():
    from ulrich_forge import analyze, parse_family_spec, resolution_ranks

    good = analyze(parse_family_spec("freeplus ideal=(x,y) growth=n", R, (1, 10)))
    ok = good.verdict == "LIM_ULRICH_TREND" and good.exact
    ok = ok and good.formulas["e/nu"] == "(n + 1)/(n + 2)"
    ok = ok and good.formulas["h1/nu"] == "1/(n + 2)"
    bad = analyze(parse_family_spec("powers ideal=(x,y^n)", R, (1, 10)))
    ok = ok and bad.verdict == "NOT_LIM_CM_EVIDENCE" and bad.exact
    ok = ok and all(r.h1_over_nu == Fraction(1, 2) for r in bad.rows)
    rng = random.Random(88)
    checked = 0
    while checked < 25:
        gens = []
        for _ in range(rng.randrange(1, 4)):
            e = (rng.randrange(0, 4), rng.randrange(0, 4))
            if sum(e) == 0:
                continue
            c = rng.randrange(-4, 5)
            gens.append(R.monomial(e, R.field.from_int(c or 3)))
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        J = Ideal(gens)
        if J.is_zero_ideal or J.is_unit_ideal:
            continue
        a, b = resolution_ranks(J)
        ok = ok and b == a - 1
        checked += 1
    _report(8, "family classifications with exact formulas; b = a - 1 on 25 random ideals", ok)


def test_criterion_9_equivalence_reports():
    ok = True
    for n in (2, 3):
        rep = verify_ulrich_equivalence_for_example(n)
        ok = ok and rep.verdict == "NO_WEAKLY_LIM_ULRICH"
        d = [c for c in rep.checks if c.claim.startswith("(d)")]
        ok = ok and d and d[0].verdict == "false" and d[0].certificate is not None
        deduced = [c for c in rep.checks if c.verdict == "false-deduced"]
        ok = ok and len(deduced) == 3
        ok = ok and all(c.certificate["independent_computation"] is False
                        for c in deduced)
    _report(9, "condition (d) false with witness; (a)-(c) reported false as deduced", ok)


def test_criterion_10_dual_membership():
    start = time.perf_counter()
    rng = random.Random(1010)
    ok = True
    for n in (2, 3):
        sub = no_ulrich_subring(n)
        G = no_ulrich_semigroup(n)
        for _ in range(200):
            e = (rng.randrange(0, 9), rng.randrange(0, 9))
            ok = ok and (sub.tag_membership(R.monomial(e)).member
                         == sg_member(G, e).member)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _report(10, f"semigroup vs tag-variable membership agree on 400 monomials "
                f"({elapsed:.1f}s)", ok)
