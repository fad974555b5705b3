"""Affine semigroup lab: membership, gaps, Hilbert-Samuel data, localization."""
import itertools
import random

import pytest

from ulrich_forge import (
    AffineSemigroup,
    Ideal,
    PolyRing,
    gap_set,
    gap_set_auto,
    hilbert_samuel,
    localize_at_face,
    multiplicity,
    nu_max_ideal,
    parse_generator_list,
    sg_member,
)
from ulrich_forge.pipelines import localization_semigroup, no_ulrich_semigroup
from ulrich_forge.semigroup import (
    FULL_PLANE,
    _member_set,
    _PointTable,
    homogeneous_multiplicity,
    lattice_shell,
    ord_of,
    saturation_exponent,
)

from oracles import naive_gap_points, naive_semigroup_member, naive_semigroup_order

R2 = no_ulrich_semigroup(2)
R = PolyRing(("x", "y"))


class TestMembership:
    def test_low_degree_points_are_gaps(self):
        assert not sg_member(R2, (1, 0)).member

    def test_member_with_decomposition(self):
        witness = sg_member(R2, (2, 2))
        assert witness.member
        total = tuple(sum(c[i] for c in witness.decomposition) for i in range(2))
        assert total == (2, 2)
        assert all(g in R2.generators for g in witness.decomposition)

    def test_origin_is_empty_sum(self):
        witness = sg_member(R2, (0, 0))
        assert witness.member and witness.decomposition == ()

    def test_agrees_with_naive_recursion(self):
        rng = random.Random(5)
        memo = {}
        for _ in range(200):
            v = (rng.randrange(0, 10), rng.randrange(0, 10))
            assert sg_member(R2, v).member == naive_semigroup_member(
                R2.generators, v, memo)


class TestLatticeShell:
    @pytest.mark.parametrize("floor", [(0,), (-2,), (0, 0), (-3, 1), (2, -1), (0, 0, 0),
                                       (-1, 0, 2), (1, -2, -1)])
    def test_matches_box_enumeration(self, floor):
        for s in range(-4, 7):
            box = itertools.product(*(range(f, f + 12) for f in floor))
            expected = sorted(v for v in box if sum(v) == s)
            points = list(lattice_shell(s, floor))
            assert points == expected  # first coordinate ascending, no repeats


class TestPointTable:
    def test_out_of_order_requests_share_one_table(self):
        # (0, 5) sorts first but is rarely the best last part: ord(5, 5) is 5
        G = AffineSemigroup(2, ((0, 5), (0, 6), (1, 1), (1, 2), (2, 0), (3, 0)))
        memo = {}

        def order(v):
            return naive_semigroup_order(G.generators, v, memo)

        def points_below(degree):
            return [v for s in range(degree) for v in lattice_shell(s, (0, 0))]

        _member_set.cache_clear()
        for v in lattice_shell(30, (0, 0)):
            assert sg_member(G, v).member == (order(v) is not None)
        maxgen = G.max_generator_degree
        low = points_below(27 - maxgen)
        gaps = [v for v in low if order(v) is None]
        assert gap_set(G, 27) == set(gaps)
        for t in range(1, 5):
            expected = sum(1 for v in points_below(t * maxgen)
                           if order(v) is not None and order(v) < t)
            assert hilbert_samuel(G, t) == expected
        for v in [w for w in low if order(w) is not None] + [(5, 5), (2, 33)]:
            assert ord_of(G, v) == order(v)
        assert nu_max_ideal(G) == sum(1 for g in G.generators if order(g) == 1)
        below_gap = [order(v) for v in low if order(v) is not None
                     and any(all(a <= b for a, b in zip(v, gap)) for gap in gaps)]
        assert saturation_exponent(G) == max(below_gap) + 1
        assert _member_set.cache_info().currsize == 1


class TestGapSet:
    def test_plane_family_n2(self):
        assert gap_set(R2, 12) == {(1, 0), (0, 1)}

    def test_single_axis_generator_not_finite(self):
        G = AffineSemigroup(2, ((1, 0),))
        assert gap_set(G, 10) is None

    def test_full_plane_has_no_gaps(self):
        assert gap_set(FULL_PLANE, 4) == frozenset()

    def test_bound_below_generator_degree_rejected(self):
        with pytest.raises(ValueError):
            gap_set(R2, 2)

    def test_scan_stops_at_the_certificate_and_is_kept(self, monkeypatch):
        G = no_ulrich_semigroup(3)
        _member_set.cache_clear()
        gaps = gap_set_auto(G)
        # maxgen + 1 full shells follow the largest gap, of degree 5
        assert _member_set(G).bound == 5 + G.max_generator_degree + 1
        monkeypatch.setattr(_PointTable, "_grow", lambda self: pytest.fail("scanned again"))
        assert gap_set_auto(G) is gaps
        assert gap_set(G, 10) is gaps
        assert gap_set(G, 9) is None

    def test_matches_enumeration_oracle(self):
        for n in (2, 3, 4):
            G = no_ulrich_semigroup(n)
            gaps = gap_set_auto(G)
            bound = max(sum(g) for g in gaps) + 3
            assert set(gaps) == set(naive_gap_points(G.generators, bound))


class TestOrderFiltration:
    def test_hilbert_samuel_small_values(self):
        assert hilbert_samuel(R2, 0) == 0
        assert hilbert_samuel(R2, 1) == 1
        assert hilbert_samuel(R2, 2) == 8

    def test_nondecreasing_and_eventually_quadratic(self):
        for G in (R2, no_ulrich_semigroup(3), FULL_PLANE):
            values = [hilbert_samuel(G, t) for t in range(1, 14)]
            assert all(a <= b for a, b in zip(values, values[1:]))
            second = [values[i + 2] - 2 * values[i + 1] + values[i]
                      for i in range(len(values) - 2)]
            assert second[-1] == second[-2] == second[-3]

    def test_ord_superadditive(self):
        rng = random.Random(9)
        members = [v for v in [(2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (4, 2), (2, 2)]
                   if sg_member(R2, v).member]
        for _ in range(40):
            s, t = rng.choice(members), rng.choice(members)
            st = tuple(a + b for a, b in zip(s, t))
            assert ord_of(R2, st) >= ord_of(R2, s) + ord_of(R2, t)
        assert all(ord_of(R2, s) >= 1 for s in members)


class TestMultiplicity:
    def test_plane_family_equals_reduction_colength(self):
        for n in (2, 3, 4):
            G = no_ulrich_semigroup(n)
            I = Ideal(parse_generator_list(f"x*y, x^{n} - y^{n}", R))
            assert multiplicity(G) == I.colength()

    def test_homogeneous_requires_equal_degrees(self):
        with pytest.raises(ValueError):
            homogeneous_multiplicity(R2)

    def test_full_plane_is_regular(self):
        assert multiplicity(FULL_PLANE) == 1


class TestMinimalGenerators:
    def test_plane_family_has_seven(self):
        assert nu_max_ideal(R2) == 7

    def test_full_plane(self):
        assert nu_max_ideal(FULL_PLANE) == 2

    def test_quadric_veronese(self):
        assert nu_max_ideal(AffineSemigroup(2, ((2, 0), (0, 2), (1, 1)))) == 3


class TestLocalization:
    def test_space_family_localizes_to_plane_family(self):
        for n in (2, 3):
            loc = localize_at_face(localization_semigroup(n))
            assert loc.semigroup.generators == no_ulrich_semigroup(n).generators
            assert len(gap_set_auto(loc.semigroup)) < 40

    def test_pure_power_becomes_unit(self):
        loc = localize_at_face(localization_semigroup(2))
        assert loc.inverted_units == ((3, 0, 0),)

    def test_inhomogeneous_rejected(self):
        G = AffineSemigroup(3, ((1, 0, 0), (0, 2, 0)))
        with pytest.raises(ValueError):
            localize_at_face(G)


class TestSaturationExponent:
    def test_plane_family(self):
        assert saturation_exponent(R2) == 1
        assert saturation_exponent(FULL_PLANE) == 1
