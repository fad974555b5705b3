"""Affine semigroup lab: membership, gaps, Hilbert-Samuel data, localization."""
import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from ulrich_forge import (
    AffineSemigroup,
    Ideal,
    PolyRing,
    gap_set_auto,
    hilbert_samuel,
    localize_at_face,
    multiplicity,
    nu_max_ideal,
    parse_generator_list,
    sg_member,
)
from ulrich_forge import groebner, newton, semigroup
from ulrich_forge.newton import det, hull, newton_multiplicity
from ulrich_forge.patterns import InconclusiveError
from ulrich_forge.pipelines import localization_semigroup, no_ulrich_semigroup
from ulrich_forge.semigroup import (
    FULL_PLANE,
    ROW_CAP,
    InfiniteGapSet,
    _member_set,
    _RowTable,
    gap_obstruction,
    gap_rows,
    homogeneous_multiplicity,
    minimal_plane_generators,
    saturation_exponent,
)

from oracles import (
    brute_newton_twice_area,
    lattice_shell,
    monomials_up_to,
    naive_gap_points,
    naive_semigroup_member,
    naive_semigroup_order,
    per_row_closed_rows,
    scan_hilbert_samuel,
    scan_minimal_generators,
    scan_saturation_exponent,
)

R2 = no_ulrich_semigroup(2)
R = PolyRing(("x", "y"))


def order_of(G, v):
    """ord(v) of a member v: the last order layer of its row table that
    holds v."""
    table = _member_set(G)
    *u, j = v
    table.cover(max(u, default=0) + 1, j + 1)
    c = table.code(u)
    t = 0
    while table.layer(t + 1, j + 1)[j] >> c & 1:
        t += 1
    return t


def naive_decomposition(G, v, memo):
    """The decomposition sg_member gives, by the naive recursion: at each
    step the first generator of G.generators that leaves a member."""
    parts = []
    while any(v):
        rest = (tuple(a - b for a, b in zip(v, g)) for g in G.generators)
        g, v = next((g, w) for g, w in zip(G.generators, rest)
                    if min(w) >= 0 and naive_semigroup_member(G.generators, w, memo))
        parts.append(g)
    return tuple(parts)


def family(n, d):
    """R_{n,d}: x_i^n, x_i^(n+1), x_i^n*x_j (j != i), x_i*x_j (i < j)."""
    unit = [tuple(int(k == i) for k in range(d)) for i in range(d)]
    gens = {tuple(c * a for a in e) for e in unit for c in (n, n + 1)}
    gens |= {tuple(n * a + b for a, b in zip(e, f)) for e in unit for f in unit if e != f}
    gens |= {tuple(map(sum, zip(e, f))) for e, f in itertools.combinations(unit, 2)}
    return AffineSemigroup(d, tuple(gens))


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


def semigroups(dim, top):
    """Semigroups of N^dim with one to five generators, coordinates <= top."""
    gen = st.tuples(*[st.integers(0, top)] * dim).filter(any)
    return st.lists(gen, min_size=1, max_size=5).map(
        lambda gens: AffineSemigroup(dim, tuple(gens)))


@st.composite
def finite_semigroups(draw, dim):
    """Semigroups of N^dim with a finite gap set: in one variable two
    coprime generators and up to two more, in the plane the finite
    row_table_semigroups, in three variables hyperplane_semigroups."""
    if dim == 1:
        a = draw(st.integers(2, 7))
        gens = [a, a + 1] + draw(st.lists(st.integers(1, 15), max_size=2))
        return AffineSemigroup(1, tuple((g,) for g in gens))
    if dim == 2:
        return draw(row_table_semigroups().filter(lambda G: gap_obstruction(G) is None))
    return draw(hyperplane_semigroups(dim, None))


class TestOneTable:
    """One row table serves every dimension; the naive recursion of
    tests/oracles.py is its oracle."""

    @settings(max_examples=30)
    @given(st.sampled_from([1, 2, 3]).flatmap(
        lambda dim: st.tuples(finite_semigroups(dim), st.randoms(use_true_random=False))))
    def test_agrees_with_the_naive_recursion_in_every_dimension(self, case):
        G, rng = case
        memo, orders = {}, {}

        def order(v):
            return naive_semigroup_order(G.generators, v, orders)

        maxgen = G.max_generator_degree
        gaps = gap_set_auto(G)
        top = max((sum(g) for g in gaps), default=0)
        # no gap among the maxgen shells past the largest one proves them all
        assert gaps == set(naive_gap_points(G.generators, top + maxgen, G.dim))
        below = [order(v) for v in monomials_up_to(top, G.dim) if order(v) is not None
                 and any(all(a <= b for a, b in zip(v, g)) for g in gaps)]
        assert saturation_exponent(G) == max(below, default=0) + 1
        for t in range(4):
            assert hilbert_samuel(G, t) == sum(
                1 for v in monomials_up_to(max(t - 1, 0) * maxgen, G.dim)
                if order(v) is not None and order(v) < t)
        for _ in range(6):
            v = tuple(rng.randint(0, 12) for _ in range(G.dim))
            member = naive_semigroup_member(G.generators, v, memo)
            witness = sg_member(G, v)
            assert witness.member == member
            assert witness.decomposition == (naive_decomposition(G, v, memo) if member else None)

    @pytest.mark.parametrize("dim, top, bound", [(2, 6, 16), (3, 3, 8)])
    def test_rows_and_layers_equal_the_naive_recursion(self, dim, top, bound):
        # any semigroup, finite gap set or not: membership and order of every
        # point up to degree `bound`, read off the rows and the order layers
        @settings(max_examples=40)
        @given(semigroups(dim, top))
        def check(G):
            table = _RowTable(G)
            table.cover(bound + 1, bound + 1)
            memo = {}
            points = [(v, table.code(v[:-1]), naive_semigroup_order(G.generators, v, memo))
                      for v in monomials_up_to(bound, dim)]
            for t in range(bound + 1):
                layer = table.layer(t, bound + 1)
                for v, c, order in points:
                    assert bool(layer[v[-1]] >> c & 1) == (order is not None and order >= t)

        check()

    def test_points_of_degree_1000(self):
        G = AffineSemigroup(2, ((1000, 0), (0, 1000), (999, 1), (1, 999), (13, 7)))
        memo = {}
        members = 0
        for a in range(1001):
            v = (a, 1000 - a)
            order = naive_semigroup_order(G.generators, v, memo)
            witness = sg_member(G, v)
            assert witness.member == (order is not None)
            if order is not None:
                assert witness.decomposition == naive_decomposition(G, v, {})
                assert order_of(G, v) == order
                members += 1
        assert members == 5


class TestCodes:
    """Codes never carry: each place where a code could cross the stride
    2W of a table of width W."""

    def test_generators_past_the_width_are_left_out(self):
        # at width 4 the stride is 8, and (9, 0, 1) would shift row 0 by 9,
        # the code of (1, 1): (1, 1, 1) would look like a member
        G = AffineSemigroup(3, ((2, 0, 0), (3, 0, 0), (0, 2, 0), (0, 3, 0), (0, 0, 2),
                                (0, 0, 3), (9, 0, 1)))
        table = _RowTable(G)
        table.cover(4, 4)
        assert table.width == 4 and (9, 0, 1) not in [g for g, _, _ in table.steps]
        memo = {}
        for t in range(3):
            layer = table.layer(t, 4)
            for v in itertools.product(range(4), repeat=3):
                order = naive_semigroup_order(G.generators, v, memo)
                assert bool(layer[v[2]] >> table.code(v[:2]) & 1) == (
                    order is not None and order >= t), (t, v)
        assert not sg_member(G, (1, 1, 1)).member
        assert sg_member(G, (9, 0, 1)).decomposition == ((9, 0, 1),)

    @pytest.mark.parametrize("gens", [
        ((9, 0), (10, 0), (9, 1), (0, 9), (0, 10), (1, 9), (1, 1), (10 ** 8, 1)),
        ((2, 0), (3, 0), (0, 2), (0, 3), (1, 1), (10 ** 7, 1)),
    ])
    def test_plane_generators_far_past_the_box_cost_nothing(self, gens):
        # a row shifted by 10^8 bits before masking is a 12 MB int
        G = AffineSemigroup(2, gens)
        near = AffineSemigroup(2, gens[:-1])
        assert gap_set_auto(G) == gap_set_auto(near)
        assert saturation_exponent(G) == saturation_exponent(near)
        for v in itertools.product(range(12), repeat=2):
            assert sg_member(G, v) == sg_member(near, v)

    def test_doubling_stops_when_the_multiple_leaves_the_width(self):
        # at width 3 the stride is 6: doubling (2, 0) to (4, 0) would shift
        # the bit of (2, 0) to 6, the code of (0, 1), though (0, 1, 0) is no
        # member
        G = AffineSemigroup(3, ((2, 0, 0), (0, 3, 0), (0, 0, 1)))
        table = _RowTable(G)
        table.cover(3, 1)
        assert table.width == 3
        assert table.rows == [1 | 1 << table.code((2, 0))]
        # R_{2,3}: all four gaps, (1, 1, 1) among them
        assert gap_set_auto(family(2, 3)) == {(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)}

    def test_decompose_compares_codes_before_shifting(self):
        # at (1, 0, 0) the step (0, 1, 0) has the code 2W, above the code 1
        # of (1, 0): testing its bit would shift by 1 - 2W, which raises
        G = AffineSemigroup(3, ((0, 1, 1), (1, 0, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert sg_member(G, (1, 0, 1)).decomposition == ((0, 0, 1), (1, 0, 0))
        assert sg_member(G, (1, 0, 1)).member


class TestMemberTable:
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
        assert gap_set_auto(G) == set(gaps)
        for t in range(1, 5):
            expected = sum(1 for v in points_below(t * maxgen)
                           if order(v) is not None and order(v) < t)
            assert hilbert_samuel(G, t) == expected
        for v in [w for w in low if order(w) is not None] + [(5, 5), (2, 33)]:
            assert order_of(G, v) == order(v)
        assert nu_max_ideal(G) == sum(1 for g in G.generators if order(g) == 1)
        below_gap = [order(v) for v in low if order(v) is not None
                     and any(all(a <= b for a, b in zip(v, gap)) for gap in gaps)]
        assert saturation_exponent(G) == max(below_gap) + 1
        assert _member_set.cache_info().currsize == 1

    @pytest.mark.parametrize("G", [
        AffineSemigroup(2, ((2, 0), (3, 0), (0, 2), (0, 3), (1, 1))),
        AffineSemigroup(3, ((2, 0, 0), (3, 0, 0), (0, 2, 0), (0, 3, 0), (0, 0, 2), (0, 0, 3),
                            (1, 1, 0), (1, 0, 1), (0, 1, 1))),
    ])
    def test_row_cap_refuses_before_growing(self, G):
        # one bound in every dimension
        table = _member_set(G)
        hilbert_samuel(G, 3)
        grown = (table.width, list(table.rows), table.last)
        with pytest.raises(InconclusiveError, match=f"above ROW_CAP={ROW_CAP}$"):
            hilbert_samuel(G, 10 ** 8)
        assert (table.width, table.rows, table.last) == grown


def plane_semigroup(rng):
    """Axis pairs (a,0), (a+1,0), (0,b), (0,b+1), with (1,j) and (i,1) so the
    gap set is finite, and up to three more interior generators."""
    a, b = rng.randint(2, 6), rng.randint(2, 6)
    gens = {(a, 0), (a + 1, 0), (0, b), (0, b + 1), (1, rng.randint(1, 3)),
            (rng.randint(1, 3), 1)}
    for _ in range(rng.randint(0, 3)):
        d = rng.randint(2, 7)
        x = rng.randint(1, d - 1)
        gens.add((x, d - x))
    return AffineSemigroup(2, tuple(gens))


class TestTableReaders:
    """saturation_exponent and hilbert_samuel read the row table by order
    layer; the full scans of tests/oracles.py are the oracles."""

    def test_match_full_scans_on_pregrown_tables(self):
        rng = random.Random(31)
        for _ in range(40):
            G = plane_semigroup(rng)
            # the readers must ignore the excess
            _member_set(G).cover(rng.randint(0, 100), rng.randint(0, 100))
            assert saturation_exponent(G) == scan_saturation_exponent(G)
            for t in range(6):
                assert hilbert_samuel(G, t) == scan_hilbert_samuel(G, t)

    def test_three_variables(self):
        G = AffineSemigroup(3, ((2, 0, 0), (3, 0, 0), (0, 2, 0), (0, 3, 0), (0, 0, 2),
                                (0, 0, 3), (1, 1, 0), (1, 0, 1), (0, 1, 1)))
        assert len(gap_set_auto(G)) == 13
        assert saturation_exponent(G) == scan_saturation_exponent(G) == 3
        for t in range(5):
            assert hilbert_samuel(G, t) == scan_hilbert_samuel(G, t)

    def test_saturation_after_a_wider_rebuild(self):
        # the gap rows are codes at the width they were certified at; a
        # wider table has other codes, and the reader covers its own rows
        G = AffineSemigroup(3, ((2, 0, 0), (3, 0, 0), (0, 2, 0), (0, 3, 0), (0, 0, 2),
                                (0, 0, 3), (1, 1, 0), (1, 0, 1), (0, 1, 1)))
        gap_set_auto(G)
        table = _member_set(G)
        width = table.width
        assert sg_member(G, (3 * width, 0, 0)).member
        assert table.width > width and len(table.rows) == 1
        assert saturation_exponent(G) == 3


class TestGapSet:
    def test_plane_family_n2(self):
        assert gap_set_auto(R2) == {(1, 0), (0, 1)}

    def test_single_axis_generator_not_finite(self):
        with pytest.raises(InfiniteGapSet):
            gap_set_auto(AffineSemigroup(2, ((1, 0),)))

    def test_full_plane_has_no_gaps(self):
        assert gap_set_auto(FULL_PLANE) == frozenset()

    def test_scan_stops_at_the_certificate_and_is_kept(self, monkeypatch):
        G = no_ulrich_semigroup(3)
        _member_set.cache_clear()
        gaps = gap_set_auto(G)
        # the axis conductors are 6, so the proven box is 11 x 11; the
        # largest gaps, (5, 0) and (0, 5), end the gap rows at row 5
        table = _member_set(G)
        assert (table.width, len(table.rows)) == (11, 11)
        assert len(gap_rows(G)) == 6 and max(sum(g) for g in gaps) == 5
        monkeypatch.setattr(_RowTable, "cover", lambda *args: pytest.fail("scanned again"))
        assert gap_set_auto(G) is gaps
        # in three variables the cube holds every point up to maxgen + 1
        # degrees past the largest gap, and was at most about twice that
        monkeypatch.undo()
        G = AffineSemigroup(3, ((2, 0, 0), (3, 0, 0), (0, 2, 0), (0, 3, 0), (0, 0, 2),
                                (0, 0, 3), (1, 1, 0), (1, 0, 1), (0, 1, 1)))
        gaps = gap_set_auto(G)
        top, table = max(sum(g) for g in gaps), _member_set(G)
        assert top + G.max_generator_degree + 1 < min(table.width, len(table.rows))
        assert (top, table.width, len(table.rows)) == (5, 10, 10)
        monkeypatch.setattr(_RowTable, "cover", lambda *args: pytest.fail("scanned again"))
        assert gap_set_auto(G) is gaps

    def test_scan_refuses_to_grow_past_the_row_cap(self, row_cap):
        row_cap(80)
        # R_7 is finite, but its proven box is 83 x 83
        G = no_ulrich_semigroup(7)
        with pytest.raises(InconclusiveError, match="^row table of 83 x 83 points requested, "
                                                    "above ROW_CAP=80$"):
            gap_set_auto(G)
        assert _member_set(G).rows == []
        # a box that fits the bound still comes back
        assert gap_set_auto(R2) == {(1, 0), (0, 1)}

    def test_matches_enumeration_oracle(self):
        for n in (2, 3, 4):
            G = no_ulrich_semigroup(n)
            gaps = gap_set_auto(G)
            bound = max(sum(g) for g in gaps) + 3
            assert set(gaps) == set(naive_gap_points(G.generators, bound))


def criterion_semigroup(rng):
    """A plane semigroup that meets the four conditions of the criterion,
    then, one time in four, has one of them broken."""
    a, b = rng.randint(1, 6), rng.randint(1, 6)
    gens = {(a, 0), (a + 1, 0), (0, b), (0, b + 1), (1, rng.randint(0, 7)),
            (rng.randint(0, 7), 1)}
    for _ in range(rng.randint(0, 3)):
        gens.add((rng.randint(1, 7), rng.randint(1, 7)))
    broken = rng.randrange(16)
    if broken < 2:  # no generator with x- (or y-) coordinate 1
        gens = {g for g in gens if g[broken] != 1}
    elif broken == 2:  # the x-axis generators share a factor
        k = rng.randint(2, 3)
        gens = {(k * x, 0) if y == 0 else (x, y) for x, y in gens}
    elif broken == 3:  # nothing on the y-axis
        gens = {g for g in gens if g[0] != 0}
    return AffineSemigroup(2, tuple(gens))


def conductor(values):
    """The least c with every integer >= c a sum of `values` (gcd 1), by a
    scan up to max(values)^2, past the largest non-sum."""
    top = max(values) ** 2
    sums = {0}
    for s in range(1, top + 1):
        if any(s - v in sums for v in values):
            sums.add(s)
    return next(c for c in range(top + 2) if all(s in sums for s in range(c, top + 1)))


def scan_certifies(G, bound):
    """Whether the rows of the per-row closure certify a gap set by degree
    `bound`: maxgen + 1 degrees of members past the largest non-member."""
    rows = per_row_closed_rows(G, bound + 1, bound + 1)
    top = max((i + j for j, row in enumerate(rows) for i in range(bound + 1 - j)
               if not row >> i & 1), default=-1)
    return top + G.max_generator_degree < bound


class TestPlaneCriterion:
    def test_agrees_with_the_scan(self):
        rng = random.Random(12)
        verdicts = set()
        for _ in range(200):
            G = criterion_semigroup(rng)
            failed = gap_obstruction(G)
            assert (failed is None) == scan_certifies(G, 100), (G, failed)
            if failed is not None:
                with pytest.raises(InfiniteGapSet, match=f"gap set is not finite: {failed}"):
                    gap_set_auto(G)
            verdicts.add(failed and failed.split()[0])
        assert verdicts == {None, "no", "the"}

    def test_gaps_lie_below_the_proven_bound(self):
        # every gap (i, j) has i < c_x or j < c_y, j < i*b + c_y and
        # i < j*a + c_x for the axis conductors and generators (1, b), (a, 1)
        # with b and a least, so its degree lies below D2
        rng = random.Random(13)
        finite = 0
        for _ in range(100):
            G = criterion_semigroup(rng)
            if gap_obstruction(G) is not None:
                continue
            finite += 1
            cx, cy = (conductor([g[k] for g in G.generators if g[1 - k] == 0]) for k in (0, 1))
            b = min(g[1] for g in G.generators if g[0] == 1)
            a = min(g[0] for g in G.generators if g[1] == 1)
            d2 = max(cx + (cx - 1) * b + cy, cy + (cy - 1) * a + cx)
            assert all(sum(v) < d2 for v in gap_set_auto(G)), (G, d2)
        assert finite > 50

    @pytest.mark.parametrize("gens, failed", [
        (((2, 0), (0, 2), (1, 1)), "the generators on the x-axis have gcd 2"),
        (((1, 0), (0, 3), (0, 6), (1, 1)), "the generators on the y-axis have gcd 3"),
        (((1, 1), (0, 1)), "no generator lies on the x-axis"),
        (((2, 0), (3, 0), (0, 1), (2, 1)), "no generator has x-coordinate 1"),
        (((1, 0), (0, 2), (0, 3), (1, 2)), "no generator has y-coordinate 1"),
    ])
    def test_names_the_failed_condition_before_scanning(self, gens, failed, monkeypatch):
        G = AffineSemigroup(2, gens)
        assert gap_obstruction(G) == failed
        monkeypatch.setattr(_RowTable, "scan", lambda self: pytest.fail("scanned"))
        with pytest.raises(InfiniteGapSet) as err:
            gap_set_auto(G)
        assert str(err.value) == f"gap set is not finite: {failed}"

    def test_finite_past_the_budget_is_inconclusive(self, row_cap):
        # 900 bits: a plane table of 30 x 30; a 3-variable cube of side 7,
        # whose rows take 2 * 7^3 = 686 bits with the stride
        row_cap(30)
        # every plane meets the criterion, but <4, 5> has its largest gap at
        # 11, and the 6-cube does not yet certify the gap set
        G = AffineSemigroup(3, ((4, 0, 0), (5, 0, 0), (0, 4, 0), (0, 5, 0), (0, 0, 4),
                                (0, 0, 5), (1, 1, 0), (1, 0, 1), (0, 1, 1)))
        assert gap_obstruction(G) is None
        with pytest.raises(InconclusiveError) as err:
            gap_set_auto(G)
        assert str(err.value) == "row table of 20 x 20 x 20 points requested, above ROW_CAP=30"
        table = _member_set(G)
        assert (table.width, len(table.rows), table.gaps) == (6, 6, None)

    def test_certified_past_degree_80(self):
        # R_9's largest gap has degree 71, inside its proven 143 x 143 box
        _member_set.cache_clear()
        gaps = gap_set_auto(no_ulrich_semigroup(9))
        assert max(sum(g) for g in gaps) == 71
        assert len(_member_set(no_ulrich_semigroup(9)).rows) == 143


def unit(dim, i, a=1):
    return tuple(a * (k == i) for k in range(dim))


@st.composite
def hyperplane_semigroups(draw, dim, broken):
    """A semigroup of N^dim that meets the criterion: a*e_i and (a+1)*e_i on
    each axis with a >= 2, e_i + c*e_j for each ordered pair i != j, and up
    to two generators off every hyperplane.  When `broken` is a coordinate h,
    one condition inside the hyperplane x_h = 0 is broken: an axis there
    loses its generators or gets a common factor, or a pair (i, j) there
    loses e_i + c*e_j and e_j + c*e_i, so no generator of that plane has a
    coordinate 1."""
    top = 6 - dim  # keeps the 4-variable oracle cheap
    scale = [draw(st.integers(2, top)) for _ in range(dim)]
    factor = [1] * dim
    axes, pairs = set(range(dim)), set(itertools.permutations(range(dim), 2))
    if broken is not None:
        i, j = draw(st.permutations([k for k in range(dim) if k != broken]))[:2]
        how = draw(st.sampled_from(["axis", "factor", "pair"]))
        if how == "axis":
            axes.discard(i)
        elif how == "factor":
            factor[i] = draw(st.integers(2, 3))
        else:
            pairs -= {(i, j), (j, i)}
    gens = {unit(dim, i, factor[i] * (scale[i] + s)) for i in axes for s in (0, 1)}
    gens |= {tuple(map(sum, zip(unit(dim, i), unit(dim, j, draw(st.integers(1, top - 1))))))
             for i, j in sorted(pairs)}
    gens |= set(draw(st.lists(st.tuples(*[st.integers(1, top - 1)] * dim), max_size=2)))
    return AffineSemigroup(dim, tuple(gens))


def naive_finite_gaps(G, bound):
    """The gaps by the naive recursion when no gap lies among the
    maxgen + 1 shells that end at degree `bound`, which proves them all;
    else None."""
    gaps = naive_gap_points(G.generators, bound, G.dim)
    top = bound - G.max_generator_degree
    return None if any(sum(v) >= top for v in gaps) else gaps


class TestHyperplaneCriterion:
    """In three and four variables the criterion recurses into the coordinate
    hyperplanes; the naive recursion of tests/oracles.py is the oracle."""

    @pytest.mark.parametrize("dim, broken", [(d, h) for d in (3, 4) for h in (None, *range(d))])
    def test_agrees_with_the_naive_recursion(self, dim, broken):
        bound = {3: 21, 4: 14}[dim]  # past every certificate these semigroups need

        @settings(max_examples=6 if dim == 3 else 4)
        @given(hyperplane_semigroups(dim, broken))
        def check(G):
            failed = gap_obstruction(G)
            gaps = naive_finite_gaps(G, bound)
            assert (failed is None) == (broken is None) == (gaps is not None), (G, failed)
            if failed is None:
                assert gap_set_auto(G) == set(gaps)
                assert saturation_exponent(G) == scan_saturation_exponent(G)
                for t in range(5):
                    assert hilbert_samuel(G, t) == scan_hilbert_samuel(G, t)
                return
            # the named hyperplane's own submonoid has infinitely many gaps
            i = "xyzw".index(re.match(r"in the hyperplane (\w) = 0, ", failed)[1])
            face = tuple(g[:i] + g[i + 1:] for g in G.generators if not g[i])
            assert naive_finite_gaps(AffineSemigroup(dim - 1, face), bound) is None
            with pytest.raises(InfiniteGapSet, match=re.escape(failed)):
                gap_set_auto(G)

        check()

    @pytest.mark.parametrize("gens, failed", [
        (((1,), (2,)), None),
        (((4,), (6,)), "the generators on the x-axis have gcd 2"),
        (((1, 0, 0), (0, 1, 0)), "in the hyperplane x = 0, no generator lies on the z-axis"),
        (((1, 0, 0), (0, 1, 1)), "in the hyperplane x = 0, no generator lies on the y-axis"),
        (((1, 0, 0), (1, 1, 1)), "no generator lies in the hyperplane x = 0"),
        (((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 2), (0, 0, 0, 3)),
         "in the hyperplane x = 0, in the hyperplane y = 0, no generator has w-coordinate 1"),
    ])
    def test_names_the_failed_hyperplane(self, gens, failed):
        assert gap_obstruction(AffineSemigroup(len(gens[0]), gens)) == failed

    @pytest.mark.parametrize("dim, side, shape", [
        (1, 12, "13"), (2, 12, "13 x 13"), (3, 4, "5 x 5 x 5"), (4, 2, "3 x 3 x 3 x 3")])
    def test_table_size_is_bounded_in_every_dimension(self, dim, side, shape, row_cap):
        # no side past ROW_CAP and no more than ROW_CAP^2 bits, 144 at 12: a
        # cube of side W takes 2^(d - 2) * W^d bits (128 at W = 4 in three
        # variables, 64 at W = 2 in four)
        row_cap(12)
        G = AffineSemigroup(dim, tuple(unit(dim, i) for i in range(dim)))
        # hilbert_samuel(G, t) counts the points of degree < t over the cube of side t
        assert hilbert_samuel(G, side) == math.comb(side - 1 + dim, dim)
        table = _member_set(G)
        grown = (table.width, list(table.rows))
        with pytest.raises(InconclusiveError) as err:
            hilbert_samuel(G, side + 1)
        assert str(err.value) == f"row table of {shape} points requested, above ROW_CAP=12"
        assert (table.width, table.rows) == grown


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
            assert order_of(R2, st) >= order_of(R2, s) + order_of(R2, t)
        assert all(order_of(R2, s) >= 1 for s in members)


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

    def test_window_reproducer(self):
        # the Hilbert-Samuel second differences run 8, 8, 8, 6, 6, ...
        G = AffineSemigroup(2, ((0, 4), (0, 5), (1, 1), (1, 6), (2, 0), (4, 1), (4, 5),
                                (5, 0), (6, 0)))
        assert multiplicity(G) == 6

    def test_three_variable_ring(self):
        # the ring of ROADMAP item 7: e(R) = e(m_R * S) = l(S/JS) for J = (x^2, y^2, z^2)
        G = AffineSemigroup(3, ((2, 0, 0), (3, 0, 0), (0, 2, 0), (0, 3, 0), (0, 0, 2),
                                (0, 0, 3), (1, 1, 0), (0, 1, 1), (1, 0, 1)))
        assert multiplicity(G) == 8

    @settings(max_examples=10)
    @given(hyperplane_semigroups(3, None))
    def test_three_variables_equal_the_reduction_path(self, G):
        S = PolyRing(("x", "y", "z"))
        mS = Ideal([S.monomial(g) for g in G.generators])
        assert multiplicity(G) == groebner._reduction_multiplicity(mS, mS.groebner_basis())

    # (gap count, saturation exponent t) of R_{n,d}
    FAMILY = {(3, 2): (4, 2), (3, 3): (25, 3), (3, 4): (74, 5), (3, 5): (209, 7),
              (3, 6): (411, 9), (4, 2): (8, 2), (4, 3): (60, 4), (4, 4): (204, 6)}

    @pytest.mark.parametrize("d, n", sorted(FAMILY) + [(4, 5)])
    def test_family_in_every_dimension(self, d, n):
        # e(R) = e((x_i^n, x_i*x_j)) = 2^d + d(n - 2), and the monomials
        # outside (x_i^n, x_i*x_j) are 1 and the x_i^k with k < n
        G = family(n, d)
        assert newton_multiplicity(G.generators) == 2 ** d + d * (n - 2)
        assert len(minimal_plane_generators(G)) == 1 + d * (n - 1)
        if (d, n) in self.FAMILY:
            gaps = gap_set_auto(G)
            assert (len(gaps), saturation_exponent(G)) == self.FAMILY[d, n]

    @pytest.mark.parametrize("n", [2, 3])
    def test_family_gaps_match_elimination(self, n):
        # every monomial up to the largest gap's degree + maxgen, decided by
        # the tag-variable basis of k[R_{n,3}]; with the tags in descending
        # degree that basis takes about 15 s at n = 3, in ascending over 35 s
        from ulrich_forge import PresentedSubring

        G = family(n, 3)
        S = PolyRing(("x", "y", "z"))
        sub = PresentedSubring(S, [S.monomial(g) for g in sorted(
            G.generators, key=lambda g: (sum(g), g), reverse=True)])
        gaps = gap_set_auto(G)
        bound = max(sum(g) for g in gaps) + G.max_generator_degree
        assert gaps == {v for v in monomials_up_to(bound, 3)
                        if not sub.tag_membership(S.monomial(v)).member}

    @given(st.integers(2, 7), st.integers(2, 7), st.integers(1, 3), st.integers(1, 3),
           st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=3))
    def test_multiplicity_is_the_newton_value(self, a, b, i, j, more):
        gens = [(a, 0), (a + 1, 0), (0, b), (0, b + 1), (1, j), (i, 1)]
        gens += [v for v in more if v != (0, 0)]
        assert multiplicity(AffineSemigroup(2, tuple(gens))) == brute_newton_twice_area(gens)


@st.composite
def homogeneous_space_semigroups(draw):
    """Semigroups of some monomials of k[s, x, y] of one degree <= 4."""
    degree = draw(st.integers(1, 4))
    monomials = [m for m in itertools.product(range(degree + 1), repeat=3)
                 if sum(m) == degree]
    gens = draw(st.lists(st.sampled_from(monomials), min_size=1, unique=True))
    return AffineSemigroup(3, tuple(gens))


class TestHomogeneousMultiplicity:
    @pytest.mark.parametrize("gens, e", [
        # the Hilbert-Samuel third differences run 9, 11, 11, 11, 10, 10, ...
        (((0, 2, 2), (0, 3, 1), (1, 0, 3), (3, 0, 1), (4, 0, 0)), 10),
        (((0, 1, 4), (1, 3, 1), (2, 3, 0), (3, 2, 0), (4, 0, 1), (5, 0, 0)), 15),
    ])
    def test_window_reproducers(self, gens, e):
        assert homogeneous_multiplicity(AffineSemigroup(3, gens))[0] == e

    @pytest.mark.parametrize("n", range(1, 11))
    def test_space_family(self, n, monkeypatch):
        dims = []
        facets = newton.facets
        monkeypatch.setattr(newton, "facets",
                            lambda points, *args: dims.append(len(points[0])) or facets(points, *args))
        e, certificate = homogeneous_multiplicity(localization_semigroup(n))
        assert e == (n + 1) ** 2
        assert dims == [2]  # the triangle's sides end the recursion as segments
        # the hull is the simplex of degree n + 1, in the lattice Z^3
        d = n + 1
        assert certificate == {"hull": [[0, 0, d], [d, 0, 0], [0, d, 0]], "lattice_index": 1}

    @given(homogeneous_space_semigroups())
    def test_equals_the_hilbert_samuel_growth(self, G):
        values = [hilbert_samuel(G, t) for t in range(15, 20)]
        for _ in range(3):
            values = [b - a for a, b in zip(values, values[1:])]
        e, _ = homogeneous_multiplicity(G)
        assert values == [e, e]

    @pytest.mark.parametrize("G, e, index", [
        (AffineSemigroup(1, ((3,),)), 1, 1),
        (AffineSemigroup(2, ((2, 0), (1, 1), (0, 2))), 2, 1),
        (AffineSemigroup(2, ((4, 0), (2, 2), (0, 4))), 2, 2),
        (AffineSemigroup(2, ((3, 0),)), 0, 0),  # rank 1 in dimension 2
        (AffineSemigroup(3, ((2, 0, 0), (1, 1, 0), (0, 2, 0))), 0, 0),  # rank 2
    ])
    def test_low_dimension_and_rank(self, G, e, index):
        value, certificate = homogeneous_multiplicity(G)
        assert (value, certificate["lattice_index"]) == (e, index)
        values = [hilbert_samuel(G, t) for t in range(10, 10 + G.dim + 1)]
        for _ in range(G.dim):
            values = [b - a for a, b in zip(values, values[1:])]
        assert values == [e]

    FOUR_VARIABLES = [
        # the quadric Veronese ring in four variables
        (tuple(m for m in itertools.product(range(3), repeat=4) if sum(m) == 2), 8, 1),
        # (1, 1, 0, 0) lies on an edge of the hull, which is no simplex
        (((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (1, 1, 0, 0), (0, 0, 1, 1), (0, 1, 0, 1)),
         6, 1),
        (((0, 1, 2, 0), (1, 0, 0, 2), (2, 1, 0, 0), (0, 0, 3, 0), (0, 3, 0, 0), (1, 1, 1, 0),
          (3, 0, 0, 0)), 9, 2),
        (((4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 4, 0), (0, 0, 0, 4), (1, 1, 1, 1)), 4, 16),
    ]

    @pytest.mark.parametrize("gens, e, index", FOUR_VARIABLES)
    def test_four_variables_equal_the_hilbert_samuel_growth(self, gens, e, index):
        G = AffineSemigroup(4, gens)
        value, certificate = homogeneous_multiplicity(G)
        assert (value, certificate["lattice_index"]) == (e, index)
        assert certificate["hull"] == sorted(certificate["hull"])
        values = [hilbert_samuel(G, t) for t in range(8, 13)]
        for _ in range(4):
            values = [b - a for a, b in zip(values, values[1:])]
        assert values == [e]

    @pytest.mark.parametrize("gens, e, index", FOUR_VARIABLES)
    def test_index_without_the_zero_difference(self, gens, e, index):
        # every minor through the first generator's zero difference is 0, so
        # the gcd over all C(n, 3) minors is the index the kernel reports
        first = gens[0][:-1]
        rows = [[a - b for a, b in zip(g[:-1], first)] for g in gens]
        every_minor = math.gcd(*(det(m) for m in itertools.combinations(rows, 3)))
        certificate = homogeneous_multiplicity(AffineSemigroup(4, gens))[1]
        assert certificate["lattice_index"] == every_minor == index

    def test_t3_index_takes_one_minor_per_pair_of_other_generators(self, monkeypatch):
        minors = []
        monkeypatch.setattr(semigroup, "det", lambda rows: minors.append(rows) or det(rows))
        e, certificate = homogeneous_multiplicity(localization_semigroup(2))
        assert (e, certificate["lattice_index"]) == (9, 1)
        assert len(minors) == 21  # C(7, 2); with the zero difference C(8, 2) = 28

    @pytest.mark.parametrize("points, vertices", [
        # collinear in Z^3 and Z^4: the midpoint is no vertex
        (((0, 0, 0), (1, 1, 1), (2, 2, 2)), [(0, 0, 0), (2, 2, 2)]),
        (((0, 0, 0, 0), (1, 1, 1, 1), (3, 3, 3, 3)), [(0, 0, 0, 0), (3, 3, 3, 3)]),
        # dropping x_1 keeps these three apart but makes them collinear
        (((0, 0, 0, 0), (1, 1, 0, 0), (2, 3, 0, 0)), [(0, 0, 0, 0), (1, 1, 0, 0), (2, 3, 0, 0)]),
        # (1, 0, 1, 0) lies on an edge of the triangle
        (((0, 0, 0, 0), (2, 0, 0, 0), (0, 0, 2, 0), (1, 0, 1, 0)),
         [(0, 0, 0, 0), (0, 0, 2, 0), (2, 0, 0, 0)]),
    ])
    def test_rank_deficient_hull_lists_only_vertices(self, points, vertices):
        assert hull(points) == (0, vertices)

    @pytest.mark.parametrize("points, value", [
        ([(5,)], (0, [(5,)])),
        ([(5,), (5,)], (0, [(5,)])),
        ([(4,), (-2,)], (6, [(-2,), (4,)])),
        ([(3,), (9,), (3,), (-1,), (6,)], (10, [(-1,), (9,)])),
    ])
    def test_segment_ends_the_recursion(self, points, value, monkeypatch):
        monkeypatch.setattr(newton, "facets", lambda *args: pytest.fail("facets in 1-D"))
        assert hull(points) == value

    def test_collinear_generators_in_four_variables(self):
        G = AffineSemigroup(4, ((2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0)))
        assert homogeneous_multiplicity(G) == (
            0, {"hull": [[0, 2, 0, 0], [2, 0, 0, 0]], "lattice_index": 0})


class TestMinimalGenerators:
    def test_plane_family_has_seven(self):
        assert nu_max_ideal(R2) == 7

    def test_full_plane(self):
        assert nu_max_ideal(FULL_PLANE) == 2

    def test_quadric_veronese(self):
        assert nu_max_ideal(AffineSemigroup(2, ((2, 0), (0, 2), (1, 1)))) == 3


class TestCoverGenerators:
    """Minimal generators of N^d as a module over R, the staircase of the
    generators; the scan of every point up to a degree bound is the oracle."""

    @pytest.mark.parametrize("n", range(2, 41))
    def test_plane_family_is_a_staircase(self, n, monkeypatch):
        # (0, 0) and the axis points below x^n and y^n, by (degree, point),
        # with no member table: past n = 45 the rows would exceed ROW_CAP
        monkeypatch.setattr(semigroup, "_member_set", lambda G: pytest.fail("member table"))
        axes = [p for i in range(1, n) for p in ((0, i), (i, 0))]
        cover = minimal_plane_generators(no_ulrich_semigroup(n))
        assert cover == ((0, 0), *axes)
        assert len(cover) == 2 * n - 1

    @pytest.mark.parametrize("gens, failed", [
        (((2, 0), (3, 0), (0, 1)), "no generator has x-coordinate 1"),
        (((2, 0), (1, 1), (0, 1)), "the generators on the x-axis have gcd 2"),
    ])
    def test_infinite_gap_set_refused(self, gens, failed):
        with pytest.raises(InfiniteGapSet, match=f"^gap set is not finite: {failed}$"):
            minimal_plane_generators(AffineSemigroup(2, gens))

    def test_three_variable_ring(self):
        G = AffineSemigroup(3, ((2, 0, 0), (3, 0, 0), (0, 2, 0), (0, 3, 0), (0, 0, 2),
                                (0, 0, 3), (1, 1, 0), (0, 1, 1), (1, 0, 1)))
        assert minimal_plane_generators(G) == ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0))

    @settings(max_examples=30)
    @given(st.sampled_from([2, 3]).flatmap(lambda dim: hyperplane_semigroups(dim, None)))
    def test_matches_the_scan(self, G):
        assert minimal_plane_generators(G) == scan_minimal_generators(G)


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

    def test_masked_layers_match_the_scan_on_the_plane_family(self):
        # the row table's layers are masked to the gaps' down-closure; the
        # scan tests every member up to the largest gap against every gap
        # (it stops at R_9 for time)
        plane = [no_ulrich_semigroup(n) for n in range(2, 13)]
        exponents = [saturation_exponent(G) for G in plane]
        assert exponents == [1, 3, 4, 7, 9, 14, 16, 22, 25, 33, 36]
        assert exponents[:8] == [scan_saturation_exponent(G) for G in plane[:8]]

    def test_masked_layers_leave_the_kept_layer(self):
        # hilbert_samuel goes on from the full-width layer it built
        G = no_ulrich_semigroup(5)
        table = _member_set(G)
        hilbert = hilbert_samuel(G, 3)
        kept = table.last
        assert saturation_exponent(G) == 7
        assert table.last is kept
        assert hilbert_samuel(G, 3) == hilbert == scan_hilbert_samuel(G, 3)


@st.composite
def row_table_semigroups(draw):
    """Plane semigroups with axis pairs a*e_i, (a+1)*e_i, generators (1, j)
    and (i, 1), and up to three more; half the time an axis takes a factor
    of 2 or the generators of x-coordinate 1 are dropped, which makes the gap
    set infinite."""
    a, b = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    gens = {(a, 0), (a + 1, 0), (0, b), (0, b + 1), (1, draw(st.integers(0, 5))),
            (draw(st.integers(0, 5)), 1)}
    gens |= set(draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(any),
                              max_size=3)))
    broken = draw(st.sampled_from([None, None, None, "x-factor", "y-factor", "x-one"]))
    if broken == "x-factor":
        gens = {(2 * x, y) if not y else (x, y) for x, y in gens}
    elif broken == "y-factor":
        gens = {(x, 2 * y) if not x else (x, y) for x, y in gens}
    elif broken == "x-one":
        gens = {g for g in gens if g[0] != 1}
    return AffineSemigroup(2, tuple(gens))


class TestRowTable:
    """A plane semigroup's member table is a row table; the naive recursion
    and the per-row closure of tests/oracles.py are its oracles."""

    @settings(max_examples=40)
    @given(row_table_semigroups(), st.data())
    def test_agrees_with_the_naive_recursion(self, G, data):
        memo = {}

        def order(v):
            return naive_semigroup_order(G.generators, v, memo)

        def points_upto(degree):
            return [v for s in range(degree + 1) for v in lattice_shell(s, (0, 0))]

        maxgen = G.max_generator_degree
        assert hilbert_samuel(G, 0) == 0
        for t in range(1, 5):
            naive = sum(1 for v in points_upto((t - 1) * maxgen)
                        if order(v) is not None and order(v) < t)
            assert hilbert_samuel(G, t) == naive
        assert nu_max_ideal(G) == sum(1 for g in G.generators if order(g) == 1)
        for v in data.draw(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)),
                                    min_size=1, max_size=8)) + [(0, 0)]:
            witness = sg_member(G, v)
            assert witness.member == (order(v) is not None)
            assert witness.decomposition == (naive_decomposition(G, v, memo)
                                             if witness.member else None)
            if witness.member:
                assert all(g in G.generators for g in witness.decomposition)
                assert tuple(map(sum, zip(*witness.decomposition, (0, 0)))) == v
        failed = gap_obstruction(G)
        if failed is not None:
            with pytest.raises(InfiniteGapSet, match=f"gap set is not finite: {failed}"):
                gap_set_auto(G)
            return
        gaps = gap_set_auto(G)
        top = max((sum(g) for g in gaps), default=0)
        # no gap among the maxgen shells past the largest one proves them all
        assert gaps == set(naive_gap_points(G.generators, top + maxgen))
        below = [order(v) for v in points_upto(top) if order(v) is not None
                 and any(v[0] <= g[0] and v[1] <= g[1] for g in gaps)]
        assert saturation_exponent(G) == max(below, default=0) + 1
        assert {(i, j) for j, row in enumerate(gap_rows(G))
                for i in range(row.bit_length()) if row >> i & 1} == gaps

    @given(row_table_semigroups(),
           st.lists(st.tuples(st.integers(1, 70), st.integers(1, 40)), min_size=1, max_size=4))
    def test_rows_match_the_per_row_closure(self, G, covers):
        # covers of growing width rebuild the rows, of growing height extend them
        table = _RowTable(G)
        width = height = 0
        for w, h in covers:
            width, height = width + w, height + h
            table.cover(width, height)
            assert table.rows == per_row_closed_rows(G, table.width, len(table.rows))
        memo = {}
        assert table.nu_max_ideal() == sum(
            1 for g in G.generators if naive_semigroup_order(G.generators, g, memo) == 1)
        for t in range(4):
            assert (table.hilbert_samuel(t) if t else 0) == scan_hilbert_samuel(G, t)
        if gap_obstruction(G) is None:
            table.scan()
            assert table.saturation_exponent() == scan_saturation_exponent(G)

    @pytest.mark.parametrize("height, n", [(1, 2), (2, 3), (40, 9), (400, 30)])
    def test_a_build_closes_only_row_0(self, height, n, monkeypatch):
        calls = []
        closed = semigroup._closed
        monkeypatch.setattr(semigroup, "_closed", lambda *args: calls.append(args) or closed(*args))
        table = _RowTable(R2)
        table.cover(30, height)
        table.cover(30, 2 * height)  # more rows, no more closures
        assert len(calls) == 1
        table.cover(100, height)  # a wider table is built afresh
        assert len(calls) == 2
        assert table.rows == per_row_closed_rows(R2, 100, height)
        # a certified scan, over 2n(n - 1) - 1 rows, adds the two axis conductors
        calls.clear()
        _member_set.cache_clear()
        gap_set_auto(no_ulrich_semigroup(n))
        assert len(_member_set(no_ulrich_semigroup(n)).rows) == 2 * n * (n - 1) - 1
        assert len(calls) == 3

    def test_order_layers_are_refused_past_their_cap(self, monkeypatch):
        monkeypatch.setattr(semigroup, "LAYER_CAP", 100)
        table = _member_set(FULL_PLANE)
        assert hilbert_samuel(FULL_PLANE, 10) == 55  # L_10 over 10 rows
        with pytest.raises(InconclusiveError, match="^order layer 11 over 11 rows requested, "
                                                    "above LAYER_CAP=100 layer rows$"):
            hilbert_samuel(FULL_PLANE, 11)
        assert table.last[0] < 11  # L_11 was never built
        # R_8's gap rows number 56, so L_2 over them is past the cap
        with pytest.raises(InconclusiveError, match="^order layer 2 over 56 rows"):
            saturation_exponent(no_ulrich_semigroup(8))

    def test_plane_entry_points_share_one_table(self, monkeypatch, capsys):
        from ulrich_forge import koszul
        from ulrich_forge.cli import main

        G = AffineSemigroup(2, ((4, 0), (5, 0), (0, 3), (0, 4), (1, 2), (3, 1), (2, 2)))
        hilbert = [scan_hilbert_samuel(G, t) for t in range(4)]
        built = []
        init = _RowTable.__init__
        monkeypatch.setattr(_RowTable, "__init__",
                            lambda self, H: built.append(H) or init(self, H))
        _member_set.cache_clear()
        gaps = gap_set_auto(G)
        assert len(gap_rows(G)) == max(y for _, y in gaps) + 1
        assert sg_member(G, (7, 5)).member and not sg_member(G, (1, 0)).member
        assert [hilbert_samuel(G, t) for t in range(4)] == hilbert
        assert nu_max_ideal(G) == 7
        assert saturation_exponent(G) >= 1
        assert multiplicity(G) == brute_newton_twice_area(G.generators)
        assert minimal_plane_generators(G)[0] == (0, 0)
        M = koszul.MonomialModule(G, ((0, 0), (1, 3)))
        assert koszul.koszul_monomial_R(M, ((4, 0), (0, 3))).chi == 12
        assert koszul.colon_module(M, 1, (4, 0), (0, 3))[1] >= 0
        koszul.monomial_saturation(M)
        assert koszul.monomial_min_gens(M) == 2
        assert main(["verify-35", "--n", "12"]) == 0
        assert "verdict: NO_ULRICH\n" in capsys.readouterr().out
        assert built.count(G) == 1
