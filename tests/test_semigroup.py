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
from ulrich_forge import groebner, semigroup
from ulrich_forge.newton import det, hull
from ulrich_forge.patterns import InconclusiveError
from ulrich_forge.pipelines import localization_semigroup, no_ulrich_semigroup
from ulrich_forge.semigroup import (
    CODE_WIDTH,
    FULL_PLANE,
    TABLE_DEGREE_CAP,
    InfiniteGapSet,
    _member_set,
    _points,
    _PointTable,
    _shell_codes,
    decode,
    encode,
    gap_obstruction,
    homogeneous_multiplicity,
    lattice_shell,
    saturation_exponent,
)

from oracles import (
    brute_newton_twice_area,
    naive_gap_points,
    naive_semigroup_member,
    naive_semigroup_order,
    scan_hilbert_samuel,
    scan_saturation_exponent,
)

R2 = no_ulrich_semigroup(2)
R = PolyRing(("x", "y"))


def order_of(G, v):
    """ord(v) of a member v, read from the point table."""
    return _points(G, sum(v))[encode(v)]


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


class TestPointCodes:
    """The point table holds each point as its code."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_shell_codes_follow_lattice_shell(self, dim):
        for s in range(10):
            assert list(_shell_codes(s, dim)) == [encode(v) for v in lattice_shell(s, (0,) * dim)]

    @given(st.lists(st.integers(-3000, 3000), min_size=1, max_size=4), st.data())
    def test_decode_inverts_encode_above_a_floor(self, floor, data):
        offsets = [data.draw(st.integers(0, (1 << CODE_WIDTH) - 1)) for _ in floor[:-1]]
        point = tuple(f + o for f, o in zip(floor, offsets + [data.draw(st.integers(0, 10 ** 6))]))
        assert decode(encode(point), tuple(floor)) == point

    @pytest.mark.parametrize("dim, top, bound", [(2, 6, 16), (3, 3, 8)])
    def test_table_equals_naive_recursion(self, dim, top, bound):
        @settings(max_examples=40)
        @given(semigroups(dim, top))
        def check(G):
            table = _PointTable(G)
            ords = table.upto(bound)
            memo = {}
            members = 0
            for s in range(bound + 1):
                for v in lattice_shell(s, (0,) * dim):
                    order = naive_semigroup_order(G.generators, v, memo)
                    assert ords.get(encode(v)) == order
                    members += order is not None
            assert len(ords) == members
            counts = [0] * len(table.order_counts)
            for o in ords.values():
                counts[o] += 1
            assert counts == table.order_counts
            if table.gaps is not None:
                assert set(table.gaps) == set(naive_gap_points(G.generators, bound, dim))

        check()

    def test_points_at_the_degree_cap(self):
        # v - g reaches (-TABLE_DEGREE_CAP, TABLE_DEGREE_CAP) in the last shell
        cap = TABLE_DEGREE_CAP
        G = AffineSemigroup(2, ((cap, 0), (0, cap), (cap - 1, 1), (1, cap - 1), (13, 7)))
        memo = {}
        members = 0
        for a in range(cap + 1):
            v = (a, cap - a)
            order = naive_semigroup_order(G.generators, v, memo)
            witness = sg_member(G, v)
            assert witness.member == (order is not None)
            if order is not None:
                assert order_of(G, v) == order
                assert tuple(map(sum, zip(*witness.decomposition))) == v
                members += 1
        assert members == 5


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

    def test_degree_cap_refuses_before_growing(self):
        G = AffineSemigroup(2, ((2, 0), (3, 0), (0, 2), (0, 3), (1, 1)))
        table = _member_set(G)
        grown = table.bound
        with pytest.raises(InconclusiveError, match=f"TABLE_DEGREE_CAP={TABLE_DEGREE_CAP}"):
            hilbert_samuel(G, 10 ** 8)
        assert table.bound == grown


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


class CountingDict(dict):
    """A dict that counts the entries its iterators yield."""

    yielded = 0

    def _counted(self, entries):
        for entry in entries:
            self.yielded += 1
            yield entry

    def __iter__(self):
        return self._counted(dict.__iter__(self))

    def keys(self):
        return self._counted(dict.keys(self))

    def values(self):
        return self._counted(dict.values(self))

    def items(self):
        return self._counted(dict.items(self))


class TestPointTableReaders:
    """saturation_exponent and hilbert_samuel read the table by degree prefix
    and order count; the full scans are the oracles."""

    def test_match_full_scans_on_pregrown_tables(self):
        rng = random.Random(31)
        for _ in range(40):
            G = plane_semigroup(rng)
            _points(G, rng.randint(0, 100))  # the readers must ignore the excess
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

    def test_readers_iterate_only_the_degree_prefix_they_need(self):
        G = AffineSemigroup(2, ((3, 0), (4, 0), (0, 5), (0, 6), (1, 2), (2, 1), (2, 5)))
        _points(G, 200)
        table = _member_set(G)
        table.ords = ords = CountingDict(table.ords)

        def members_upto(degree):
            return sum(1 for c in dict.keys(ords) if sum(decode(c, (0, 0))) <= degree)

        def yielded(call):
            ords.yielded = 0
            call()
            return ords.yielded

        top_gap = max(sum(g) for g in gap_set_auto(G))
        assert yielded(lambda: saturation_exponent(G)) <= members_upto(top_gap)
        for t in range(6):
            need = members_upto(t * G.max_generator_degree - 1)
            assert yielded(lambda: hilbert_samuel(G, t)) <= need


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
        # maxgen + 1 full shells follow the largest gap, of degree 5
        assert _member_set(G).bound == 5 + G.max_generator_degree + 1
        monkeypatch.setattr(_PointTable, "_grow", lambda self: pytest.fail("scanned again"))
        assert gap_set_auto(G) is gaps

    def test_scan_refuses_to_grow_past_the_table_cap(self, table_cap):
        table_cap(40)
        # R_7 is finite, but its largest gap has degree 41
        G = no_ulrich_semigroup(7)
        with pytest.raises(InconclusiveError, match="TABLE_DEGREE_CAP=40"):
            gap_set_auto(G)
        assert _member_set(G).bound == 40
        # a certificate that ends below the cap still comes back
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
    """Whether a fresh point table certifies a gap set by degree `bound`."""
    table = _PointTable(G)
    while table.gaps is None and table.bound < bound:
        table.upto(table.bound + 1)
    return table.gaps is not None


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
        monkeypatch.setattr(_PointTable, "_grow", lambda self: pytest.fail("scanned"))
        with pytest.raises(InfiniteGapSet) as err:
            gap_set_auto(G)
        assert str(err.value) == f"gap set is not finite: {failed}"

    def test_finite_past_the_budget_is_inconclusive(self, table_cap):
        # 91 points: a plane table at degree 12; a 3-variable one holds 84 at 6
        table_cap(12)
        # every plane meets the criterion, but <4, 5> has its largest gap at 11
        G = AffineSemigroup(3, ((4, 0, 0), (5, 0, 0), (0, 4, 0), (0, 5, 0), (0, 0, 4),
                                (0, 0, 5), (1, 1, 0), (1, 0, 1), (0, 1, 1)))
        assert gap_obstruction(G) is None
        with pytest.raises(InconclusiveError) as err:
            gap_set_auto(G)
        assert str(err.value) == (
            "point table of degree 7 requested, above degree 6, the most in 3 variables "
            "for a table no bigger than a plane table at TABLE_DEGREE_CAP=12")
        assert _member_set(G).bound == 6

    def test_certified_past_degree_80(self):
        # R_9's largest gap has degree 71, so its certificate closes at 82
        _member_set.cache_clear()
        gaps = gap_set_auto(no_ulrich_semigroup(9))
        assert max(sum(g) for g in gaps) == 71
        assert _member_set(no_ulrich_semigroup(9)).bound == 82


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

    def test_table_size_is_bounded_in_every_dimension(self):
        plane = math.comb(TABLE_DEGREE_CAP + 2, 2)
        for dim, cap in ((1, 1000), (2, 1000), (3, 142), (4, 56)):
            assert _PointTable(AffineSemigroup(dim, (unit(dim, 0),))).cap == cap
            assert math.comb(cap + dim, dim) <= plane
            assert dim < 3 or math.comb(cap + 1 + dim, dim) > plane
        G = AffineSemigroup(3, ((2, 0, 0), (3, 0, 0), (0, 2, 0), (0, 3, 0), (0, 0, 2),
                                (0, 0, 3), (1, 1, 0), (1, 0, 1), (0, 1, 1)))
        table = _member_set(G)
        grown = table.bound
        # t * maxgen - 1 = 143: one degree past the budget, refused before growing
        with pytest.raises(InconclusiveError) as err:
            hilbert_samuel(G, 48)
        assert str(err.value) == (
            "point table of degree 143 requested, above degree 142, the most in 3 variables "
            "for a table no bigger than a plane table at TABLE_DEGREE_CAP=1000")
        assert table.bound == grown


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
    def test_space_family(self, n):
        e, certificate = homogeneous_multiplicity(localization_semigroup(n))
        assert e == (n + 1) ** 2
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
