"""Affine semigroup lab: membership, gaps, Hilbert-Samuel data, localization."""
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

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
from ulrich_forge.koszul import MonomialModule, _code_box
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
    homogeneous_multiplicity,
    lattice_shell,
    ord_of,
    plane_gap_obstruction,
    saturation_exponent,
)

from oracles import (
    brute_newton_twice_area,
    naive_gap_points,
    naive_semigroup_member,
    naive_semigroup_order,
    scan_hilbert_samuel,
    scan_saturation_exponent,
    scan_support,
)

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


def semigroups(dim, top):
    """Semigroups of N^dim with one to five generators, coordinates <= top."""
    gen = st.tuples(*[st.integers(0, top)] * dim).filter(any)
    return st.lists(gen, min_size=1, max_size=5).map(
        lambda gens: AffineSemigroup(dim, tuple(gens)))


class TestPointCodes:
    """The table and the module supports hold each point as its code."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_shell_codes_follow_lattice_shell(self, dim):
        for s in range(10):
            assert list(_shell_codes(s, dim)) == [encode(v) for v in lattice_shell(s, (0,) * dim)]

    @given(st.lists(st.integers(-3000, 3000), min_size=1, max_size=4), st.data())
    def test_decode_inverts_encode_above_a_floor(self, floor, data):
        width = data.draw(st.sampled_from([CODE_WIDTH, CODE_WIDTH + 1, 14]))
        offsets = [data.draw(st.integers(0, (1 << width) - 1)) for _ in floor[:-1]]
        point = tuple(f + o for f, o in zip(floor, offsets + [data.draw(st.integers(0, 10 ** 6))]))
        assert decode(encode(point, width), tuple(floor), width) == point

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
                assert table.ends[s] == members
            counts = [0] * len(table.order_counts)
            for o in ords.values():
                counts[o] += 1
            assert counts == table.order_counts
            gaps = table.gaps_within(bound)
            if gaps is not None:
                assert set(gaps) == set(naive_gap_points(G.generators, bound, dim))

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
                assert ord_of(G, v) == order
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


def support_points(M, bound):
    """MonomialModule.support decoded to points, at a width that tells them
    apart."""
    floor, width = _code_box(M, bound)
    return {decode(c, floor, width) for c in M.support(bound)}


class TestPointTableReaders:
    """saturation_exponent, hilbert_samuel and MonomialModule.support read the
    table by degree prefix and order count; the full scans are the oracles."""

    def test_match_full_scans_on_pregrown_tables(self):
        rng = random.Random(31)
        for _ in range(40):
            G = plane_semigroup(rng)
            _points(G, rng.randint(0, 100))  # the readers must ignore the excess
            assert saturation_exponent(G) == scan_saturation_exponent(G)
            for t in range(6):
                assert hilbert_samuel(G, t) == scan_hilbert_samuel(G, t)
            gens = {(rng.randint(-3, 4), rng.randint(-3, 4)) for _ in range(rng.randint(1, 3))}
            M = MonomialModule(G, tuple(gens))
            for bound in (rng.randint(-8, 0), rng.randint(0, 12), rng.randint(12, 40)):
                assert support_points(M, bound) == scan_support(M, bound)

    def test_three_variables(self):
        G = AffineSemigroup(3, ((2, 0, 0), (3, 0, 0), (0, 2, 0), (0, 3, 0), (0, 0, 2),
                                (0, 0, 3), (1, 1, 0), (1, 0, 1), (0, 1, 1)))
        assert len(gap_set_auto(G)) == 13
        assert saturation_exponent(G) == scan_saturation_exponent(G) == 3
        for t in range(5):
            assert hilbert_samuel(G, t) == scan_hilbert_samuel(G, t)
        M = MonomialModule(G, ((-1, 2, 0), (1, 1, 1)))
        for bound in (-2, 3, 9):
            assert support_points(M, bound) == scan_support(M, bound)

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
        M = MonomialModule(G, ((-2, 3), (1, 0), (4, 4)))
        for bound in (-3, 0, 7, 20):
            need = sum(members_upto(bound - sum(m)) for m in M.gens)
            assert yielded(lambda: M.support(bound)) <= need


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

    def test_scan_refuses_to_grow_past_the_table_cap(self, monkeypatch):
        from ulrich_forge import semigroup

        monkeypatch.setattr(semigroup, "TABLE_DEGREE_CAP", 40)
        G = AffineSemigroup(3, ((1, 0, 0), (0, 1, 0)))  # no power of z is a member
        with pytest.raises(InconclusiveError, match="TABLE_DEGREE_CAP=40"):
            gap_set(G, 1000)
        assert _member_set(G).bound == 40
        assert gap_set(G, 40) is None
        # the odd powers of x are gaps, which the plane criterion sees unscanned
        assert gap_set(AffineSemigroup(2, ((2, 0), (0, 1))), 1000) is None
        # a certificate that ends below the cap comes back for any bound
        assert gap_set(R2, 10 ** 8) == {(1, 0), (0, 1)}

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


class TestPlaneCriterion:
    def test_agrees_with_the_scan(self):
        rng = random.Random(12)
        verdicts = set()
        for _ in range(200):
            G = criterion_semigroup(rng)
            failed = plane_gap_obstruction(G)
            assert (failed is None) == (gap_set(G, 200) is not None), (G, failed)
            if failed is not None:
                with pytest.raises(InfiniteGapSet, match=f"gap set is not finite: {failed}"):
                    gap_set_auto(G)
            verdicts.add(failed and failed.split()[0])
            _member_set.cache_clear()
        assert verdicts == {None, "no", "the"}

    @pytest.mark.parametrize("gens, failed", [
        (((2, 0), (0, 2), (1, 1)), "the generators on the x-axis have gcd 2"),
        (((1, 0), (0, 3), (0, 6), (1, 1)), "the generators on the y-axis have gcd 3"),
        (((1, 1), (0, 1)), "no generator lies on the x-axis"),
        (((2, 0), (3, 0), (0, 1), (2, 1)), "no generator has x-coordinate 1"),
        (((1, 0), (0, 2), (0, 3), (1, 2)), "no generator has y-coordinate 1"),
    ])
    def test_names_the_failed_condition_before_scanning(self, gens, failed, monkeypatch):
        G = AffineSemigroup(2, gens)
        assert plane_gap_obstruction(G) == failed
        monkeypatch.setattr(_PointTable, "_grow", lambda self: pytest.fail("scanned"))
        with pytest.raises(InfiniteGapSet) as err:
            gap_set_auto(G)
        assert str(err.value) == f"gap set is not finite: {failed}"

    def test_finite_past_the_budget_is_inconclusive(self):
        # R_9 meets the criterion; its largest gap has degree 71
        G = no_ulrich_semigroup(9)
        assert plane_gap_obstruction(G) is None
        with pytest.raises(InconclusiveError, match="GAP_DEGREE_CAP=80"):
            gap_set_auto(G)


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

    def test_window_reproducer(self):
        # the Hilbert-Samuel second differences run 8, 8, 8, 6, 6, ...
        G = AffineSemigroup(2, ((0, 4), (0, 5), (1, 1), (1, 6), (2, 0), (4, 1), (4, 5),
                                (5, 0), (6, 0)))
        assert multiplicity(G) == 6

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

    def test_dimension_four_is_refused(self):
        with pytest.raises(ValueError, match="dim <= 3"):
            homogeneous_multiplicity(AffineSemigroup(4, ((1, 0, 0, 0), (0, 1, 0, 0))))


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
