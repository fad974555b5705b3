"""Affine semigroup models of monomial subrings R of k[x1..xd]: membership
with certificates, gap sets, order filtration, Hilbert-Samuel function,
multiplicity, minimal generator counts, and the single face localization the
shipped examples need.  Multiplicities are volumes, not read off a table.

A point v of N^d stands for the monomial with exponent vector v; the semigroup
is the set of monomial exponents lying in R.  The gap set is N^d minus the
semigroup; a finite gap set certifies that S/R has finite length.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .newton import det, hull, newton_multiplicity, staircase
from .patterns import InconclusiveError


@dataclass(frozen=True)
class AffineSemigroup:
    dim: int
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        gens = []
        for g in self.generators:
            g = tuple(g)
            if len(g) != self.dim:
                raise ValueError(f"generator {g} has wrong dimension")
            if any(e < 0 for e in g):
                raise ValueError(f"generator {g} has a negative exponent")
            if all(e == 0 for e in g):
                raise ValueError("zero generator not allowed")
            gens.append(g)
        object.__setattr__(self, "generators", tuple(sorted(set(gens))))
        if not self.generators:
            raise ValueError("at least one generator required")

    @property
    def max_generator_degree(self) -> int:
        return max(sum(g) for g in self.generators)

    def __repr__(self):
        gens = ",".join(str(g) for g in self.generators)
        return f"AffineSemigroup(dim={self.dim}, {{{gens}}})"


FULL_PLANE = AffineSemigroup(2, ((1, 0), (0, 1)))


@dataclass(frozen=True)
class MembershipWitness:
    member: bool
    decomposition: tuple[tuple[int, ...], ...] | None


POINT_TABLES = 64  # semigroups whose point tables stay cached
# Largest degree a point table may be asked to cover, and in three or more
# variables the largest degree whose table holds no more points than a plane
# table at this cap.  The largest table a shipped pipeline needs is verify-35's
# at n = 31: its largest gap has degree 929, so its certificate closes at 962.
TABLE_DEGREE_CAP = 1000

# Inside the point table a lattice point v is one integer, its code
# lin(v) = sum of v_i * 2**(CODE_WIDTH * i).  lin is
# additive, so translating by u adds lin(u) and "v - g is a member" becomes
# "c - lin(g) is a key".  lin is injective on any set in which every coordinate
# but the last spans at most 2**CODE_WIDTH values: at the lowest coordinate
# where two such points differ, the difference of their codes is that
# coordinate's difference times a power of two, which the higher coordinates
# (multiples of the next power) cannot cancel.  Shell s of a table subtracts
# only generators of degree <= s from points of degree s, so every point it
# tests, member or not, lies in [-s, s]^d with s <= TABLE_DEGREE_CAP; the
# 2 * TABLE_DEGREE_CAP + 1 values of that range fit in CODE_WIDTH bits.
CODE_WIDTH = (2 * TABLE_DEGREE_CAP).bit_length()


def encode(v) -> int:
    """The code lin(v) of the point v; coordinates may be negative."""
    return sum(e << (CODE_WIDTH * i) for i, e in enumerate(v))


def decode(code: int, dim: int) -> tuple:
    """The point v of N^dim with code `code`, for v whose coordinates but the
    last lie below 2**CODE_WIDTH."""
    mask = (1 << CODE_WIDTH) - 1
    point = []
    for _ in range(dim - 1):
        point.append(code & mask)
        code >>= CODE_WIDTH
    point.append(code)
    return tuple(point)


def _shell_codes(s: int, dim: int):
    """The codes of the points of N^dim with coordinate sum s, first
    coordinate ascending: a range for each value of the coordinates but the
    last two."""
    if dim == 1:
        return (s,)
    return itertools.chain.from_iterable(_shell_ranges(s, dim, 0, 0))


def _shell_ranges(s, dim, offset, shift):
    if dim == 2:
        # (a, s - a) for a ascending, at bit positions shift and top
        top = shift + CODE_WIDTH
        yield range(offset + (s << top), offset + (s << shift) - 1, (1 << shift) - (1 << top))
        return
    for first in range(s + 1):
        yield from _shell_ranges(s - first, dim - 1, offset + (first << shift),
                                 shift + CODE_WIDTH)


class _PointTable:
    """ord(v) for every member v of degree <= bound, keyed by code and grown
    one shell at a time, up to degree `cap`.  The growth also scans for the
    gap set: once maxgen + 1 shells in a row are full, every point above them
    is a member (a point one degree higher dominates a nonzero member, hence
    some generator g, and v - g lies in the full shells), so the non-members
    below them are all the gaps.  order_counts[o] counts the members of
    order o."""

    def __init__(self, G: AffineSemigroup):
        self.G = G
        self.ords = {0: 0}
        self.order_counts = [1]
        self.bound = 0
        self.full_run = 1  # full shells in a row ending at bound
        self.gaps = None  # the gap set, once certified
        # (generator, degree, code) in the order of G.generators
        self.steps = tuple((g, sum(g), encode(g)) for g in G.generators)
        # C(cap + d, d) points have degree <= cap; no more than in the plane
        points, self.cap = math.comb(TABLE_DEGREE_CAP + 2, 2), TABLE_DEGREE_CAP
        while math.comb(self.cap + G.dim, G.dim) > points:
            self.cap -= 1

    def _grow(self):
        G, ords, counts = self.G, self.ords, self.order_counts
        s = self.bound + 1
        get = ords.get
        shell = list(_shell_codes(s, G.dim))
        misses = [-1] * len(shell)
        # one column per generator g: the order of v - g, or -1; a generator
        # of degree above s leaves the nonnegative orthant, so it is skipped
        columns = [map(get, map(step.__rsub__, shell), misses)
                   for _, degree, step in self.steps if degree <= s]
        below = map(max, misses, *columns) if columns else misses
        new = [(v, o + 1) for v, o in zip(shell, below) if o >= 0]
        ords.update(new)
        for _, o in new:
            if o == len(counts):
                counts.append(0)
            counts[o] += 1
        full = len(new) == len(shell)
        self.bound = s
        self.full_run = self.full_run + 1 if full else 0
        if self.gaps is None and self.full_run > G.max_generator_degree:
            self.gaps = frozenset(decode(v, G.dim)
                                  for d in range(s - G.max_generator_degree)
                                  for v in _shell_codes(d, G.dim) if v not in ords)

    def upto(self, bound: int) -> dict:
        if bound > self.cap:
            size = ("" if self.cap == TABLE_DEGREE_CAP else
                    f"degree {self.cap}, the most in {self.G.dim} variables for a table "
                    "no bigger than a plane table at ")
            raise InconclusiveError(f"point table of degree {bound} requested, above "
                                    f"{size}TABLE_DEGREE_CAP={TABLE_DEGREE_CAP}")
        while self.bound < bound:
            self._grow()
        return self.ords


@lru_cache(maxsize=POINT_TABLES)
def _member_set(G: AffineSemigroup) -> _PointTable:
    return _PointTable(G)


# perfbench/tracing.py reads cache_info() under both historical names.
_ord_table = _member_set


def _points(G: AffineSemigroup, bound: int) -> dict:
    """The point table of G by code, covering at least every degree <= bound."""
    return _member_set(G).upto(bound)


def sg_member(G: AffineSemigroup, v) -> MembershipWitness:
    """Decide membership, exhibiting a generator decomposition when true.

    Decompositions have at most deg(v) parts since every generator is nonzero,
    so the bounded search is exhaustive.
    """
    v = tuple(v)
    if len(v) != G.dim:
        raise ValueError(f"point {v} has wrong dimension")
    if any(e < 0 for e in v):
        return MembershipWitness(False, None)
    left = sum(v)
    table = _member_set(G)
    members = table.upto(left)
    current = encode(v)
    if current not in members:
        return MembershipWitness(False, None)
    decomposition = []
    while current:  # the origin is the only member with code 0
        for g, degree, step in table.steps:
            if degree <= left and current - step in members:
                decomposition.append(g)
                current -= step
                left -= degree
                break
        else:
            raise AssertionError("member without decomposition step")
    return MembershipWitness(True, tuple(decomposition))


class InfiniteGapSet(ValueError):
    """The gap set is proven infinite; the message names the failed condition."""


def gap_obstruction(G: AffineSemigroup, names=None):
    """The first failed condition of an exact criterion for a finite gap set,
    or None when it is finite; `names` label the coordinates (x, y, z, w).

    d <= 2: members on an axis are sums of that axis's generators, so the
    axes fill up only if each axis's generators have gcd 1.  In the plane a
    member (1, j) has one part with x-coordinate 1, so column x = 1 fills up
    only if some generator has x-coordinate 1; rows alike.  Conversely, let
    c_x and c_y be the conductors of the axis monoids and (1, b), (a, 1)
    generators.  A point (i, j) is a member when i >= c_x and j >= c_y (a
    sum of axis members), when j >= i*b + c_y (i*(1, b) plus a y-axis member)
    and when i >= j*a + c_x; only finitely many points escape all three.

    d >= 3: the generators in each coordinate hyperplane x_i = 0 must have a
    finite gap set there, and that is enough (Failla, Peterson & Utano,
    Semigroup Forum 2016).  Let every hyperplane point of degree >= D be a
    member and v_j >= 2D.  Split v_j = a + b with a, b >= D and pick i != j
    and k outside {i, j}: v - v_i*e_i - b*e_j lies in x_i = 0 and
    v_i*e_i + b*e_j in x_k = 0, both of degree >= D, so v is a member."""
    names = names or ("xyzw"[:G.dim] if G.dim <= 4 else [f"x{i}" for i in range(1, G.dim + 1)])
    if G.dim >= 3:
        for i, name in enumerate(names):
            face = tuple(g[:i] + g[i + 1:] for g in G.generators if not g[i])
            if not face:
                return f"no generator lies in the hyperplane {name} = 0"
            failed = gap_obstruction(AffineSemigroup(G.dim - 1, face), names[:i] + names[i + 1:])
            if failed is not None:
                return f"in the hyperplane {name} = 0, {failed}"
        return None
    for axis, name in enumerate(names):
        divisor = math.gcd(*(g[axis] for g in G.generators if sum(g) == g[axis]))
        if divisor != 1:
            return (f"the generators on the {name}-axis have gcd {divisor}" if divisor
                    else f"no generator lies on the {name}-axis")
    for axis, name in enumerate(names if G.dim == 2 else ()):
        if all(g[axis] != 1 for g in G.generators):
            return f"no generator has {name}-coordinate 1"
    return None


def gap_set_auto(G: AffineSemigroup):
    """The finite gap set, certified by maxgen + 1 full member shells.
    Raises InfiniteGapSet at once when G fails the exact criterion of
    gap_obstruction; otherwise the certificate closes, and only the point
    table's budget can stop it (InconclusiveError)."""
    failed = gap_obstruction(G)
    if failed is not None:
        raise InfiniteGapSet(f"gap set is not finite: {failed}")
    table = _member_set(G)
    while table.gaps is None:  # one capped upto() at a time
        table.upto(table.bound + 1)
    return table.gaps


def hilbert_samuel(G: AffineSemigroup, t: int) -> int:
    """Length of R modulo the t-th power of its maximal ideal: the number of
    semigroup points of order below t, all of degree below t*maxgen."""
    if t < 0:
        raise ValueError("t must be non-negative")
    if t == 0:
        return 0
    table = _member_set(G)
    table.upto(t * G.max_generator_degree - 1)
    # a member of order o has degree <= o * maxgen, so none of order < t
    # lies beyond the grown degree, however far the table has grown
    return sum(table.order_counts[:t])


def multiplicity(G: AffineSemigroup) -> int:
    """Multiplicity of a finite-colength monomial subring R: once the gap set
    is certified finite, e(R) = e(m_R * S), read off the Newton polyhedron of
    the generators."""
    gap_set_auto(G)  # certifies the finite-colength hypothesis
    return newton_multiplicity(G.generators)


def nu_max_ideal(G: AffineSemigroup) -> int:
    """Minimal number of monomial generators: semigroup elements of order
    exactly one.  Such elements are irreducible, hence among the listed
    generators."""
    ords = _points(G, G.max_generator_degree)
    return sum(1 for g in G.generators if ords.get(encode(g)) == 1)


@dataclass(frozen=True)
class LocalizationResult:
    semigroup: AffineSemigroup
    inverted_units: tuple[tuple[int, ...], ...]


def localize_at_face(G: AffineSemigroup) -> LocalizationResult:
    """Invert the first variable of a homogeneous 3-dimensional semigroup.

    Each generator s^a x^b y^c becomes (x/s)^b (y/s)^c up to a unit, so the
    image generator is (b, c); generators with b = c = 0 become units and are
    discarded.  Requires all generators to share one total degree, which makes
    the unit identification exact.
    """
    if G.dim != 3:
        raise ValueError("face localization expects a 3-dimensional semigroup")
    degrees = {sum(g) for g in G.generators}
    if len(degrees) != 1:
        raise ValueError("face localization requires equal-degree generators")
    images = []
    units = []
    for g in G.generators:
        b, c = g[1], g[2]
        if b == 0 and c == 0:
            units.append(g)
        else:
            images.append((b, c))
    if not images:
        raise ValueError("all generators become units")
    return LocalizationResult(AffineSemigroup(2, tuple(images)), tuple(units))


def homogeneous_multiplicity(G: AffineSemigroup):
    """(e, certificate) for a semigroup whose generators share one degree: the
    normalised volume of conv(G) in the lattice ZG (Bruns-Gubeladze, Polytopes,
    Rings, and K-Theory, 6).  Dropping the last coordinate maps the degree slice
    onto Z^(d-1), so e is that hull's normalised volume over the lattice index,
    the gcd of the (d-1)-minors of the differences, or 0 if all of them vanish.
    The certificate: the generators at the hull's vertices, the index."""
    if len({sum(g) for g in G.generators}) != 1:
        raise ValueError("requires equal-degree generators")
    lift = {g[:-1]: g for g in G.generators}  # one-to-one on a degree slice
    first = G.generators[0][:-1]  # its zero difference adds only zero minors
    diffs = [[a - b for a, b in zip(p, first)] for p in lift if p != first]
    index = math.gcd(*(det(rows) for rows in itertools.combinations(diffs, G.dim - 1)))
    volume, vertices = hull(lift)
    certificate = {"hull": [list(lift[p]) for p in vertices], "lattice_index": index}
    return (volume // index if index else 0), certificate


def minimal_plane_generators(G: AffineSemigroup):
    """Minimal generators of N^d as a module over G, by (degree, point): the
    staircase of the ideal (gens)*S, read with no point table.  A point is a
    nonzero member plus a point of N^d exactly when it lies above a
    generator, since every nonzero member does; so the minimal generators
    are the points above no generator, the origin and some gaps.  Raises
    InfiniteGapSet when gap_obstruction proves the gap set infinite, as
    gap_set_auto does; otherwise every axis holds a generator, and the
    staircase is finite."""
    failed = gap_obstruction(G)
    if failed is not None:
        raise InfiniteGapSet(f"gap set is not finite: {failed}")
    return tuple(sorted(staircase(G.generators, G.dim), key=lambda w: (sum(w), w)))


def saturation_exponent(G: AffineSemigroup) -> int:
    """Least t with m_R^t * S inside R: no semigroup element of order >= t may
    sit componentwise below a gap.  The points below some gap are the gaps'
    down-closure, built by unit steps down; its members are looked up."""
    gaps = gap_set_auto(G)
    if not gaps:
        return 1
    ords = _points(G, max(sum(g) for g in gaps))
    mask = (1 << CODE_WIDTH) - 1
    units = [(CODE_WIDTH * i, 1 << (CODE_WIDTH * i)) for i in range(G.dim)]
    below = {encode(g) for g in gaps}
    frontier = list(below)
    while frontier:
        v = frontier.pop()
        for shift, unit in units:
            if v >> shift & mask:  # that coordinate of v is positive
                w = v - unit
                if w not in below:
                    below.add(w)
                    frontier.append(w)
    return 1 + max(ords[v] for v in below if v in ords)
