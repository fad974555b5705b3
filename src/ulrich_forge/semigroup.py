"""Affine semigroup models of monomial subrings R of k[x1..xd]: membership
with certificates, gap sets, order filtration, Hilbert-Samuel function,
multiplicity, minimal generator counts, and the single face localization the
shipped examples need.  Multiplicities are volumes, not read off a table.

A point v of N^d stands for the monomial with exponent vector v; the semigroup
is the set of monomial exponents lying in R.  The gap set is N^d minus the
semigroup; a finite gap set certifies that S/R has finite length.

Each semigroup has one cached member table (_member_set).  A plane semigroup
gets a row table: row j is an int whose bit i is set when (i, j) is a member.
When gap_obstruction finds the gap set finite, its proof bounds a box that
holds every gap, and the gaps are read off the rows of that box.  The order
layers L_t, the points of order >= t, are rows too, one shift-OR over the
generators apiece; the Hilbert-Samuel function, the minimal generators and
the saturation exponent are read off them.  In one variable and in three or
more, the table is a point table: each member of degree <= its bound with
its order, grown one degree shell at a time until the shells certify the
gap set.
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


POINT_TABLES = 64  # semigroups whose member tables stay cached
# Largest degree a point table may be asked to cover, and in three or more
# variables the largest degree whose table holds no more points than a plane
# table at this cap.  Point tables serve d = 1 and d >= 3; a plane semigroup
# gets a row table (ROW_CAP), and a plane point table is only a test oracle.
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

# Largest width, and largest row count, of a plane row table; a request past
# it is refused before any row is built.  verify-35's gap box at n is
# 2n(n - 1) - 1 points wide and high, so n = 45 (3,959) is the last that
# fits.  A table at the cap takes 2 MiB; the gap list of the certificate is
# what grows (197,340 gaps at n = 45, 774,816 at n = 64).
ROW_CAP = 4096
# Most rows of order layers one request may build: L_t over h rows takes
# t * h of them.  Like a point table's degree cap, it bounds Hilbert-Samuel
# values and saturation exponents: hilbert_samuel(FULL_PLANE, 1024) fits.
LAYER_CAP = 1 << 20


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


def _set_bits(bits: int):
    """The indices of the set bits of a non-negative int, lowest first, a
    run of consecutive ones at a time."""
    while bits:
        low = (bits & -bits).bit_length() - 1
        run = bits >> low
        length = (~run & (run + 1)).bit_length() - 1
        yield from range(low, low + length)
        bits ^= ((1 << length) - 1) << low


def _closed(row: int, steps, full: int) -> int:
    """row closed under adding the steps, inside the bits of `full`: for each
    step s, shifts by s, 2s, 4s, ... leave every multiple of s added."""
    width = full.bit_length()
    for s in steps:
        while s < width:
            row |= row << s & full
            s <<= 1
    return row


def _conductor(values, name) -> int:
    """The least c with every integer >= c a sum of `values`, which have gcd
    1: once the sums hold min(values) integers in a row, they hold every
    integer after them.  Past ROW_CAP, so past any row table, it is refused."""
    step = min(values)
    if step <= ROW_CAP:
        full = (1 << (ROW_CAP + step)) - 1
        c = (~_closed(1, values, full) & full).bit_length()
        if c <= ROW_CAP:
            return c
    raise InconclusiveError(f"gap box above ROW_CAP={ROW_CAP} requested: "
                            f"the {name}-axis conductor exceeds it")


class _RowTable:
    """The members of a plane semigroup as rows: bit i of rows[j] is set
    when (i, j) is a member, for i below `width`.  Row 0, the x-axis, is the
    origin closed under the x-axis generators.  Row j > 0 is row j - g_y
    shifted left by g_x, OR-ed over the generators g off the x-axis, with
    no closure: a member (i, j) with j > 0 uses some generator g off the
    axis, and (i, j) - g is a member of row j - g_y.  The OR is closed
    already: a closed row shifted by g_x stays closed inside the width,
    since shifting by g_x then s is shifting by s then g_x, and bits past
    the width stay past it; a union of closed rows is closed.
    Generators are nonnegative, so the rows are exact inside any box.

    The order layers are rows too: L_t, the points of order >= t, is L_0,
    the members, for t = 0 and L_(t-1) + G after, one shift-OR over the
    generators, since a point of order >= t is a generator plus a point of
    order >= t - 1.  `last` is (t, rows of L_t) for the last layer built."""

    def __init__(self, G: AffineSemigroup):
        self.G = G
        self.axis = tuple(x for x, y in G.generators if not y)
        self.lifts = tuple(g for g in G.generators if g[1])
        self.width = self.full = 0
        self.rows = []
        self.last = (0, self.rows)
        self.gaps = self.gap_rows = None  # the gap set and its rows, once certified

    def cover(self, width: int, height: int):
        """Grow the rows over every point (i, j) with i < width and j < height.
        A request past ROW_CAP is refused before any row is built."""
        if max(width, height) > ROW_CAP:
            raise InconclusiveError(f"row table of {width} x {height} points requested, "
                                    f"above ROW_CAP={ROW_CAP}")
        if width > self.width:  # built afresh, at least twice as wide
            self.width = min(max(width, 2 * self.width), ROW_CAP)
            self.full = (1 << self.width) - 1
            self.rows = []
            self.last = (0, self.rows)
        rows, full = self.rows, self.full
        if not rows and height:
            rows.append(_closed(1, self.axis, full))
        for j in range(len(rows), height):
            row = 0
            for gx, gy in self.lifts:
                if gy <= j:
                    row |= rows[j - gy] << gx
            rows.append(row & full)

    def layer(self, t: int, height: int) -> list:
        """Rows below `height` of L_t, over rows already covered.  Each layer
        is as large as the table, so only the last one built is kept, and a
        deeper one goes on from it.  Past LAYER_CAP the request is refused
        before any layer is built."""
        _layer_budget(t, height)
        s, rows = self.last
        if s > t or len(rows) < height:
            s, rows = 0, self.rows
        for _ in range(s, t):
            rows = _next_layer(rows, self.G.generators, itertools.repeat(self.full, height))
        self.last = (t, rows)
        return rows

    def scan(self):
        """Read the gaps off the box W x H that gap_obstruction's proof
        bounds, for G that passes it: W = (c_y - 1)*a + c_x and
        H = (c_x - 1)*b + c_y, for the axis conductors and the generators
        (a, 1) and (1, b) with a and b least."""
        gens = self.G.generators
        cx = _conductor(self.axis, "x")
        cy = _conductor([y for x, y in gens if not x], "y")
        width = (cy - 1) * min(x for x, y in gens if y == 1) + cx
        height = (cx - 1) * min(y for x, y in gens if x == 1) + cy
        self.cover(width, height)
        mask = (1 << width) - 1
        gap_rows = [~row & mask for row in self.rows[:height]]
        while gap_rows and not gap_rows[-1]:
            gap_rows.pop()
        self.gap_rows = tuple(gap_rows)
        self.gaps = frozenset((i, j) for j, row in enumerate(gap_rows) for i in _set_bits(row))

    def decompose(self, v):
        """A decomposition of v into generators, each step the first
        generator of G.generators that leaves a member, or None for a
        non-member."""
        i, j = v
        self.cover(i + 1, j + 1)
        rows = self.rows
        if not rows[j] >> i & 1:
            return None
        parts = []
        while i or j:
            for g in self.G.generators:
                gx, gy = g
                if gx <= i and gy <= j and rows[j - gy] >> (i - gx) & 1:
                    parts.append(g)
                    i, j = i - gx, j - gy
                    break
            else:
                raise AssertionError("member without decomposition step")
        return tuple(parts)

    def hilbert_samuel(self, t: int) -> int:
        """The members outside L_t: all have degree <= (t - 1)*maxgen, so
        they are counted over that triangle."""
        top = (t - 1) * self.G.max_generator_degree
        self.cover(top + 1, top + 1)
        rows, deep = self.rows, self.layer(t, top + 1)
        return sum((rows[j] & ~deep[j] & ((2 << (top - j)) - 1)).bit_count()
                   for j in range(top + 1))

    def nu_max_ideal(self) -> int:
        """The generators outside L_2."""
        gens = self.G.generators
        height = max(y for _, y in gens) + 1
        self.cover(max(x for x, _ in gens) + 1, height)
        deep = self.layer(2, height)
        return sum(1 for x, y in gens if not deep[y] >> x & 1)

    def saturation_exponent(self) -> int:
        """The least t with L_t disjoint from the gaps' down-closure, whose
        row j is the prefix below[j] up to the last gap of the rows >= j.
        The layers are built here masked to those prefixes: below[j] does
        not grow with j, and a shift moves bits only up and to the right, so
        the masked rows of L_(t-1) give the masked rows of L_t.  The
        full-width layers that layer() keeps are left as they are."""
        reach, below = 0, []
        for row in reversed(self.gap_rows):
            reach = max(reach, row.bit_length())
            below.append((1 << reach) - 1)
        below.reverse()
        height = len(below)
        self.cover(reach, height)
        rows = list(map(int.__and__, self.rows, below))  # L_0
        t = 0
        while any(rows):  # L_0 holds the origin, below every gap
            t += 1
            _layer_budget(t, height)
            rows = _next_layer(rows, self.G.generators, below)
        return max(t, 1)  # 1 when there is no gap


def _next_layer(rows, gens, masks) -> list:
    """The rows of L_t from those of L_(t-1): one shift-OR over the
    generators, row j cut to masks[j]."""
    deeper = []
    for j, mask in enumerate(masks):
        row = 0
        for gx, gy in gens:
            if gy <= j:
                row |= rows[j - gy] << gx
        deeper.append(row & mask)
    return deeper


def _layer_budget(t: int, height: int):
    """Refuse order layer t over `height` rows past LAYER_CAP layer rows."""
    if t * height > LAYER_CAP:
        raise InconclusiveError(f"order layer {t} over {height} rows requested, "
                                f"above LAYER_CAP={LAYER_CAP} layer rows")


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

    def scan(self):
        """Grow until maxgen + 1 full shells certify the gap set, one capped
        upto() at a time."""
        while self.gaps is None:
            self.upto(self.bound + 1)

    def decompose(self, v):
        """As _RowTable.decompose, by codes: since codes are injective on the
        table's range, "current - step is a key" also says v - g >= 0."""
        left = sum(v)
        members = self.upto(left)
        current = encode(v)
        if current not in members:
            return None
        parts = []
        while current:  # the origin is the only member with code 0
            for g, degree, step in self.steps:
                if degree <= left and current - step in members:
                    parts.append(g)
                    current -= step
                    left -= degree
                    break
            else:
                raise AssertionError("member without decomposition step")
        return tuple(parts)

    def hilbert_samuel(self, t: int) -> int:
        """Sums order_counts[:t]: a member of order o has degree <= o*maxgen,
        so none of order < t lies beyond the grown degree, however far the
        table has grown."""
        self.upto(t * self.G.max_generator_degree - 1)
        return sum(self.order_counts[:t])

    def nu_max_ideal(self) -> int:
        ords = self.upto(self.G.max_generator_degree)
        return sum(1 for _, _, code in self.steps if ords.get(code) == 1)

    def saturation_exponent(self) -> int:
        """The gaps' down-closure, built by unit steps down, has its members
        looked up."""
        if not self.gaps:
            return 1
        ords = self.upto(max(sum(g) for g in self.gaps))
        mask = (1 << CODE_WIDTH) - 1
        units = [(CODE_WIDTH * i, 1 << (CODE_WIDTH * i)) for i in range(self.G.dim)]
        below = {encode(g) for g in self.gaps}
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


@lru_cache(maxsize=POINT_TABLES)
def _member_set(G: AffineSemigroup):
    """The one member table of G: rows in the plane, points otherwise."""
    return _RowTable(G) if G.dim == 2 else _PointTable(G)


# perfbench/tracing.py reads cache_info() under both historical names.
_ord_table = _member_set


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
    parts = _member_set(G).decompose(v)
    return MembershipWitness(parts is not None, parts)


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


def _certified(G: AffineSemigroup):
    """The member table of G with its gap set certified.  Raises
    InfiniteGapSet at once when G fails the exact criterion of
    gap_obstruction; otherwise the scan closes, and only the table's budget
    can stop it (InconclusiveError)."""
    table = _member_set(G)
    if table.gaps is None:
        failed = gap_obstruction(G)
        if failed is not None:
            raise InfiniteGapSet(f"gap set is not finite: {failed}")
        table.scan()
    return table


def gap_set_auto(G: AffineSemigroup):
    """The finite gap set: in the plane read off the proven box of the row
    table, otherwise certified by maxgen + 1 full member shells."""
    return _certified(G).gaps


def gap_rows(G: AffineSemigroup) -> tuple:
    """The finite gap set of a plane semigroup as rows: bit i of row j is
    set when (i, j) is a gap, and the last row holds a gap."""
    return _certified(G).gap_rows


def hilbert_samuel(G: AffineSemigroup, t: int) -> int:
    """Length of R modulo the t-th power of its maximal ideal: the number of
    semigroup points of order below t."""
    if t < 0:
        raise ValueError("t must be non-negative")
    return _member_set(G).hilbert_samuel(t) if t else 0


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
    return _member_set(G).nu_max_ideal()


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
    sit componentwise below a gap."""
    return _certified(G).saturation_exponent()
