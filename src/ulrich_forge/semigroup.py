"""Affine semigroup models of monomial subrings R of k[x1..xd]: membership
with certificates, gap sets, order filtration, Hilbert-Samuel function,
multiplicity, minimal generator counts, and the single face localization the
shipped examples need.  Multiplicities are volumes, not read off a table.

A point v of N^d stands for the monomial with exponent vector v; the semigroup
is the set of monomial exponents lying in R.  The gap set is N^d minus the
semigroup; a finite gap set certifies that S/R has finite length.

Each semigroup has one cached member table (_member_set), a row table in
every dimension: row j is the slice x_d = j, an int whose bit code(u) is set
when (u, j) is a member; in the plane code(u) is x.  When gap_obstruction
finds the gap set finite, the table grows over a box that holds every gap,
and the gaps are read off its rows: in the plane the box the criterion's
proof bounds, elsewhere a cube grown until it certifies itself.  The order
layers L_t, the points of order >= t, are rows too, one shift-OR over the
generators apiece; the Hilbert-Samuel function, the minimal generators and
the saturation exponent are read off them.
"""
from __future__ import annotations

import itertools
import math
import operator
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

# The one budget of a member table: no side of its box may pass ROW_CAP, and
# its rows may take no more than ROW_CAP**2 bits, as a plane table at the cap
# does (2 MiB); a request past it is refused before any row is built.  The
# stride of the codes doubles every coordinate of a row but the last, so in
# d >= 2 variables a box of side W takes 2**(d-2) * W**d bits: the largest
# cubes are 203 a side in three variables and 45 in four.  verify-35's gap
# box at n is 2n(n - 1) - 1 points wide and high, so n = 45 (3,959) is the
# last that fits; the gap list of the certificate is what grows (197,340
# gaps at n = 45, 774,816 at n = 64).
ROW_CAP = 4096
# Most rows of order layers one request may build: L_t over h rows takes
# t * h of them.  Like ROW_CAP, it bounds Hilbert-Samuel values and
# saturation exponents: hilbert_samuel(FULL_PLANE, 1024) fits.
LAYER_CAP = 1 << 20


def _set_bits(bits: int):
    """The indices of the set bits of a non-negative int, lowest first, a
    run of consecutive ones at a time."""
    while bits:
        low = (bits & -bits).bit_length() - 1
        run = bits >> low
        length = (~run & (run + 1)).bit_length() - 1
        yield from range(low, low + length)
        bits ^= ((1 << length) - 1) << low


def _bits(dim: int, width: int, height: int) -> int:
    """The bits of a table's rows over [0, width)^(dim-1) x [0, height), the
    stride 2*width counted: the quantity ROW_CAP**2 bounds."""
    return width ** (dim - 1) * height << max(dim - 2, 0)


def _closed(row: int, steps, width: int, full: int) -> int:
    """row closed under adding the steps, inside the bits of `full`: each
    step is a shift s and its largest coordinate, and shifts by s, 2s, 4s,
    ... leave every multiple of s added, doubling only while the multiple's
    largest coordinate stays below `width`."""
    for s, top in steps:
        while top < width:
            row |= row << s & full
            s <<= 1
            top <<= 1
    return row


def _conductor(values, name) -> int:
    """The least c with every integer >= c a sum of `values`, which have gcd
    1: once the sums hold min(values) integers in a row, they hold every
    integer after them.  Past ROW_CAP, so past any row table, it is refused."""
    step = min(values)
    if step <= ROW_CAP:
        full = (1 << (ROW_CAP + step)) - 1
        c = (~_closed(1, zip(values, values), ROW_CAP + step, full) & full).bit_length()
        if c <= ROW_CAP:
            return c
    raise InconclusiveError(f"gap box above ROW_CAP={ROW_CAP} requested: "
                            f"the {name}-axis conductor exceeds it")


class _RowTable:
    """The members of a semigroup G of N^d over a box [0, W)^(d-1) x [0, H)
    as rows: row j is the slice x_d = j, an int whose bit code(u) is set
    when (u, j) is a member, where code(u) = sum of u_i * (2W)^i.  In the
    plane code(u) is x; in one variable every row is one bit.

    Codes never carry.  A box point has every coordinate below W, so adding
    a step u' with every coordinate below W adds the codes digit by digit,
    each digit below the stride 2W: shifting code(u) by code(u') sets the
    bit of u + u', and `full`, the codes of the box, keeps those inside it.
    So a generator with a coordinate at or past W, which adds nothing inside
    the box, is left out of every step list, and a doubled step stops once
    its multiple leaves the width.  Going down, code(u) - code(u') is the
    code of a box point w only when w = u - u': the digits of u - u' - w lie
    in (-2W, 2W) and their code is 0, so none is nonzero (the lowest would
    be a multiple of the stride).  So for c >= s a bit test at c - s tests
    the point u - u', and finds no member when u' is not below u.

    Row 0 is the origin closed under the generators with g_d = 0.  Row j > 0
    is row j - g_d shifted by code(g), OR-ed over the generators g with
    g_d > 0, with no closure: a member (u, j) with j > 0 uses some such g,
    and (u, j) - g is a member of row j - g_d.  The OR is closed already: a
    closed row shifted by code(g) stays closed inside the box, since
    shifting by code(g) then s is shifting by s then code(g), and points
    outside the box stay outside; a union of closed rows is closed.
    Generators are nonnegative, so the rows are exact inside any box.

    The order layers are rows too: L_t, the points of order >= t, is L_0,
    the members, for t = 0 and L_(t-1) + G after, one shift-OR over the
    generators, since a point of order >= t is a generator plus a point of
    order >= t - 1.  `last` is (t, rows of L_t) for the last layer built."""

    def __init__(self, G: AffineSemigroup):
        self.G = G
        self.width, self.rows = -1, []  # built by the first cover()
        self.gaps = self.gap_rows = None  # the gap set and its rows, once certified

    def _rebuild(self, width: int):
        """Empty the table and set up its codes at `width`: the unit codes,
        the mask `full` (width copies of the lower coordinates' mask, one
        unit apart, per coordinate), the steps (g, code, g_d) of the
        generators inside the width in the order of G.generators, their
        shifts (code, g_d), and the row-0 and lifting steps."""
        self.width, self.rows = width, []
        self.last = (0, self.rows)
        self.units = units = [(2 * width) ** i for i in range(self.G.dim - 1)]
        self.full = 1
        for unit in units:
            self.full *= ((1 << unit * width) - 1) // ((1 << unit) - 1)
        self.steps, self.shifts, self.axis, self.lifts = [], [], [], []
        for g in self.G.generators:
            u, gd = g[:-1], g[-1]
            top = max(u or (0,))
            if top < width:
                s = self.code(u)
                self.steps.append((g, s, gd))
                self.shifts.append((s, gd))
                if gd:
                    self.lifts.append((s, gd))
                else:
                    self.axis.append((s, top))

    def code(self, v) -> int:
        """code(u) for the first d - 1 coordinates u of v, a point or u
        itself: map stops with the d - 1 units."""
        return sum(map(operator.mul, v, self.units))

    def point(self, code: int) -> tuple:
        """The point u of the box whose code is `code`."""
        u = []
        for _ in self.units:
            code, e = divmod(code, 2 * self.width)
            u.append(e)
        return tuple(u)

    def cover(self, width: int, height: int):
        """Grow the rows over the box [0, width)^(d-1) x [0, height).  A
        request past ROW_CAP is refused before any row is built; a wider
        table is built afresh, at least twice as wide while that fits."""
        if width <= self.width and height <= len(self.rows):
            return  # the table is within the budget, so the box is too
        dim, cap = self.G.dim, ROW_CAP
        if max(width, height) > cap or _bits(dim, width, height) > cap * cap:
            shape = " x ".join(map(str, [width] * (dim - 1) + [height]))
            raise InconclusiveError(f"row table of {shape} points requested, "
                                    f"above ROW_CAP={ROW_CAP}")
        if width > self.width or _bits(dim, self.width, height) > cap * cap:
            wide = min(max(width, 2 * self.width), cap)
            while _bits(dim, wide, height) > cap * cap:
                wide = max(width, wide // 2)
            self._rebuild(wide)
        rows, full = self.rows, self.full
        if not rows and height:
            rows.append(_closed(1, self.axis, self.width, full))
        for j in range(len(rows), height):
            row = 0
            for s, gd in self.lifts:
                if gd <= j:
                    row |= rows[j - gd] << s
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
            rows = _next_layer(rows, self.shifts, itertools.repeat(self.full, height))
        self.last = (t, rows)
        return rows

    def scan(self):
        """Certify the gap set of G, which passes gap_obstruction, and read
        it off the rows.  In the plane the box is the one the criterion's
        proof bounds: W = (c_y - 1)*a + c_x and H = (c_x - 1)*b + c_y, for
        the axis conductors and the generators (a, 1) and (1, b) with a and
        b least.  Elsewhere a cube grows until it holds every point of
        degree <= D + maxgen + 1, for D the largest degree of a non-member
        in it: then every point of degree > D is a member (it dominates a
        nonzero member, hence some generator g, and descends by generators
        into the full degrees past D), so the non-members are all the gaps.
        The gap set is finite, so the growth ends."""
        gens = self.G.generators
        if self.G.dim == 2:
            cx = _conductor([x for x, y in gens if not y], "x")
            cy = _conductor([y for x, y in gens if not x], "y")
            self.cover((cy - 1) * min(x for x, y in gens if y == 1) + cx,
                       (cx - 1) * min(y for x, y in gens if x == 1) + cy)
            gap_rows, gaps = self._nonmembers()
        else:
            maxgen, side, top = self.G.max_generator_degree, 0, -1
            while top + maxgen + 1 >= side:
                side = max(2 * side, top + maxgen + 2)
                self.cover(side, side)
                gap_rows, gaps = self._nonmembers()
                top = max(map(sum, gaps), default=-1)
        self.gap_rows, self.gaps, self.gap_width = tuple(gap_rows), gaps, self.width

    def _nonmembers(self):
        """The rows of the non-members in the table, trailing empty rows
        dropped, and the non-members."""
        gap_rows = [~row & self.full for row in self.rows]
        while gap_rows and not gap_rows[-1]:
            gap_rows.pop()
        if self.G.dim == 2:  # a code is the x-coordinate
            return gap_rows, frozenset((i, j) for j, row in enumerate(gap_rows)
                                       for i in _set_bits(row))
        return gap_rows, frozenset(self.point(c) + (j,) for j, row in enumerate(gap_rows)
                                   for c in _set_bits(row))

    def decompose(self, v):
        """A decomposition of v into generators, each step the first
        generator of G.generators that leaves a member, or None for a
        non-member."""
        u, j = v[:-1], v[-1]
        self.cover(max(u) + 1 if u else 1, j + 1)
        rows, c = self.rows, self.code(u)
        if not rows[j] >> c & 1:
            return None
        parts = []
        while c or j:
            for g, s, gd in self.steps:
                if gd <= j and s <= c and rows[j - gd] >> (c - s) & 1:
                    parts.append(g)
                    c, j = c - s, j - gd
                    break
            else:
                raise AssertionError("member without decomposition step")
        return tuple(parts)

    def hilbert_samuel(self, t: int) -> int:
        """The members outside L_t: all have order < t, hence degree <=
        (t - 1)*maxgen, so they lie in rows up to that degree, and any
        member of the table past that degree lies in L_t."""
        top = (t - 1) * self.G.max_generator_degree
        self.cover(top + 1, top + 1)
        rows, deep = self.rows, self.layer(t, top + 1)
        return sum((rows[j] & ~deep[j]).bit_count() for j in range(top + 1))

    def nu_max_ideal(self) -> int:
        """The generators outside L_2."""
        *heads, last = zip(*self.G.generators)  # the generators' coordinates
        height = max(last) + 1
        self.cover(max(map(max, heads), default=0) + 1, height)
        deep = self.layer(2, height)
        return sum(1 for s, gd in self.shifts if not deep[gd] >> s & 1)

    def _down_closed(self, row: int) -> int:
        """row closed under unit steps down: in the plane a prefix; else
        right shifts by each unit code, doubled while inside the width (a
        borrow leaves a digit at or past W, outside `full`)."""
        if self.G.dim == 2:
            return (1 << row.bit_length()) - 1
        for unit in self.units:
            k = 1
            while k < self.width:
                row |= row >> unit * k & self.full
                k <<= 1
        return row

    def saturation_exponent(self) -> int:
        """The least t with L_t disjoint from the gaps' down-closure, whose
        row j, below[j], is the non-members of the rows >= j closed under
        unit steps down.  The rows are covered at the width the gaps were
        certified at, so every non-member in them is a gap.  The layers are
        built here masked to below: below[j] does not grow with j, and a
        shift moves points only up, so the masked rows of L_(t-1) give the
        masked rows of L_t.  The full-width layers that layer() keeps are
        left as they are."""
        height = len(self.gap_rows)
        self.cover(self.gap_width, height)
        full, reach, below = self.full, 0, []
        for row in reversed(self.rows[:height]):
            gaps = ~row & full & ~reach
            if gaps:
                reach = self._down_closed(reach | gaps)
            below.append(reach)
        below.reverse()
        rows = list(map(int.__and__, self.rows, below))  # L_0
        t = 0
        while any(rows):  # L_0 holds the origin, below every gap
            t += 1
            _layer_budget(t, height)
            rows = _next_layer(rows, self.shifts, below)
        return max(t, 1)  # 1 when there is no gap


def _next_layer(rows, shifts, masks) -> list:
    """The rows of L_t from those of L_(t-1): one shift-OR over the
    generators' shifts, row j cut to masks[j]."""
    deeper = []
    for j, mask in enumerate(masks):
        row = 0
        for s, gd in shifts:
            if gd <= j:
                row |= rows[j - gd] << s
        deeper.append(row & mask)
    return deeper


def _layer_budget(t: int, height: int):
    """Refuse order layer t over `height` rows past LAYER_CAP layer rows."""
    if t * height > LAYER_CAP:
        raise InconclusiveError(f"order layer {t} over {height} rows requested, "
                                f"above LAYER_CAP={LAYER_CAP} layer rows")


@lru_cache(maxsize=POINT_TABLES)
def _member_set(G: AffineSemigroup):
    """The one member table of G."""
    return _RowTable(G)


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
    """The finite gap set, read off the rows of a box that certifies it: in
    the plane the box the criterion proves, otherwise a grown cube."""
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
    staircase of the ideal (gens)*S, read with no member table.  A point is a
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
