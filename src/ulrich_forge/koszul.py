"""Koszul homology lengths h_i(f, g; M) and Euler characteristics in two
variables, for the module classes the asymptotic arguments need:

* cyclic modules S/J (matrix ranks when S/J has finite length, otherwise
  h0 a colength, h2 a matrix rank, h1 from chi),
* nonzero ideals J as torsion-free rank-one modules (long exact sequence),
* explicit finite-length modules (ranks of their sparse action columns),
* monomial modules over a monomial subring (point counts, a row at a time,
  over windows that cover a proven finite point set),

plus the colon-module computation (M : (x^t, y^t)) / M whose length equals
h1(x^t, y^t; M).

Identities used:

* A pair f, g with S/(f, g) of finite length is a regular sequence on
  S = k[x, y], so its Koszul complex on S is exact in positive degrees:
  h(f, g; S) = (colength, 0, 0) (Bruns-Herzog, Cohen-Macaulay Rings, 1.6).
  That needs S Cohen-Macaulay of dimension two: on k[x], (x, x) has
  H1 = S/(x).  regular_pair_length is the one place that checks both
  conditions, for free modules and for the ideal-module sequence.
* On a module M with a finite k-basis b_1..b_n, the Koszul complex
  0 -> M -> M^2 -> M -> 0 is a complex of vector spaces, and f and g act by
  matrices, so h0 = n - rank d1, h2 = n - rank d2 and h1 = 2n - rank d1 -
  rank d2, exactly (_pair_tally).  chi = 0 holds for any two ranks, so it
  checks nothing; the two matrices must commute instead,
  f (g b_j) = g (f b_j) for every j, as multiplications on a module must.
  An explicit finite-length module hands over the sparse columns of f and
  g as they are (FiniteLengthModule.columns); its variables' actions were
  checked to commute when it was made, so f and g commute too.  When J has
  finite colength, S/J is such a module: its basis is J's standard
  monomials, and the columns of f and g are the normal forms of f*m and g*m
  modulo J (multiplication_columns, which FiniteLengthModule.from_cyclic
  builds on too), wherever the support of S/J lies; a wrong normal form
  breaks the commutation, which koszul_cyclic asserts.
* Only a J of positive dimension (standard_monomials is None) takes the
  elimination path.  There chi = h0 - h1 + h2 vanishes on S/J for a nonzero
  J, whose quotient has dimension below two, and h2(f, g; S/J) is the length
  of (J : K)/J for K = (f, g), which J + K kills, since K (J : K) <= J.  A
  module A/J killed by an ideal L of finite colength is spanned by L's
  standard monomials times A's generators, so its length is the rank of
  their multiplication columns modulo J (quotient_module_length), wherever
  the support of S/(J + K) lies; no degree search and no budget.
* A torsion-free monomial module M with generators g_i over a semigroup S
  with finite gap set G has support P, the union of the g_i + S: v lies in
  P iff v - g_i is >= 0 and not in G for some i.  Every graded piece is 0 or
  k and the Koszul maps are +-1, so for u1 = (a, 0), u2 = (0, b) the
  homology at a point v is read off membership: H0 holds the v in P with
  neither v - u1 nor v - u2 in it, H1 the v with both but without
  v - u1 - u2, and h2 = 0.
* All of that homology lies in a finite point set C.  Let L be the union of
  the g_i + N^2; then P <= L and L - P <= union of the g_i + G.  The
  homology at v depends only on which of v, v - u1, v - u2, v - u1 - u2 lie
  in P, so where none of them lies in L - P, P has L's homology at v.  L's
  H0 lies in the boxes g_j + [0, a) x [0, b), and its H1 in the boxes
  [g_j,x, g_j,x + a) x [g_i,y, g_i,y + b) for every pair (i, j): v - u2 in
  g_j + N^2 with v - u1 - u2 outside it bounds v_x, and v - u1 in g_i + N^2
  bounds v_y alike.  So C, the union of those n^2 boxes and of the
  g_i + G + {0, u1, u2, u1 + u2}, holds all of it, in at most
  n^2 ab + 4n|G| points (Miller & Sturmfels, Combinatorial Commutative
  Algebra, ch. 1-3).  On a nonzero M, of rank one, chi = e((x^a, y^b)) = ab
  is asserted.
* The count runs a row at a time over x-windows that cover C: on the rows
  g_i,y + [0, b), the n windows [g_j,x, g_j,x + a), and on the rows
  g_i,y + r and g_i,y + r + b, gap row r's x-extent shifted by g_i,x and
  widened by a; windows of a row that overlap or nearly touch are merged,
  so no point is counted twice.  Counting over a superset of C is harmless,
  since no homology lies outside it.  Row y of P over a window is an int,
  the OR over the g_i with g_i,y <= y of the ones from g_i,x up minus gap
  row y - g_i,y shifted by g_i,x; with p that row and d row y - b,
  H0 = p & ~(p << a) & ~d and H1 = p & (p << a) & d & ~(d << a).  The cost
  is rows x windows x n int operations, whatever the generators' spread.
  The tallies count the set bits of those rows; only the colon module
  expands H1 into points.

chi1 = h1 - h2 is always non-negative; it is asserted on every tally.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from operator import add, ge, sub

from .finlen import FiniteLengthModule, multiplication_columns
from .groebner import Ideal
from .linalg import apply_map, mat_rank
from .patterns import InconclusiveError
from .poly import Polynomial
from .semigroup import FULL_PLANE, AffineSemigroup, _set_bits, gap_rows, gap_set_auto

@dataclass(frozen=True)
class KoszulTally:
    h0: int
    h1: int
    h2: int

    def __post_init__(self):
        if min(self.h0, self.h1, self.h2) < 0:
            raise ValueError("negative homology length")
        if self.chi1 < 0:
            raise AssertionError("chi1 must be non-negative")

    @property
    def chi(self) -> int:
        return self.h0 - self.h1 + self.h2

    @property
    def chi1(self) -> int:
        return self.h1 - self.h2

    def as_tuple(self):
        return (self.h0, self.h1, self.h2)

    def __add__(self, other: "KoszulTally") -> "KoszulTally":
        """Tally of a direct sum: Koszul homology is additive."""
        return KoszulTally(self.h0 + other.h0, self.h1 + other.h1, self.h2 + other.h2)


# perfbench/tracing.py counts koszul_monomial_R's InconclusiveError (an exhausted
# point-table budget of the gap set) by this name.
IncreaseBoundError = InconclusiveError


def quotient_module_length(A: Ideal, J: Ideal, L: Ideal) -> int:
    """Length of A/J for J <= A, given an ideal L of finite colength with
    L A <= J.  A/J is then a module over S/L, so the products of L's standard
    monomials with A's generators span it, and its length is the rank of
    their normal forms modulo J."""
    std = L.standard_monomials()
    if std is None:
        raise ValueError("the annihilating ideal must have finite colength")
    return mat_rank([c for q in A.groebner_basis() for c in multiplication_columns(q, J, std)],
                    J.ring.field)


def _pair_tally(fs, gs, fld) -> KoszulTally:
    """Koszul homology of (f, g) on a module with basis b_1..b_n, given the
    images fs[j] = f b_j and gs[j] = g b_j as dicts from basis key to
    coefficient.  d1: M^2 -> M, (u, v) -> f u + g v, has the 2n images as its
    columns; d2: M -> M^2, w -> (g w, -f w), has n columns (g b_j, -f b_j).
    A rank is a rank of the transpose too, so those columns go to mat_rank
    as rows: h0 = n - rank d1, h2 = n - rank d2, h1 = 2n - rank d1 - rank d2."""
    n = len(fs)
    r1 = mat_rank(fs + gs, fld)
    r2 = mat_rank([{**{(0, c): v for c, v in g.items()},
                    **{(1, c): fld.neg(v) for c, v in f.items()}}
                   for f, g in zip(fs, gs)], fld)
    return KoszulTally(n - r1, 2 * n - r1 - r2, n - r2)


def koszul_cyclic(f: Polynomial, g: Polynomial, J: Ideal) -> KoszulTally:
    """Koszul homology of (f, g) on S/J in two variables: from the
    multiplication maps on J's standard monomials when S/J has finite length,
    by elimination otherwise."""
    ring = f.ring
    if ring.nvars != 2:
        raise ValueError("two ambient variables required")
    std = J.standard_monomials()
    if std is not None:
        # a wrong normal form among the columns breaks f (g m) = g (f m)
        fs, gs = multiplication_columns(f, J, std), multiplication_columns(g, J, std)
        f_of, g_of = dict(zip(std, fs)), dict(zip(std, gs))
        if any(apply_map(f_of, gc, ring.field) != apply_map(g_of, fc, ring.field)
               for fc, gc in zip(fs, gs)):
            raise AssertionError("the multiplication maps of f and g do not commute")
        return _pair_tally(fs, gs, ring.field)
    K = Ideal([f, g], J.order, ring)
    top = J.sum(K)
    h0 = top.colength()
    if h0 is None:
        raise ValueError("S/(J + (f, g)) does not have finite length")
    if J.is_zero_ideal:
        return KoszulTally(h0, 0, 0)  # (f, g) is S-regular
    # h2 = length of (J : K)/J, which J + K annihilates: K (J : K) <= J
    h2 = quotient_module_length(J.quotient(K), J, top)
    return KoszulTally(h0, h0 + h2, h2)  # chi = 0: dim S/J < 2


def regular_pair_length(f: Polynomial, g: Polynomial) -> int:
    """The length of S/(f, g) for a pair that is S-regular, so that
    h(f, g; S) = (length, 0, 0): on S = k[x, y], Cohen-Macaulay of dimension
    two, that is every pair with S/(f, g) of finite length (module
    docstring).  Raises for a pair of infinite colength, and off the plane,
    where finite colength does not make a pair regular."""
    if f.ring.nvars != 2:
        raise ValueError("two ambient variables required")
    length = Ideal([f, g]).colength()
    if length is None:
        raise ValueError("S/(f, g) does not have finite length")
    return length


def koszul_ideal_module(f: Polynomial, g: Polynomial, J: Ideal) -> KoszulTally:
    """Koszul homology of (f, g) on a nonzero ideal J viewed as a torsion-free
    rank-one module, assembled from the cyclic tally through the long exact
    sequence of 0 -> J -> S -> S/J -> 0, with h(f, g; S) from
    regular_pair_length."""
    if J.is_zero_ideal:
        raise ValueError("zero ideal: use a free module instead")
    cyclic = koszul_cyclic(f, g, J)
    free_h0 = regular_pair_length(f, g)
    h2 = 0
    h1 = cyclic.h2
    h0 = cyclic.h1 + free_h0 - cyclic.h0
    return KoszulTally(h0, h1, h2)


def koszul_finlen(M: FiniteLengthModule, f: Polynomial, g: Polynomial) -> KoszulTally:
    """Koszul homology of (f, g) on an explicit finite-length module: ranks of
    the two differentials of 0 -> M -> M^2 -> M -> 0.  The variables' actions
    commute (checked when M was made), so f and g do too."""
    return _pair_tally(M.columns(f), M.columns(g), M.ring.field)


@dataclass(frozen=True)
class MonomialModule:
    """Torsion-free monomial module over a monomial subring: the lattice span
    of finitely many generator exponents (possibly outside N^2) under the
    semigroup action.  The empty generator set is the zero module."""

    ring: AffineSemigroup
    gens: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        gens = sorted({tuple(g) for g in self.gens})
        for g in gens:
            if len(g) != self.ring.dim:
                raise ValueError("generator dimension mismatch")
        object.__setattr__(self, "gens", tuple(gens))

    @property
    def is_zero(self) -> bool:
        return not self.gens


def _in_support(v, gens, gaps) -> bool:
    """Whether v lies in the support of the module that the generators span
    over a semigroup with the finite gap set: v - g is >= 0 and not a gap for
    some generator g.  It serves the few points that the saturation and the
    generator count test, in any dimension; the plane Koszul count reads
    whole rows instead (_support_row)."""
    return any(all(map(ge, v, g)) and tuple(map(sub, v, g)) not in gaps for g in gens)


def _support_row(gens, rows, y, lo, width) -> int:
    """Row y of the support P over the x-window [lo, lo + width), as the int
    whose bit i is set when (lo + i, y) lies in P: the OR, over the
    generators g with g_y <= y, of the ones from g_x up minus gap row
    y - g_y (rows, from semigroup.gap_rows) shifted by g_x."""
    row, full = 0, (1 << width) - 1
    for gx, gy in gens:
        shift = gx - lo
        if gy > y or shift >= width:
            continue
        gaps = rows[y - gy] if y - gy < len(rows) else 0
        gaps = gaps << shift if shift >= 0 else gaps >> -shift
        start = max(shift, 0)
        row |= full >> start << start & ~gaps
    return row


def _homology_points(M: MonomialModule, u):
    """H0 and H1 of the pair u on M, as two lists of row bitsets (y, lo,
    bits): bit i of bits is set when (lo + i, y) is a point of that
    homology, and bits is nonzero.  They are read a row at a time over
    x-windows that cover the finite point set C of the module docstring,
    and no two windows share a point.  The pair must be x^a, y^b in either
    order; chi = a*b is asserted on the counts of set bits."""
    if M.ring.dim != 2:
        raise ValueError(f"monomial Koszul tallies need a ring in two variables, "
                         f"not {M.ring.dim}")
    x_power, y_power = sorted(map(tuple, u), reverse=True)
    if not (len(x_power) == len(y_power) == 2 and x_power[0] > 0 and x_power[1] == 0
            and y_power[0] == 0 and y_power[1] > 0):
        raise ValueError(f"{tuple(u[0])} and {tuple(u[1])} are not a power of x and a "
                         "power of y, so they do not generate an ideal of finite colength")
    rows = gap_rows(M.ring)  # bit x of rows[y] is set when (x, y) is a gap
    for v in (x_power, y_power):
        if v[1] < len(rows) and rows[v[1]] >> v[0] & 1:
            raise ValueError(f"{v} is not in the semigroup")
    a, b = x_power[0], y_power[1]
    # C row by row as x-intervals [lo, hi): the n^2 boxes, and for each
    # generator g and gap row r, r's x-extent shifted by g_x and widened by a,
    # on the rows g_y + r and g_y + r + b
    spans = defaultdict(list)
    for _, gy in M.gens:
        for y in range(gy, gy + b):
            spans[y].extend((gx, gx + a) for gx, _ in M.gens)
    extents = [(r, (bits & -bits).bit_length() - 1, bits.bit_length())
               for r, bits in enumerate(rows) if bits]
    for gx, gy in M.gens:
        for r, first, end in extents:
            spans[gy + r].append((gx + first, gx + end + a))
            spans[gy + r + b].append((gx + first, gx + end + a))
    h0, h1 = [], []
    for y, intervals in spans.items():
        intervals.sort()
        windows = [intervals[0]]
        for lo, hi in intervals[1:]:
            if lo <= windows[-1][1] + a:  # overlapping or nearly touching
                windows[-1] = (windows[-1][0], max(windows[-1][1], hi))
            else:
                windows.append((lo, hi))
        for lo, hi in windows:
            # bit i stands for x = lo - a + i, so a shift by a reads x - a,
            # and the a bits below lo are dropped at the end
            width = hi - lo + a
            p = _support_row(M.gens, rows, y, lo - a, width)
            if not p:
                continue
            down = _support_row(M.gens, rows, y - b, lo - a, width)
            for found, bits in ((h0, (p & ~(p << a) & ~down) >> a),
                                (h1, (p & (p << a) & down & ~(down << a)) >> a)):
                if bits:
                    found.append((y, lo, bits))
    chi = _count(h0) - _count(h1)
    if not M.is_zero and chi != a * b:
        raise AssertionError(f"chi {chi} of a rank-one module differs "
                             f"from e((x^{a}, y^{b})) = {a * b}")
    return h0, h1


def _count(rows) -> int:
    """The number of points in row bitsets (y, lo, bits)."""
    return sum(bits.bit_count() for _, _, bits in rows)


def _points(rows) -> list:
    """The points (lo + i, y) of row bitsets (y, lo, bits), one per set bit i."""
    return [(lo + i, y) for y, lo, bits in rows for i in _set_bits(bits)]


def koszul_monomial_R(M: MonomialModule, u) -> KoszulTally:
    """Koszul homology of a pair x^a, y^b of the semigroup on a monomial
    module, read off support membership (see the module docstring)."""
    h0, h1 = _homology_points(M, u)
    return KoszulTally(_count(h0), _count(h1), 0)


def colon_module(M: MonomialModule, t: int, x_exp, y_exp):
    """(M : (x^t, y^t)) inside M tensor frac(R), returned with the length of
    the quotient by M.  The new points are the w outside the support with
    w + u1 and w + u2 inside, that is w = v - u1 - u2 for the H1 points v, so
    the length is h1(x^t, y^t; M)."""
    u1 = tuple(t * e for e in x_exp)
    u2 = tuple(t * e for e in y_exp)
    _, h1 = _homology_points(M, (u1, u2))
    extras = tuple(tuple(c - d - e for c, d, e in zip(v, u1, u2)) for v in _points(h1))
    return MonomialModule(M.ring, M.gens + extras), len(extras)


def monomial_saturation(M: MonomialModule):
    """(MS, Q-point list): the S-span of M inside the fraction lattice and the
    finite set supp(MS) - supp(M), which lies inside the gap translates
    m + gap of the generators m."""
    gaps = gap_set_auto(M.ring)
    translates = {tuple(map(add, m, g)) for m in M.gens for g in gaps}
    return (MonomialModule(FULL_PLANE, M.gens),
            tuple(sorted(v for v in translates if not _in_support(v, M.gens, gaps))))


def monomial_min_gens(M: MonomialModule) -> int:
    """Minimal generator count over the base semigroup.

    Only listed generators can be minimal: a support point with a nonzero
    semigroup offset is shifted into the support by any decomposition part of
    that offset.  A listed generator m is redundant exactly when it lies in
    the support of the others: the generators are distinct, so the offset is
    nonzero, and the semigroup is pointed, so no two of them make each other
    redundant."""
    gaps = gap_set_auto(M.ring)
    return sum(1 for m in M.gens
               if not _in_support(m, [g for g in M.gens if g != m], gaps))
