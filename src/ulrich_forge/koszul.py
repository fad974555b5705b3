"""Koszul homology lengths h_i(f, g; M) and Euler characteristics in two
variables, for the module classes the asymptotic arguments need:

* cyclic modules S/J (h0 a colength, h2 a matrix rank, h1 from chi),
* nonzero ideals J as torsion-free rank-one modules (long exact sequence),
* explicit finite-length modules (matrix ranks),
* monomial modules over a monomial subring (point counts over a proven
  finite point set),

plus the colon-module computation (M : (x^t, y^t)) / M whose length equals
h1(x^t, y^t; M).

Identities used:

* A pair f, g with S/(f, g) of finite length is a regular sequence on
  S = k[x, y], so its Koszul complex on S is exact in positive degrees:
  h(f, g; S) = (colength, 0, 0) (Bruns-Herzog, Cohen-Macaulay Rings, 1.6).
* chi = h0 - h1 + h2 vanishes on S/J for a nonzero ideal J, whose quotient
  has dimension below two.
* h2(f, g; S/J) is the length of (J : K)/J for K = (f, g), and J + K kills
  that module, since K (J : K) <= J.  A module A/J killed by an ideal L of
  finite colength is spanned by L's standard monomials times A's generators,
  so its length is one matrix rank (quotient_module_length), wherever the
  support of S/(J + K) lies; no degree search and no budget.
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

chi1 = h1 - h2 is always non-negative; it is asserted on every tally.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from operator import add, ge, sub

from .finlen import FiniteLengthModule
from .groebner import Ideal
from .linalg import mat_rank
from .patterns import InconclusiveError
from .poly import Polynomial
from .semigroup import FULL_PLANE, AffineSemigroup, gap_set_auto

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
    ring = J.ring
    std = L.standard_monomials()
    if std is None:
        raise ValueError("the annihilating ideal must have finite colength")
    forms = [J.normal_form(ring.monomial(e) * q) for q in A.groebner_basis() for e in std]
    columns = sorted({e for nf in forms for e in nf.terms})
    zero = ring.field.zero
    return mat_rank([[nf.terms.get(e, zero) for e in columns] for nf in forms], ring.field)


def koszul_cyclic(f: Polynomial, g: Polynomial, J: Ideal) -> KoszulTally:
    """Koszul homology of (f, g) on S/J in two variables."""
    ring = f.ring
    if ring.nvars != 2:
        raise ValueError("two ambient variables required")
    if J.is_unit_ideal:
        return KoszulTally(0, 0, 0)  # S/(1) = 0
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


def koszul_ideal_module(f: Polynomial, g: Polynomial, J: Ideal) -> KoszulTally:
    """Koszul homology of (f, g) on a nonzero ideal J viewed as a torsion-free
    rank-one module, assembled from the cyclic tally through the long exact
    sequence of 0 -> J -> S -> S/J -> 0."""
    if J.is_zero_ideal:
        raise ValueError("zero ideal: use a free module instead")
    cyclic = koszul_cyclic(f, g, J)
    free_h0 = Ideal([f, g], J.order, J.ring).colength()
    if free_h0 is None:
        raise ValueError("S/(f, g) does not have finite length")
    h2 = 0
    h1 = cyclic.h2
    h0 = cyclic.h1 + free_h0 - cyclic.h0
    return KoszulTally(h0, h1, h2)


def koszul_finlen(M: FiniteLengthModule, f: Polynomial, g: Polynomial) -> KoszulTally:
    """Koszul homology of (f, g) on an explicit finite-length module: ranks of
    the two differentials of 0 -> M -> M^2 -> M -> 0."""
    fld = M.ring.field
    n = M.dimension
    if n == 0:
        return KoszulTally(0, 0, 0)
    F = M.evaluate(f)
    G = M.evaluate(g)
    d1 = [list(F[i]) + list(G[i]) for i in range(n)]  # M^2 -> M
    d2 = [list(G[i]) for i in range(n)] + [[fld.neg(x) for x in F[i]] for i in range(n)]
    r1 = mat_rank(d1, fld)
    r2 = mat_rank(d2, fld)
    h0 = n - r1
    h2 = n - r2
    h1 = (2 * n - r1) - r2
    tally = KoszulTally(h0, h1, h2)
    if tally.chi != 0:
        raise AssertionError("chi must vanish on a finite-length module")
    return tally


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
    some generator g."""
    return any(all(map(ge, v, g)) and tuple(map(sub, v, g)) not in gaps for g in gens)


def _homology_points(M: MonomialModule, u):
    """The points of H0 and of H1 of the pair u on M, as two lists, counted
    over the finite point set C of the module docstring.  The pair must be
    x^a, y^b in either order; chi = a*b is asserted."""
    if M.ring.dim != 2:
        raise ValueError(f"monomial Koszul tallies need a ring in two variables, "
                         f"not {M.ring.dim}")
    x_power, y_power = sorted(map(tuple, u), reverse=True)
    if not (len(x_power) == len(y_power) == 2 and x_power[0] > 0 and x_power[1] == 0
            and y_power[0] == 0 and y_power[1] > 0):
        raise ValueError(f"{tuple(u[0])} and {tuple(u[1])} are not a power of x and a "
                         "power of y, so they do not generate an ideal of finite colength")
    gaps = gap_set_auto(M.ring)
    for v in (x_power, y_power):
        if v in gaps:
            raise ValueError(f"{v} is not in the semigroup")
    a, b = x_power[0], y_power[1]
    inside = partial(_in_support, gens=M.gens, gaps=gaps)
    points = {v for (gx, _), (_, gy) in itertools.product(M.gens, repeat=2)
              for v in itertools.product(range(gx, gx + a), range(gy, gy + b))}
    points.update((g[0] + p[0] + i, g[1] + p[1] + j) for g in M.gens for p in gaps
                  for i in (0, a) for j in (0, b))
    h0, h1 = [], []
    for x, y in points:
        if not inside((x, y)):
            continue  # v - u1 or v - u2 in P puts v in P
        left, down = inside((x - a, y)), inside((x, y - b))
        if not (left or down):
            h0.append((x, y))
        elif left and down and not inside((x - a, y - b)):
            h1.append((x, y))
    if not M.is_zero and len(h0) - len(h1) != a * b:
        raise AssertionError(f"chi {len(h0) - len(h1)} of a rank-one module differs "
                             f"from e((x^{a}, y^{b})) = {a * b}")
    return h0, h1


def koszul_monomial_R(M: MonomialModule, u) -> KoszulTally:
    """Koszul homology of a pair x^a, y^b of the semigroup on a monomial
    module, read off support membership (see the module docstring)."""
    h0, h1 = _homology_points(M, u)
    return KoszulTally(len(h0), len(h1), 0)


def colon_module(M: MonomialModule, t: int, x_exp, y_exp):
    """(M : (x^t, y^t)) inside M tensor frac(R), returned with the length of
    the quotient by M.  The new points are the w outside the support with
    w + u1 and w + u2 inside, that is w = v - u1 - u2 for the H1 points v, so
    the length is h1(x^t, y^t; M)."""
    u1 = tuple(t * e for e in x_exp)
    u2 = tuple(t * e for e in y_exp)
    _, h1 = _homology_points(M, (u1, u2))
    extras = tuple(tuple(c - d - e for c, d, e in zip(v, u1, u2)) for v in h1)
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
