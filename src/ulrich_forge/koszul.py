"""Koszul homology lengths h_i(f, g; M) and Euler characteristics in two
variables, for the module classes the asymptotic arguments need:

* cyclic modules S/J (h0 a colength, h2 a matrix rank, h1 from chi),
* nonzero ideals J as torsion-free rank-one modules (long exact sequence),
* explicit finite-length modules (matrix ranks),
* monomial modules over a monomial subring (point counts in one support set),

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
* A torsion-free monomial module is represented by its support, the finite
  set of its lattice points up to a degree bound (MonomialModule.support),
  each point held as its integer code (semigroup.encode).
  Every graded piece is 0 or k and the Koszul maps are +-1, so for monomial
  parameters u1, u2 the homology at a point v is read off set membership:
  H0 holds the v in the support with neither v - u1 nor v - u2 in it, H1 the
  v with both but without v - u1 - u2, and h2 = 0.

chi1 = h1 - h2 is always non-negative; it is asserted on every tally.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .finlen import FiniteLengthModule
from .groebner import Ideal
from .linalg import mat_rank
from .patterns import InconclusiveError
from .poly import Polynomial
from .semigroup import (
    CODE_WIDTH,
    FULL_PLANE,
    AffineSemigroup,
    _members,
    decode,
    encode,
    gap_set_auto,
    sg_member,
)

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


# perfbench/tracing.py catches koszul_monomial_R's exhausted bound by this name.
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

    def support(self, bound: int, width: int | None = None) -> set:
        """The codes of the lattice points of the module of degree <= bound:
        each generator's code plus the codes of the semigroup members.  The
        codes have the given width, by default the one `_code_box` picks to
        tell the points apart.  Callers build it once; nothing caches it."""
        if width is None:
            width = _code_box(self, bound)[1]
        points = set()
        origin = (0,) * self.ring.dim
        for m in self.gens:
            members = _members(self.ring, bound - sum(m))
            if width != CODE_WIDTH:
                members = [encode(decode(c, origin), width) for c in members]
            points.update(map(encode(m, width).__add__, members))
        return points


def _code_box(M: MonomialModule, bound: int, shifts=()):
    """(floor, width) for the support of degree <= bound together with its
    translates by the shifts: floor lies below every one of those points, and
    codes of that width tell them apart, since each coordinate but the last
    spans at most 2**width values (see semigroup.CODE_WIDTH)."""
    dim = M.ring.dim
    live = [m for m in M.gens if sum(m) <= bound]
    if not live:
        return (0,) * dim, CODE_WIDTH
    floor, spans = [], []
    for i in range(dim):
        lo = min(m[i] for m in live) + min([0] + [u[i] for u in shifts])
        hi = max(m[i] + bound - sum(m) for m in live) + max([0] + [u[i] for u in shifts])
        floor.append(lo)
        spans.append(hi - lo)
    return tuple(floor), max([CODE_WIDTH] + [span.bit_length() for span in spans[:-1]])


def _auto_bound(M: MonomialModule, u1, u2) -> int:
    gaps = gap_set_auto(M.ring)
    gap_deg = max((sum(g) for g in gaps), default=0)
    module_deg = max(sum(g) for g in M.gens)
    return (
        module_deg
        + gap_deg
        + sum(u1)
        + sum(u2)
        + M.ring.max_generator_degree
        + max(sum(u1), sum(u2))
        + 2
    )


def _check_parameters(M: MonomialModule, u1, u2):
    for v in (u1, u2):
        if not sg_member(M.ring, v).member:
            raise ValueError(f"{v} is not in the semigroup")


def koszul_monomial_R(M: MonomialModule, u) -> KoszulTally:
    """Koszul homology of a monomial parameter pair on a monomial module,
    counted in its support up to the degree bound (see the module docstring).
    The bound is accepted only when a trailing window of shells of width
    max(deg u) is homology-free."""
    u1, u2 = tuple(u[0]), tuple(u[1])
    _check_parameters(M, u1, u2)
    if M.is_zero:
        return KoszulTally(0, 0, 0)
    D = _auto_bound(M, u1, u2)
    window = max(sum(u1), sum(u2))
    u12 = tuple(a + b for a, b in zip(u1, u2))
    floor, width = _code_box(M, D, (u1, u2, u12))
    P = M.support(D, width)
    up1, up2, up12 = (encode(w, width).__add__ for w in (u1, u2, u12))
    # H0: v with neither v - u1 nor v - u2 in P; H1: both, but not v - u1 - u2
    h0 = P.difference(map(up1, P), map(up2, P))
    h1 = P.intersection(map(up1, P), map(up2, P)).difference(map(up12, P))
    dirty = [s for s in (sum(decode(v, floor, width)) for v in itertools.chain(h0, h1))
             if s > D - window]
    if dirty:
        raise InconclusiveError(f"homology present in the trailing window at degree "
                                f"{max(dirty)} of degree bound {D}")
    return KoszulTally(len(h0), len(h1), 0)


def colon_module(M: MonomialModule, t: int, x_exp, y_exp):
    """(M : (x^t, y^t)) inside M tensor frac(R), returned with the length of
    the quotient by M; the length is checked against h1(x^t, y^t; M)."""
    u1 = tuple(t * e for e in x_exp)
    u2 = tuple(t * e for e in y_exp)
    _check_parameters(M, u1, u2)
    D = _auto_bound(M, u1, u2)
    bound = D + max(sum(u1), sum(u2))
    floor, width = _code_box(M, bound, tuple(tuple(-e for e in u) for u in (u1, u2)))
    P = M.support(bound, width)
    # the w = v - u1 outside P with w + u2 in P
    outside = set(map((-encode(u1, width)).__add__, P))
    outside -= P
    survivors = outside.intersection(map((-encode(u2, width)).__add__, P))
    extras = [w for w in (decode(c, floor, width) for c in survivors) if sum(w) <= D]
    tally = koszul_monomial_R(M, (u1, u2))
    if len(extras) != tally.h1:
        raise AssertionError(
            f"colon length {len(extras)} disagrees with h1 {tally.h1}"
        )
    enlarged = MonomialModule(M.ring, M.gens + tuple(extras))
    return enlarged, len(extras)


def monomial_saturation(M: MonomialModule):
    """(MS, Q-point list): the S-span of M inside the fraction lattice and the
    finite set supp(MS) - supp(M), which lies inside gap translates."""
    gaps = gap_set_auto(M.ring)
    MS = MonomialModule(FULL_PLANE, M.gens)
    # m + gap always lies in supp(MS), and inside the box of this support
    bound = (max((sum(m) for m in M.gens), default=0)
             + max((sum(g) for g in gaps), default=0))
    floor, width = _code_box(M, bound)
    P = M.support(bound, width)
    gap_codes = [encode(g, width) for g in gaps]
    q_points = set()
    for m in M.gens:
        q_points.update(map(encode(m, width).__add__, gap_codes))
    q_points -= P
    return MS, tuple(sorted(decode(c, floor, width) for c in q_points))


def monomial_min_gens(M: MonomialModule) -> int:
    """Minimal generator count over the base semigroup.

    Only listed generators can be minimal: a support point with a nonzero
    semigroup offset is shifted into the support by any decomposition part of
    that offset.  A listed generator is redundant exactly when some semigroup
    generator shifts it from inside the support."""
    bound = max((sum(m) for m in M.gens), default=0)
    _, width = _code_box(M, bound, tuple(tuple(-e for e in g) for g in M.ring.generators))
    P = M.support(bound, width)
    steps = [encode(g, width) for g in M.ring.generators]
    return sum(1 for c in (encode(m, width) for m in M.gens)
               if not any(c - step in P for step in steps))
