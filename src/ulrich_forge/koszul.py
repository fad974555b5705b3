"""Koszul homology lengths h_i(f, g; M) and Euler characteristics in two
variables, for the module classes the asymptotic arguments need:

* cyclic modules S/J (lengths from colengths plus the chi identity),
* nonzero ideals J as torsion-free rank-one modules (long exact sequence),
* explicit finite-length modules (matrix ranks),
* monomial modules over a monomial subring (lattice-graded linear algebra),

plus the colon-module computation (M : (x^t, y^t)) / M whose length equals
h1(x^t, y^t; M).

Identities used: chi = h0 - h1 + h2 equals the parameter multiplicity for a
full-dimensional module and vanishes below full dimension; chi1 = h1 - h2 is
always non-negative.  Both are asserted on every computed tally.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .finlen import FiniteLengthModule
from .groebner import Ideal
from .linalg import mat_rank
from .patterns import InconclusiveError, stabilize
from .poly import Polynomial
from .semigroup import (
    AffineSemigroup,
    _points,
    gap_set_auto,
    lattice_shell,
    sg_member,
)

# Largest degree N tried when certifying m^N q <= J in quotient_module_length.
QUOTIENT_DEGREE_CAP = 60


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


def _param_multiplicity(J: Ideal, K: Ideal) -> int:
    """Multiplicity of the parameter ideal K on S/J: stabilized second
    difference of t -> colength(J + K^t)."""
    def colengths():
        for t in itertools.count(1):
            c = J.sum(K.power(t)).colength()
            if c is None:
                raise ValueError("parameter ideal not primary to the origin modulo J")
            yield c
    return stabilize(colengths(), 2, "parameter multiplicity did not stabilize")[0]


def quotient_module_length(A: Ideal, J: Ideal) -> int:
    """Length of A/J for J <= A with A/J killed by an ideal primary to the
    origin.  Spans normal forms of monomial multiples of A's generators; for
    each generator q a degree N with m^N q <= J certifies completeness."""
    ring = J.ring
    fld = ring.field
    origin = (0,) * ring.nvars
    vectors = []
    support: dict = {}

    def coords(p: Polynomial):
        row = [fld.zero] * len(support)
        grow = []
        for exps, c in p.terms.items():
            if exps not in support:
                support[exps] = len(support)
                grow.append(c)
            else:
                row[support[exps]] = c
        return row + grow

    for q in A.groebner_basis():
        if J.contains(q):
            continue
        level = 0
        while level <= QUOTIENT_DEGREE_CAP:
            monos = [ring.monomial(e) for e in lattice_shell(level, origin)]
            if all(J.contains(m * q) for m in monos):
                break
            level += 1
        else:
            raise InconclusiveError("quotient module is not visibly finite length "
                                    f"within QUOTIENT_DEGREE_CAP={QUOTIENT_DEGREE_CAP}")
        for d in range(level):
            for e in lattice_shell(d, origin):
                nf = J.normal_form(ring.monomial(e) * q)
                if not nf.is_zero:
                    vectors.append(coords(nf))
    if not vectors:
        return 0
    width = len(support)
    rows = [row + [fld.zero] * (width - len(row)) for row in vectors]
    return mat_rank(rows, fld)


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
        raise ValueError("(f, g) is not primary to the origin modulo J")
    if J.is_zero_ideal:
        h2 = 0
        chi = _param_multiplicity(J, K)
    else:
        A = J.quotient(K)
        cj, ca = J.colength(), A.colength()
        if cj is not None and ca is not None:
            h2 = cj - ca
        else:
            h2 = quotient_module_length(A, J)
        chi = 0 if J.quotient_dimension() < 2 else _param_multiplicity(J, K)
    h1 = h0 + h2 - chi
    return KoszulTally(h0, h1, h2)


def koszul_ideal_module(f: Polynomial, g: Polynomial, J: Ideal) -> KoszulTally:
    """Koszul homology of (f, g) on a nonzero ideal J viewed as a torsion-free
    rank-one module, assembled from the cyclic tally through the long exact
    sequence of 0 -> J -> S -> S/J -> 0."""
    if J.is_zero_ideal:
        raise ValueError("zero ideal: use a free module instead")
    cyclic = koszul_cyclic(f, g, J)
    free_h0 = Ideal([f, g], J.order, J.ring).colength()
    if free_h0 is None:
        raise ValueError("(f, g) is not primary to the origin")
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

    def support_contains(self, v) -> bool:
        shifts = [w for w in (tuple(a - b for a, b in zip(v, m)) for m in self.gens)
                  if min(w) >= 0]
        if not shifts:
            return False
        members = _points(self.ring, max(sum(w) for w in shifts))
        return any(w in members for w in shifts)

    def min_degree(self) -> int:
        return min(sum(g) for g in self.gens)

    def coordinate_floor(self):
        return tuple(min(g[i] for g in self.gens) for i in range(self.ring.dim))


def _auto_degree_bound(M: MonomialModule, u1, u2) -> int:
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


def koszul_monomial_R(M: MonomialModule, u, degree_bound: int | None = None) -> KoszulTally:
    """Koszul homology of a monomial parameter pair on a monomial module,
    computed lattice degree by lattice degree as finite-dimensional linear
    algebra.  The bound is accepted only when a trailing window of shells of
    width max(deg u) is homology-free."""
    u1, u2 = tuple(u[0]), tuple(u[1])
    for v in (u1, u2):
        if not sg_member(M.ring, v).member:
            raise ValueError(f"{v} is not in the semigroup")
    if M.is_zero:
        return KoszulTally(0, 0, 0)
    D = degree_bound if degree_bound is not None else _auto_degree_bound(M, u1, u2)
    window = max(sum(u1), sum(u2))
    lo = M.coordinate_floor()

    shell_totals: dict[int, tuple[int, int, int]] = {}
    s_min = min(sum(lo), M.min_degree())
    for s in range(s_min, D + 1):
        h0 = h1 = h2 = 0
        for v in lattice_shell(s, lo):
            alpha = M.support_contains(tuple(x - y - z for x, y, z in zip(v, u1, u2)))
            b1 = M.support_contains(tuple(x - y for x, y in zip(v, u1)))
            b2 = M.support_contains(tuple(x - y for x, y in zip(v, u2)))
            gamma = M.support_contains(v)
            beta = int(b1) + int(b2)
            if not (alpha or beta or gamma):
                continue
            # one-dimensional graded pieces: the complex at v is
            # k^alpha -> k^beta -> k^gamma with multiplication maps +-1, so
            # each map has rank 1 exactly when both ends are nonzero (alpha
            # forces beta == 2, the module being closed under the action)
            r2 = int(alpha and beta > 0)
            r1 = int(gamma and beta > 0)
            h0 += int(gamma) - r1
            h1 += (beta - r1) - r2
            h2 += int(alpha) - r2
        if h0 or h1 or h2:
            shell_totals[s] = (h0, h1, h2)
    dirty = [s for s in shell_totals if s > D - window]
    if dirty:
        raise InconclusiveError(f"homology present in the trailing window at degree "
                                f"{max(dirty)} of degree bound {D}")
    h0 = sum(t[0] for t in shell_totals.values())
    h1 = sum(t[1] for t in shell_totals.values())
    h2 = sum(t[2] for t in shell_totals.values())
    return KoszulTally(h0, h1, h2)


def colon_module(M: MonomialModule, t: int, x_exp, y_exp):
    """(M : (x^t, y^t)) inside M tensor frac(R), returned with the length of
    the quotient by M; the length is checked against h1(x^t, y^t; M)."""
    u1 = tuple(t * e for e in x_exp)
    u2 = tuple(t * e for e in y_exp)
    for v in (u1, u2):
        if not sg_member(M.ring, v).member:
            raise ValueError(f"{v} is not in the semigroup")
    D = _auto_degree_bound(M, u1, u2)
    lo = M.coordinate_floor()
    shift = tuple(max(a, b) for a, b in zip(u1, u2))
    extras = []
    for s in range(min(sum(lo), M.min_degree()) - sum(shift), D + 1):
        for w in lattice_shell(s, tuple(l - sh for l, sh in zip(lo, shift))):
            if M.support_contains(w):
                continue
            if M.support_contains(tuple(a + b for a, b in zip(w, u1))) and \
               M.support_contains(tuple(a + b for a, b in zip(w, u2))):
                extras.append(w)
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
    from .semigroup import FULL_PLANE

    gaps = gap_set_auto(M.ring)
    MS = MonomialModule(FULL_PLANE, M.gens)
    q_points = set()
    for m in M.gens:
        for gap in gaps:
            w = tuple(a + b for a, b in zip(m, gap))
            if MS.support_contains(w) and not M.support_contains(w):
                q_points.add(w)
    return MS, tuple(sorted(q_points))


def monomial_min_gens(M: MonomialModule) -> int:
    """Minimal generator count over the base semigroup.

    Only listed generators can be minimal: a support point with a nonzero
    semigroup offset is shifted into the support by any decomposition part of
    that offset.  A listed generator is redundant exactly when some semigroup
    generator shifts it from inside the support."""
    count = 0
    for m in M.gens:
        covered = any(
            M.support_contains(tuple(a - b for a, b in zip(m, g)))
            for g in M.ring.generators
        )
        if not covered:
            count += 1
    return count
