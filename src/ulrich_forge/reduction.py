"""Reduction and integral-closure certificates for ideals primary to the
origin of a polynomial ring.

An inclusion I <= J of finite-colength ideals is a reduction when
J^(t+1) = I * J^t for some t; an element z is integral over I exactly when I
is a reduction of I + (z) (Huneke & Swanson, Integral Closure of Ideals,
Rings, and Modules, 1.1 and 8.1).  Negative answers come from
multiplicities: over a regular ambient ring, a reduction forces e(I) = e(J)
(the ambient here is always a polynomial ring, so that criterion is
available).

The test at each t is one membership per product of generators.  Let W be
the generators of J outside I, so that J = I + (W), and write W^k for the
ideal of the products of k elements of W.  Then J^t is the sum of the
I^(t-k) * W^k for k = 0..t, and

    J^(t+1) = I * J^t + W * J^t = I * J^t + W^(t+1),

because each I^(t-k) * W^(k+1) with k < t is I times I^(t-k-1) * W^(k+1),
which lies in J^t.  So J^(t+1) = I * J^t exactly when every product of t+1
elements of W lies in I * J^t.  A product P of t elements that lies in
I * J^(t-1) gives P * w in I * J^t for every w in J, so round t tests only
the products of W with those that failed round t-1.  For z integral over I,
W is z alone and the test is the equation of integral dependence,
z^(t+1) in I * (I + (z))^t.  I * J^t is generated by the reduced basis of
I * J^(t-1) times J's generators, the basis its own membership tests build,
so no power of J is ever built.
"""
from __future__ import annotations

from dataclasses import dataclass

from .groebner import T_MAX, Ideal, _products, ideal_multiplicity
from .poly import Polynomial

POSITIVE = "POSITIVE"
NEGATIVE_MULTIPLICITY = "NEGATIVE_MULTIPLICITY"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class ReductionCertificate:
    kind: str
    t: int | None = None
    e_small: int | None = None
    e_large: int | None = None
    t_max: int | None = None

    @property
    def positive(self) -> bool:
        return self.kind == POSITIVE

    def describe(self) -> str:
        if self.kind == POSITIVE:
            return f"POSITIVE(t={self.t})"
        if self.kind == NEGATIVE_MULTIPLICITY:
            return f"NEGATIVE_MULTIPLICITY(e_I={self.e_small}, e_J={self.e_large})"
        return f"INCONCLUSIVE(t_max={self.t_max})"


def is_reduction(I: Ideal, J: Ideal, t_max: int = T_MAX) -> ReductionCertificate:
    """Certificate that I is (or is not) a reduction of J.

    Searches t = 0, 1, ... up to t_max (T_MAX by default, a budget shared
    with ideal_multiplicity): t is a witness when every product of t+1
    generators of J outside I lies in I * J^t, which is J^(t+1) = I * J^t
    (see the module docstring for the proof).  Once no t <= 2 is a witness,
    it compares the certified multiplicities of ideal_multiplicity once:
    unequal values are a definitive negative by the multiplicity criterion
    in a regular ambient ring.

    I <= J is read off J's generators when each generator of I is one of
    them, and otherwise checked by normal forms.  J then has finite colength
    whenever I does.
    """
    if t_max < 0:
        raise ValueError(f"t_max must be non-negative, got {t_max}")
    if I.ring != J.ring:
        raise ValueError("ambient mismatch")
    listed = set(J.gens)
    if not all(g in listed or J.contains(g) for g in I.gens):
        raise ValueError("I is not contained in J")
    if I.colength() is None:
        raise ValueError("reduction test requires finite colength")

    W = [g for g in J.gens if not I.contains(g)]
    failing = W  # the products of t+1 elements of W outside I * J^t
    rhs = I  # I * J^t; J^0 is the unit ideal, and I * J^0 is I itself
    for t in range(t_max + 1):
        if t:
            # I * J from the two generator lists, then I * J^t from the basis
            # of I * J^(t-1) that round t-1's memberships built
            rhs = _products(I.gens if t == 1 else rhs.groebner_basis(), J.gens, I.order, I.ring)
            products = dict.fromkeys(p * w for p in failing for w in W)
            failing = [p for p in products if not rhs.contains(p)]
        if not failing:
            return ReductionCertificate(POSITIVE, t=t)
        if t == min(2, t_max):
            e_i = ideal_multiplicity(I)
            e_j = ideal_multiplicity(J)
            if e_i != e_j:
                return ReductionCertificate(NEGATIVE_MULTIPLICITY, e_small=e_i, e_large=e_j)
    return ReductionCertificate(INCONCLUSIVE, t_max=t_max)


def is_integral(z: Polynomial, I: Ideal) -> ReductionCertificate:
    """z integral over I iff I is a reduction of I + (z); the products
    tested are the powers of z."""
    if I.colength() is None:
        raise ValueError("integrality test requires finite colength")
    if I.contains(z):
        return ReductionCertificate(POSITIVE, t=0)
    J = I.sum(Ideal([z], I.order, I.ring))
    return is_reduction(I, J)


@dataclass(frozen=True)
class MinimalReductionReport:
    items: tuple[tuple[Polynomial, ReductionCertificate], ...]
    verdict: bool

    def failures(self):
        return [(g, c) for g, c in self.items if not c.positive]


def verify_minimal_reduction(R, u) -> MinimalReductionReport:
    """Certify that the d elements u generate a minimal reduction of the
    maximal ideal of the presented subring R: every u_i must lie in it (in R,
    with zero constant term) and every generator of R must be integral over
    (u)S."""
    u = tuple(u)
    ring = R.ring
    if len(u) != ring.nvars:
        raise ValueError(f"expected {ring.nvars} elements, got {len(u)}")
    for p in u:
        if not ring.field.is_zero(p.constant_term()) or not R.membership(p).member:
            raise ValueError(f"{p} is not in the maximal ideal of the subring")
    IS = Ideal(u)
    if IS.colength() is None:
        raise ValueError("(u)S has infinite colength: not a system of parameters")
    items = []
    for g in R.gens:
        items.append((g, is_integral(g, IS)))
    verdict = all(c.positive for _, c in items)
    return MinimalReductionReport(tuple(items), verdict)
