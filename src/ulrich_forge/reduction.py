"""Reduction and integral-closure certificates for ideals primary to the
origin of a polynomial ring.

An inclusion I <= J of finite-colength ideals is a reduction when
J^(t+1) = I * J^t for some t; an element z is integral over I exactly when I
is a reduction of I + (z).  Negative answers come from multiplicities: over a
regular ambient ring, a reduction forces e(I) = e(J) (the ambient here is
always a polynomial ring, so that criterion is available).
"""
from __future__ import annotations

from dataclasses import dataclass

from .groebner import T_MAX, Ideal, _power_tower, ideal_multiplicity
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


def _power_equality(rhs: Ideal, j_next: Ideal) -> bool:
    """J^(t+1) == I * J^t given rhs = I * J^t and j_next = J^(t+1); the
    containment >= is automatic, so check generators of J^(t+1) against
    I*J^t, then re-verify through Ideal.equals, which compares J^(t+1)'s
    reduced Groebner basis with that of I*J^t."""
    if not all(rhs.contains(g) for g in j_next.gens):
        return False
    if not j_next.equals(rhs):
        raise AssertionError("reduction re-verification failed")
    return True


def is_reduction(I: Ideal, J: Ideal, t_max: int = T_MAX) -> ReductionCertificate:
    """Certificate that I is (or is not) a reduction of J.

    Searches t = 0, 1, ... up to t_max (T_MAX by default, a budget shared
    with ideal_multiplicity).  Once no t <= 2 is a witness, it compares the
    certified multiplicities of ideal_multiplicity once: unequal values are a
    definitive negative by the multiplicity criterion in a regular ambient
    ring.
    """
    if t_max < 0:
        raise ValueError(f"t_max must be non-negative, got {t_max}")
    if I.ring != J.ring:
        raise ValueError("ambient mismatch")
    if not all(J.contains(g) for g in I.gens):
        raise ValueError("I is not contained in J")
    if I.colength() is None or J.colength() is None:
        raise ValueError("reduction test requires finite colength")

    powers = _power_tower(J)
    j_power = None  # J^t; J^0 is the unit ideal, and I * J^0 is I itself
    for t in range(t_max + 1):
        j_next = next(powers)
        if _power_equality(I if j_power is None else I.product(j_power), j_next):
            return ReductionCertificate(POSITIVE, t=t)
        j_power = j_next
        if t == min(2, t_max):
            e_i = ideal_multiplicity(I)
            e_j = ideal_multiplicity(J)
            if e_i != e_j:
                return ReductionCertificate(NEGATIVE_MULTIPLICITY, e_small=e_i, e_large=e_j)
    return ReductionCertificate(INCONCLUSIVE, t_max=t_max)


def is_integral(z: Polynomial, I: Ideal) -> ReductionCertificate:
    """z integral over I iff I is a reduction of I + (z)."""
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
