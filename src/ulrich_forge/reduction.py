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

from .groebner import Ideal, ideal_multiplicity
from .poly import Polynomial

# Largest t tried for J^(t+1) = I * J^t; the command line's --tmax default.
T_MAX = 12

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


def _power_equality(I: Ideal, J: Ideal, t: int, j_power: Ideal) -> bool:
    """J^(t+1) == I * J^t given j_power = J^t; the containment >= is
    automatic, so check generators of J^(t+1) against I*J^t and re-verify via
    the unique reduced Groebner bases."""
    lhs = j_power.product(J)
    rhs = I.product(j_power)
    if not all(rhs.contains(g) for g in lhs.gens):
        return False
    lhs_gb = {g.to_str() for g in lhs.groebner_basis()}
    rhs_gb = {g.to_str() for g in rhs.groebner_basis()}
    if lhs_gb != rhs_gb:
        raise AssertionError("reduction re-verification failed")
    return True


def is_reduction(I: Ideal, J: Ideal, t_max: int = T_MAX) -> ReductionCertificate:
    """Certificate that I is (or is not) a reduction of J.

    Searches small t first; when no small witness exists, compares
    multiplicities (a definitive negative by the multiplicity criterion in a
    regular ambient ring), then resumes the search up to t_max.
    """
    if I.ring != J.ring:
        raise ValueError("ambient mismatch")
    for g in I.gens:
        if not J.contains(g):
            raise ValueError("I is not contained in J")
    if I.colength() is None or J.colength() is None:
        raise ValueError("reduction test requires finite colength")

    j_power = Ideal([I.ring.one()], I.order, I.ring)
    t = 0
    for t in range(0, min(2, t_max) + 1):
        if _power_equality(I, J, t, j_power):
            return ReductionCertificate(POSITIVE, t=t)
        j_power = j_power.product(J)

    e_i = ideal_multiplicity(I)
    e_j = ideal_multiplicity(J)
    if e_i != e_j:
        return ReductionCertificate(NEGATIVE_MULTIPLICITY, e_small=e_i, e_large=e_j)

    for t in range(min(2, t_max) + 1, t_max + 1):
        if _power_equality(I, J, t, j_power):
            return ReductionCertificate(POSITIVE, t=t)
        j_power = j_power.product(J)
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
    reduction_gens: tuple[Polynomial, ...]
    items: tuple[tuple[Polynomial, ReductionCertificate], ...]
    verdict: bool

    def failures(self):
        return [(g, c) for g, c in self.items if not c.positive]


def verify_minimal_reduction(R, u) -> MinimalReductionReport:
    """Certify that the d elements u generate a minimal reduction of the
    maximal ideal of the presented subring R: every generator of R must be
    integral over (u)S."""
    u = tuple(u)
    ring = R.ring
    if len(u) != ring.nvars:
        raise ValueError(f"expected {ring.nvars} elements, got {len(u)}")
    for p in u:
        if not R.membership(p).member:
            raise ValueError(f"{p} is not in the subring")
    IS = Ideal(u)
    if IS.colength() is None:
        raise ValueError("(u)S has infinite colength: not a system of parameters")
    items = []
    for g in R.gens:
        items.append((g, is_integral(g, IS)))
    verdict = all(c.positive for _, c in items)
    return MinimalReductionReport(u, tuple(items), verdict)
