"""Buchberger engine and ideal arithmetic: normal forms, membership,
sum/product/power, elimination-based intersection and quotient, equality,
colength via standard monomials, and dimension of the quotient ring.
"""
from __future__ import annotations

import heapq
import itertools

from .orders import GREVLEX, BlockOrder, MonomialOrder
from .patterns import stabilize
from .poly import Polynomial, PolyRing


def _divides(u, v) -> bool:
    return all(a <= b for a, b in zip(u, v))


def _exp_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _exp_lcm(u, v):
    return tuple(max(a, b) for a, b in zip(u, v))


def _negated(key):
    """Negate every integer of an order key, so the min-heap of negated keys
    pops the largest monomial first."""
    return -key if isinstance(key, int) else tuple(map(_negated, key))


def reduce_poly(p: Polynomial, basis, order: MonomialOrder) -> Polynomial:
    """Full normal form of p against a list of nonzero polynomials.

    The running polynomial is a dict beside a heap of negated order keys.
    Each step pops the largest monomial, skips it if its coefficient has
    cancelled, and divides it by the first basis element whose leading term
    divides it.  Every monomial is keyed once per call: one that cancels
    keeps its heap entry, and one already popped never comes back because
    all later terms are smaller."""
    fld = p.ring.field
    is_zero, sub, mul, neg = fld.is_zero, fld.sub, fld.mul, fld.neg
    leads = [g.leading(order) for g in basis]
    tails: list = [None] * len(basis)
    work = dict(p.terms)
    heap = [(_negated(order.key(e)), e) for e in work]
    heapq.heapify(heap)
    seen = set(work)
    remainder: dict = {}
    while heap:
        lt_exps = heapq.heappop(heap)[1]
        lt_coeff = work.pop(lt_exps, None)
        if lt_coeff is None:
            continue  # cancelled
        for i, (g_exps, g_coeff) in enumerate(leads):
            if _divides(g_exps, lt_exps):
                break
        else:
            remainder[lt_exps] = lt_coeff
            continue
        tail = tails[i]
        if tail is None:
            tail = tails[i] = [t for t in basis[i].terms.items() if t[0] != g_exps]
        factor = fld.div(lt_coeff, g_coeff)
        shift = _exp_sub(lt_exps, g_exps)
        for t_exps, t_coeff in tail:
            exps = tuple(a + b for a, b in zip(t_exps, shift))
            c = mul(t_coeff, factor)
            if exps in work:
                c = sub(work[exps], c)
                if is_zero(c):
                    del work[exps]
                else:
                    work[exps] = c
            else:
                work[exps] = neg(c)
                if exps not in seen:
                    seen.add(exps)
                    heapq.heappush(heap, (_negated(order.key(exps)), exps))
    return Polynomial(p.ring, remainder)


def spolynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    fld = f.ring.field
    (fe, fc), (ge, gc) = f.leading(order), g.leading(order)
    lcm = _exp_lcm(fe, ge)
    return f.term_mul(_exp_sub(lcm, fe), fld.inv(fc)) - g.term_mul(
        _exp_sub(lcm, ge), fld.inv(gc)
    )


def buchberger(gens, order: MonomialOrder = GREVLEX):
    """Reduced Groebner basis (tuple), normal selection strategy with the
    coprime and chain criteria.  A post-pass re-checks that every S-polynomial
    reduces to zero."""
    basis: list[Polynomial] = []
    leads: list[tuple[int, ...]] = []
    for g in gens:
        if g.is_zero:
            continue
        r = reduce_poly(g, basis, order) if basis else g
        if not r.is_zero:
            basis.append(r.monic(order))
            leads.append(basis[-1].leading(order)[0])
    if not basis:
        return ()

    heap: list = []

    def push_pair(i, j):
        lcm = _exp_lcm(leads[i], leads[j])
        heapq.heappush(heap, (sum(lcm), order.key(lcm), i, j))

    for j in range(len(basis)):
        for i in range(j):
            push_pair(i, j)
    treated: set[tuple[int, int]] = set()

    while heap:
        _, _, i, j = heapq.heappop(heap)
        treated.add((i, j))
        li, lj = leads[i], leads[j]
        lcm = _exp_lcm(li, lj)
        if lcm == tuple(a + b for a, b in zip(li, lj)):
            continue  # coprime leading terms
        chain = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if _divides(leads[k], lcm):
                p1 = (min(i, k), max(i, k))
                p2 = (min(j, k), max(j, k))
                if p1 in treated and p2 in treated:
                    chain = True
                    break
        if chain:
            continue
        r = reduce_poly(spolynomial(basis[i], basis[j], order), basis, order)
        if not r.is_zero:
            basis.append(r.monic(order))
            leads.append(basis[-1].leading(order)[0])
            new = len(basis) - 1
            for k in range(new):
                push_pair(k, new)

    reduced = _interreduce(basis, order)
    _assert_buchberger_criterion(reduced, order)
    return tuple(reduced)


def _interreduce(basis, order):
    # Drop redundant leading terms (keeping the first of any ties), then
    # fully reduce each survivor against the others.
    kept = []
    for i, g in enumerate(basis):
        gi = g.leading(order)[0]
        redundant = False
        for j, h in enumerate(basis):
            if j == i:
                continue
            hj = h.leading(order)[0]
            if _divides(hj, gi) and (hj != gi or j < i):
                redundant = True
                break
        if redundant:
            continue
        kept.append(g)
    final = []
    for i, g in enumerate(kept):
        others = kept[:i] + kept[i + 1 :]
        r = reduce_poly(g, others, order) if others else g
        if not r.is_zero:
            final.append(r.monic(order))
    final.sort(key=lambda g: order.key(g.leading(order)[0]))
    return final


def _assert_buchberger_criterion(basis, order):
    for f, g in itertools.combinations(basis, 2):
        s = spolynomial(f, g, order)
        if not reduce_poly(s, basis, order).is_zero:
            raise AssertionError("Buchberger post-check failed: nonzero S-polynomial remainder")


class Ideal:
    """An ideal of the ambient ring, with a cached reduced Groebner basis."""

    __slots__ = ("ring", "gens", "order", "_gb")

    def __init__(self, gens, order: MonomialOrder = GREVLEX, ring: PolyRing | None = None):
        gens = tuple(gens)
        if ring is None:
            if not gens:
                raise ValueError("ring required for an empty generator list")
            ring = gens[0].ring
        for g in gens:
            if g.ring != ring:
                raise ValueError("ambient mismatch among generators")
        self.ring = ring
        self.gens = tuple(g for g in gens if not g.is_zero)
        self.order = order
        self._gb = None

    def groebner_basis(self) -> tuple[Polynomial, ...]:
        if self._gb is None:
            self._gb = buchberger(self.gens, self.order)
        return self._gb

    def normal_form(self, p: Polynomial) -> Polynomial:
        if p.ring != self.ring:
            raise ValueError("ambient mismatch")
        return reduce_poly(p, list(self.groebner_basis()), self.order)

    def contains(self, p: Polynomial) -> bool:
        return self.normal_form(p).is_zero

    @property
    def is_zero_ideal(self) -> bool:
        return not self.groebner_basis()

    @property
    def is_unit_ideal(self) -> bool:
        gb = self.groebner_basis()
        return len(gb) == 1 and gb[0].total_degree() == 0

    def leading_exponents(self) -> list[tuple[int, ...]]:
        return [g.leading(self.order)[0] for g in self.groebner_basis()]

    # -- arithmetic --------------------------------------------------------

    def sum(self, other: "Ideal") -> "Ideal":
        self._check(other)
        return Ideal(self.gens + other.gens, self.order, self.ring)

    def product(self, other: "Ideal") -> "Ideal":
        self._check(other)
        return _products(self.gens, other.gens, self.order, self.ring)

    def power(self, k: int) -> "Ideal":
        if k < 0:
            raise ValueError("power must be non-negative")
        if k == 0:
            return Ideal([self.ring.one()], self.order, self.ring)
        return next(itertools.islice(_power_tower(self), k - 1, None))

    def intersection(self, other: "Ideal") -> "Ideal":
        self._check(other)
        if self.is_zero_ideal or other.is_zero_ideal:
            return Ideal([], self.order, self.ring)
        # Single tag variable t: eliminate t from t*A + (1 - t)*B.
        tag = "_t"
        while tag in self.ring.variables:
            tag = "_" + tag
        big = PolyRing((tag,) + self.ring.variables, self.ring.field)
        t = big.var(tag)
        one = big.one()
        lifted = [t * _lift(a, big) for a in self.gens]
        lifted += [(one - t) * _lift(b, big) for b in other.gens]
        gb = buchberger(lifted, BlockOrder(split=1))
        kept = [g for g in gb if all(e[0] == 0 for e in g.terms)]
        return Ideal([_drop_first_var(g, self.ring) for g in kept], self.order, self.ring)

    def quotient(self, other: "Ideal") -> "Ideal":
        """(self : other)."""
        self._check(other)
        if other.is_zero_ideal:
            return Ideal([self.ring.one()], self.order, self.ring)
        result = None
        for b in other.gens:
            meet = self.intersection(Ideal([b], self.order, self.ring))
            gens_b = [_divexact(g, b, self.order) for g in meet.groebner_basis()]
            q = Ideal(gens_b, self.order, self.ring)
            result = q if result is None else result.intersection(q)
        return result

    def equals(self, other: "Ideal") -> bool:
        self._check(other)
        return all(self.contains(g) for g in other.gens) and all(
            other.contains(g) for g in self.gens
        )

    def _check(self, other: "Ideal"):
        if self.ring != other.ring:
            raise ValueError("ambient mismatch between ideals")

    # -- numerical invariants ---------------------------------------------

    def standard_monomials(self):
        """Monomials outside the leading-term ideal; None when unbounded."""
        lts = self.leading_exponents()
        n = self.ring.nvars
        if not lts:
            return None
        bounds = []
        for i in range(n):
            pure = [e[i] for e in lts if all(e[j] == 0 for j in range(n) if j != i)]
            if not pure:
                return None
            bounds.append(min(pure))
        out = []
        for exps in itertools.product(*(range(b) for b in bounds)):
            if not any(_divides(lt, exps) for lt in lts):
                out.append(exps)
        out.sort(key=GREVLEX.key)
        return out

    def colength(self):
        std = self.standard_monomials()
        return None if std is None else len(std)

    def quotient_dimension(self) -> int:
        """Krull dimension of ring/ideal from the leading-term ideal."""
        if self.is_unit_ideal:
            raise ValueError("unit ideal")
        supports = [frozenset(i for i, e in enumerate(lt) if e > 0)
                    for lt in self.leading_exponents()]
        n = self.ring.nvars
        for size in range(n, -1, -1):
            for subset in itertools.combinations(range(n), size):
                chosen = set(subset)
                if all(not s <= chosen for s in supports):
                    return size
        raise AssertionError("unreachable")

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.gens) or "0"
        return f"Ideal({gens})"


def _products(left, right, order: MonomialOrder, ring: PolyRing) -> Ideal:
    """The ideal generated by all products a*b, sorted by leading term."""
    prods = {a * b for a in left for b in right}
    return Ideal(sorted(prods, key=lambda p: order.key(p.leading(order)[0])), order, ring)


def _power_tower(I: Ideal):
    """I, I^2, I^3, ...  Each power after I is generated by the products of
    the previous power's reduced Groebner basis with I's generators: the
    lists stay small, and the basis used is the one that each colength or
    membership test of the previous power computes anyway."""
    power = I
    while True:
        yield power
        power = _products(power.groebner_basis(), I.gens, I.order, I.ring)


def _lift(p: Polynomial, big: PolyRing) -> Polynomial:
    offset = big.nvars - p.ring.nvars
    return Polynomial(big, {(0,) * offset + e: c for e, c in p.terms.items()})


def _drop_first_var(p: Polynomial, small: PolyRing) -> Polynomial:
    return Polynomial(small, {e[1:]: c for e, c in p.terms.items()})


def _divexact(p: Polynomial, b: Polynomial, order: MonomialOrder) -> Polynomial:
    """Exact division p / b; valid because p lies in (b) over a domain."""
    fld = p.ring.field
    quotient: dict = {}
    work = p
    be, bc = b.leading(order)
    while not work.is_zero:
        we, wc = work.leading(order)
        if not _divides(be, we):
            raise ArithmeticError("exact division failed")
        qe = _exp_sub(we, be)
        qc = fld.div(wc, bc)
        quotient[qe] = qc
        work = work - b.term_mul(qe, qc)
    return Polynomial(p.ring, quotient)


def ideal_multiplicity(I: Ideal) -> int:
    """Multiplicity of an ideal primary to the origin, as the stabilized
    d-th finite difference of t -> colength(I^t)."""
    if I.colength() is None:
        raise ValueError("multiplicity requires finite colength")
    return _tower_multiplicity(_power_tower(I), I.ring.nvars)


def _tower_multiplicity(powers, nvars: int) -> int:
    """The multiplicity read off the colengths of the powers I, I^2, ..."""
    def colengths():
        for power in powers:
            c = power.colength()
            if c is None:
                raise ValueError("power of a finite-colength ideal should stay finite")
            yield c
    return stabilize(colengths(), nvars, "colength growth did not stabilize")[0]
