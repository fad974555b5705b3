"""Buchberger engine and ideal arithmetic: normal forms, membership,
sum/product/power, elimination-based intersection and quotient, equality,
colength via standard monomials, dimension of the quotient ring, and
certified multiplicities.

Reduction runs on integer images (fraction-free pseudo-division): a basis
element enters once as its image, coprime integers over Q with a positive
leading coefficient and monic residues over F_p, and a term c*m of the
running polynomial is cancelled by the element with leading coefficient a
as (a/g)*work - (c/g)*m*tail, g = gcd(a, c).  Over F_p the pair is always
(1, c).  Results become field polynomials only when they leave the kernel:
a normal form carries its exact scale, a basis element is made monic.

Buchberger's completion is one loop, _completion, that yields its partial
basis after each element it adds.  buchberger runs it to the end, then
interreduces and post-checks; the reduction test of e(I) stops it as soon
as the partial leading terms have as many standard monomials as the ideal
the bound must equal (_fills).  At r = 1 that test first compares two
colengths it already holds, colength(Q + I^2) and colength(I^2) - d *
colength(I): when they differ r = 1 fails with no completion run, and
when they agree it counts Q + I^3 against Q + I^2 instead of the bound.
"""
from __future__ import annotations

import heapq
import itertools
import math
import random
from functools import lru_cache
from operator import add, le, sub

from .fields import RationalField
from .newton import newton_facets, newton_multiplicity, staircase
from .orders import GREVLEX, BlockOrder, MonomialOrder
from .patterns import InconclusiveError
from .poly import Polynomial, PolyRing

# Largest bit size of an integer of a new basis element's image in buchberger.
BUCHBERGER_MAX_BITS = 16384
# Seeded combinations of a basis that ideal_multiplicity tries as a reduction.
REDUCTION_TRIES = 8
# Largest r tried for I^(r+1) = Q * I^r (ideal_multiplicity) and largest t
# tried for J^(t+1) = I * J^t, tested as W^(t+1) inside I * J^t with W the
# generators of J outside I (reduction.is_reduction, the command line's
# --tmax).
T_MAX = 12
# Generator lists whose reduced Groebner bases stay cached for every Ideal.
REDUCED_BASES = 64


def _divides(u, v) -> bool:
    return all(map(le, u, v))


def _exp_sub(u, v):
    return tuple(map(sub, u, v))


def _exp_lcm(u, v):
    return tuple(map(max, u, v))


# -- the integer kernel -------------------------------------------------------
# An image is (lead exponents, lead integer a, tail [(exponents, integer)],
# position of the lead among the source polynomial's terms); a running
# polynomial is a dict from exponents to integers.


def _image(p: Polynomial, order: MonomialOrder):
    """The image of a nonzero polynomial, its tail in p's term order."""
    lead = p.leading(order)
    exps = list(p.terms)
    ints, _, _ = p.ring.field.integer_image(list(p.terms.values()), lead[1])
    pos = exps.index(lead[0])
    tail = list(zip(exps, ints))
    del tail[pos]
    return lead[0], ints[pos], tuple(tail), pos


def _running(p: Polynomial):
    """A nonzero p as a running polynomial, with (num, den) such that
    p == running * num / den."""
    values = list(p.terms.values())
    ints, num, den = p.ring.field.integer_image(values, values[0])
    return dict(zip(p.terms, ints)), num, den


def _remainder_image(rem: dict, fld):
    """The image of a nonzero remainder, whose first term is its leading one."""
    exps, values = list(rem), list(rem.values())
    ints, _, _ = fld.integer_image(values, values[0])
    return exps[0], ints[0], tuple(zip(exps[1:], ints[1:])), 0


def _field_poly(ring: PolyRing, terms, num: int, den: int) -> Polynomial:
    """The polynomial with coefficient n * num / den at each (exps, n)."""
    fld = ring.field
    d = fld.from_int(den)
    return Polynomial(ring, {e: fld.div(fld.from_int(n * num), d) for e, n in terms})


def _monic(ring: PolyRing, image) -> Polynomial:
    """The monic polynomial of an image, its terms in the source's order."""
    lead, a, tail, pos = image
    terms = list(tail)
    terms.insert(pos, (lead, a))
    return _field_poly(ring, terms, 1, a)


def _spair(f, g, fld):
    """The S-polynomial of two images as a running polynomial, and the
    factor by which it exceeds the S-polynomial of the monic elements."""
    (fl, fa, ftail, _), (gl, ga, gtail, _) = f, g
    lcm = _exp_lcm(fl, gl)
    beta, alpha = fld.scale_pair(fa, ga)  # alpha*fa == beta*ga
    fs, gs = _exp_sub(lcm, fl), _exp_sub(lcm, gl)
    work = {tuple(map(add, e, fs)): alpha * n for e, n in ftail}
    for e, n in gtail:
        e = tuple(map(add, e, gs))
        v = work.get(e, 0) - beta * n
        if v:
            work[e] = v
        else:
            del work[e]
    return work, alpha * fa


def _pseudo_reduce(work: dict, images, order: MonomialOrder, fld):
    """Reduce the running polynomial `work` (consumed) by the images.

    Returns (remainder, scale): the remainder is a dict from the leading
    term down, and remainder / scale is the normal form of the input.  The
    running polynomial sits beside a heap of descending order keys; each step
    pops the largest monomial, skips it if its coefficient has cancelled,
    and cancels it with the first image whose leading term divides it.
    Every monomial is keyed once per call: one that cancels keeps its heap
    entry, and one already popped never comes back because all later terms
    are smaller.  Over F_p the integers are reduced only when popped."""
    residue, scale_pair, key = fld.residue, fld.scale_pair, order.descending_key
    heappush, heappop = heapq.heappush, heapq.heappop
    heap = [(key(e), e) for e in work]
    heapq.heapify(heap)
    seen = set(work)
    remainder: dict = {}
    scale = 1
    while heap:
        exps = heappop(heap)[1]
        c = work.pop(exps, None)
        if c is None:
            continue
        c = residue(c)
        if not c:
            continue  # cancelled
        for lead, a, tail, _ in images:
            if all(map(le, lead, exps)):
                break
        else:
            remainder[exps] = c
            continue
        k, f = scale_pair(a, c)
        if k != 1:
            for e in work:
                work[e] *= k
            for e in remainder:
                remainder[e] *= k
            scale *= k
        shift = tuple(map(sub, exps, lead))
        for t_exps, t in tail:
            e = tuple(map(add, t_exps, shift))
            v = work.get(e)
            if v is None:
                work[e] = -f * t
                if e not in seen:
                    seen.add(e)
                    heappush(heap, (key(e), e))
            else:
                v -= f * t
                if v:
                    work[e] = v
                else:
                    del work[e]
    return remainder, scale


def _normal_form(p: Polynomial, images, order: MonomialOrder) -> Polynomial:
    if p.is_zero:
        return p
    work, num, den = _running(p)
    remainder, scale = _pseudo_reduce(work, images, order, p.ring.field)
    return _field_poly(p.ring, remainder.items(), num, den * scale)


def reduce_poly(p: Polynomial, basis, order: MonomialOrder) -> Polynomial:
    """Full normal form of p against a list of nonzero polynomials: each
    step divides the largest remaining monomial by the first basis element
    whose leading term divides it."""
    return _normal_form(p, [_image(g, order) for g in basis], order)


def spolynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    work, scale = _spair(_image(f, order), _image(g, order), f.ring.field)
    return _field_poly(f.ring, work.items(), 1, scale)


def _bounded(image):
    """The image, refused when one of its integers has more than
    BUCHBERGER_MAX_BITS bits."""
    _, a, tail, _ = image
    bits = max(abs(n).bit_length() for n in (a, *(n for _, n in tail)))
    if bits > BUCHBERGER_MAX_BITS:
        raise InconclusiveError(f"Groebner basis element with {bits}-bit coefficients, "
                                f"above BUCHBERGER_MAX_BITS={BUCHBERGER_MAX_BITS}")
    return image


class GroebnerBasis(tuple):
    """A reduced Groebner basis, a tuple of monic polynomials, that carries
    their integer images as `images`, in the same order."""

    def __new__(cls, polys, images):
        basis = super().__new__(cls, polys)
        basis.images = images
        return basis


def buchberger(gens, order: MonomialOrder = GREVLEX) -> GroebnerBasis:
    """Reduced Groebner basis: _completion run to the end, interreduced,
    and re-checked by a post-pass that every S-polynomial reduces to zero."""
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return GroebnerBasis((), ())
    ring = gens[0].ring
    fld = ring.field
    for basis in _completion(gens, order, fld):
        pass
    reduced = _interreduce(basis, order, fld)
    _assert_buchberger_criterion(reduced, order, fld)
    return GroebnerBasis((_monic(ring, im) for im in reduced), reduced)


def _completion(gens, order: MonomialOrder, fld):
    """Buchberger's completion of nonzero generators on integer images,
    normal selection strategy with the coprime and chain criteria.  Yields
    the list of images after each element it adds: first the generators
    that do not reduce to zero by those before them, in the given order,
    then each nonzero S-polynomial remainder.  The last list yielded is a
    Groebner basis, not yet interreduced.  Each new element is checked
    against BUCHBERGER_MAX_BITS."""
    basis: list = []
    for g in gens:
        if basis:
            r, _ = _pseudo_reduce(_running(g)[0], basis, order, fld)
            if not r:
                continue
            basis.append(_bounded(_remainder_image(r, fld)))
        else:
            basis.append(_bounded(_image(g, order)))
        yield basis
    leads = [im[0] for im in basis]

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
        if lcm == tuple(map(add, li, lj)):
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
        r, _ = _pseudo_reduce(_spair(basis[i], basis[j], fld)[0], basis, order, fld)
        if r:
            basis.append(_bounded(_remainder_image(r, fld)))
            leads.append(basis[-1][0])
            new = len(basis) - 1
            for k in range(new):
                push_pair(k, new)
            yield basis


def _interreduce(basis, order, fld):
    # Drop redundant leading terms (keeping the first of any ties), then
    # fully reduce each survivor against the others.
    leads = [im[0] for im in basis]
    kept = [im for i, (im, li) in enumerate(zip(basis, leads))
            if not any(j != i and _divides(lj, li) and (lj != li or j < i)
                       for j, lj in enumerate(leads))]
    final = []
    for i, image in enumerate(kept):
        others = kept[:i] + kept[i + 1:]
        if not others:
            final.append(image)
            continue
        lead, a, tail, _ = image
        r, _ = _pseudo_reduce({lead: a, **dict(tail)}, others, order, fld)
        final.append(_remainder_image(r, fld))
    final.sort(key=lambda im: order.key(im[0]))
    return tuple(final)


def _assert_buchberger_criterion(images, order, fld):
    """Every S-polynomial of the images reduces to zero; no pair is skipped.
    A tuple of images that has passed is not checked again (_passed); a
    single image has no pair and takes no entry there."""
    if len(images) > 1:
        _passed(tuple(images), order, fld)


@lru_cache(maxsize=REDUCED_BASES)
def _passed(images: tuple, order: MonomialOrder, fld) -> bool:
    """True once every S-polynomial of the images reduces to zero.  Kept
    for the most recent REDUCED_BASES tuples passed; one that fails raises
    and is not kept."""
    for f, g in itertools.combinations(images, 2):
        if _pseudo_reduce(_spair(f, g, fld)[0], images, order, fld)[0]:
            raise AssertionError("Buchberger post-check failed: nonzero S-polynomial remainder")
    return True


@lru_cache(maxsize=REDUCED_BASES)
def _reduced_basis(gens: tuple, order: MonomialOrder):
    """(basis, images): the reduced Groebner basis of the generator tuple
    and the integer images of its elements, shared by every Ideal.  The
    reduced basis under a fixed order is unique (Cox, Little & O'Shea,
    Ideals, Varieties, and Algorithms, 2.7.6), so a shared one is the one a
    new computation would return.  The key is the tuple as given, since the
    BUCHBERGER_MAX_BITS budget may depend on the generators' order; a
    computation that raises is not kept."""
    basis = buchberger(gens, order)
    return basis, basis.images


@lru_cache(maxsize=REDUCED_BASES)
def _standard_monomials(leads: tuple, nvars: int):
    """The standard monomials of the leading exponents, in GREVLEX order,
    as a tuple; None when there are infinitely many.  Keyed by the leading
    exponents, so bases that share them share one staircase."""
    std = staircase(leads, nvars)
    return None if std is None else tuple(sorted(std, key=GREVLEX.key))


class Ideal:
    """An ideal of the ambient ring.  Its reduced Groebner basis and the
    basis images come from the shared cache on first use and stay with it."""

    __slots__ = ("ring", "gens", "order", "_reduced")

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
        self._reduced = None  # the basis and its images, kept once read

    def _basis_and_images(self):
        if self._reduced is None:
            self._reduced = _reduced_basis(self.gens, self.order)
        return self._reduced

    def groebner_basis(self) -> tuple[Polynomial, ...]:
        return self._basis_and_images()[0]

    def normal_form(self, p: Polynomial) -> Polynomial:
        if p.ring != self.ring:
            raise ValueError("ambient mismatch")
        return _normal_form(p, self._basis_and_images()[1], self.order)

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
        return [im[0] for im in self._basis_and_images()[1]]

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
        gb, _ = _reduced_basis(tuple(lifted), BlockOrder(split=1))
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
        """Whether the ideals are equal: the reduced Groebner basis of an
        ideal under a fixed order is unique (Cox, Little & O'Shea, 2.7.6),
        so self's basis is compared with that of other's generators in
        self's order, polynomial by polynomial."""
        self._check(other)
        return self.groebner_basis() == _reduced_basis(other.gens, self.order)[0]

    def _check(self, other: "Ideal"):
        if self.ring != other.ring:
            raise ValueError("ambient mismatch between ideals")

    # -- numerical invariants ---------------------------------------------

    def _staircase(self):
        return _standard_monomials(tuple(self.leading_exponents()), self.ring.nvars)

    def standard_monomials(self):
        """Monomials outside the leading-term ideal; None when unbounded."""
        std = self._staircase()
        return None if std is None else list(std)

    def colength(self):
        std = self._staircase()
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
    """The ideal generated by all products a*b, sorted by leading term.
    Duplicates are dropped in generation order, so ties in the sort do not
    follow the string-hash seed."""
    prods = dict.fromkeys(a * b for a in left for b in right)
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
    """e(I) for an ideal of finite colength: the sum over the points p of
    V(I) of the local multiplicities e(I_p), each certified.

    - At most d generators: I is a complete intersection at each point of
      V(I), so e(I_p) = colength(I_p) and e(I) = colength(I).
    - A monomial basis: e(I) is read off the Newton polyhedron.
    - Generators of a plane ideal over Q that is Newton non-degenerate and
      primary to the origin: e(I) is read off their Newton polygon, see
      _newton_nondegenerate.
    - Otherwise a d-element reduction Q of I at every point (Northcott-Rees
      1954), see _reduction_multiplicity."""
    colength = I.colength()
    if colength is None:
        raise ValueError("multiplicity requires finite colength")
    basis = I.groebner_basis()
    d = I.ring.nvars
    if min(len(I.gens), len(basis)) <= d:
        return colength
    if all(len(g.terms) == 1 for g in basis):
        return newton_multiplicity(next(iter(g.terms)) for g in basis)
    if _newton_nondegenerate(I, colength):
        return newton_multiplicity(e for g in I.gens for e in g.terms)
    return _reduction_multiplicity(I, basis)


def _newton_nondegenerate(I: Ideal, colength: int) -> bool:
    """Whether I, an ideal of k[x, y] over Q, is primary to the origin and
    its generators' initial forms on each compact edge of their Newton
    polygon have no common zero with x*y != 0.  Then the integral closure
    of I is the monomial ideal of that polygon and e(I) is its Newton number
    (Saia, The integral closure of ideals and the Newton filtration, J.
    Algebraic Geom. 5, 1996).  V(I) is the origin exactly when x^c and y^c
    lie in I, c the colength.  On an edge with normal w, a form is x^u*y^v
    times h(t), t = x^(w1/g)/y^(w0/g), g = gcd(w0, w1), with h(0) != 0, so
    the forms share a zero in the torus iff their h share a root."""
    ring, fld = I.ring, I.ring.field
    if ring.nvars != 2 or not isinstance(fld, RationalField):
        return False
    if not all(I.contains(ring.monomial(e)) for e in ((colength, 0), (0, colength))):
        return False
    for w, c in newton_facets(e for g in I.gens for e in g.terms).values():
        step = w[1] // math.gcd(*w)
        forms = []
        for g in I.gens:
            on = {e[0]: a for e, a in g.terms.items() if w[0] * e[0] + w[1] * e[1] == c}
            if on:
                low = min(on)
                h = [fld.zero] * ((max(on) - low) // step + 1)
                for x, a in on.items():
                    h[(x - low) // step] = a
                forms.append(h)
        if _common_root(forms, fld):
            return False
    return True


def _common_root(polys, fld) -> bool:
    """Whether polynomials in one variable, coefficient lists from the
    constant up with a nonzero last entry, share a root in the algebraic
    closure: whether their gcd, by Euclid, has positive degree."""
    g = polys[0]
    for h in polys[1:]:
        while h:
            g, h = h, _remainder(g, h, fld)
    return len(g) > 1


def _remainder(a, b, fld) -> list:
    a = list(a)
    while len(a) >= len(b):
        q, shift = fld.div(a[-1], b[-1]), len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] = fld.sub(a[shift + i], fld.mul(q, c))
        while a and fld.is_zero(a[-1]):
            a.pop()
    return a


def _reduction_multiplicity(I: Ideal, basis) -> int:
    """colength(Q + I^min(r+1, d)) for d seeded integer combinations Q of
    the basis (more than d elements) and the least r <= T_MAX with I^(r+1)
    inside Q * I^r + I^(r+2).

    At each point p of V(I) that containment reads I_p^(r+1) inside
    Q_p * I_p^r + I_p * I_p^(r+1), so I_p^(r+1) = Q_p * I_p^r by Nakayama:
    Q_p is a reduction of I_p generated by d elements, and e(I_p) =
    colength(Q_p).  Then I_p^(r+1) lies in Q_p, and so does I_p^d by the
    Briancon-Skoda theorem in the regular local ring S_p: the integral
    closure of I_p^d = the integral closure of Q_p^d lies in Q_p (Lipman &
    Sathaye, Michigan Math. J. 28, 1981; Huneke & Swanson, Integral Closure
    of Ideals, Rings, and Modules, ch. 13).  So Q + I^min(r+1, d) equals
    Q_p at p and is the unit ideal away from V(I), and its colength is
    e(I).  Q alone may vanish at points outside V(I), so colength(Q) is not
    the answer.  For r >= 1 in the plane that ideal is Q + I^2, the r = 0
    bound, whose basis the test has already computed.

    Each q_i is a pivot g_i plus c_ij * g_j for every basis element g_j
    that is not a pivot, with c_ij in +-2, 3, 5, 7; the first try pivots on
    g_1..g_d.  Inputs, like the paper's x^n - y^n, mostly carry coefficients
    +-1, and a combination with the inputs' own coefficients is the likeliest
    to cancel their terms and be special at some point.  On the 24 random
    plane ideals of perfbench's ideals workload at seeds 1 to 20, whose
    coefficients lie in +-1..3, these took 22% less pseudo-reduction work
    (terms times divisors) than combinations with +-1..3.

    Q and those g_j generate I, so I^(r+2) = Q * I^(r+1) + (g_j) * I^(r+1),
    and the bound B = Q * I^r + (g_j) * I^(r+1) (_bound) generates the
    right side.  B lies in I^(r+1), and both have finite colength (B
    contains Q^(r+1)), so B = I^(r+1) exactly when their colengths agree,
    and the test is that count.  At r = 0, B is Q + I^2, whose reduced
    basis the plane answer needs anyway, and its colength is compared with
    I's.  For r >= 2 the count stops early (_fills): the leading terms of
    any partial Groebner basis of B lie in LT(B), inside LT(I^(r+1)), and their
    staircase has at least colength(I^(r+1)) points.  If it has exactly
    that many, LT(B) = LT(I^(r+1)), so B = I^(r+1): a Groebner basis of B
    is then one of I^(r+1).  Conversely B = I^(r+1) makes the completed
    basis reach the count.  So the completion stops at the first element
    that brings the count down to colength(I^(r+1)), and the test fails
    only when the completion ends above it.  Neither a reduced basis of B
    nor its post-check is built.

    At r = 1 two colengths at hand stand in for B: L = colength(I^2) -
    d * colength(I) and U = colength(Q + I^2).  Let P be the sum over the
    points p of V(I) of colength(Q_p); colengths here are dimensions over
    the ground field, summed over V(I), where I, I^2 and Q + I^2 live.
    - L <= P, with equality exactly when B = I^2 (the length count behind
      the Huneke-Ooishi theorem: Huneke, Hilbert functions and symbolic
      powers, Michigan Math. J. 34, 1987; Ooishi, Delta-genera and
      sectional genera of commutative rings, Hiroshima Math. J. 17, 1987).
      Q_p is generated by a system of parameters of the regular, so
      Cohen-Macaulay, ring S_p, a regular sequence of d elements, so
      Q_p / Q_p * I_p is (S_p / I_p)^d and colength(Q_p * I_p) =
      colength(Q_p) + d * colength(I_p).  Q_p * I_p lies in I_p^2, so
      colength(I_p^2) is at most that, with equality exactly when I_p^2 =
      Q_p * I_p, which by Nakayama is B_p = I_p^2.  Sum over V(I).
    - U <= P, with equality exactly when Q + I^3 = Q + I^2.  Q_p lies in
      (Q + I^2)_p, with equality exactly when I_p^2 lies in Q_p; and
      Q_p + I_p^3 = Q_p + I_p^2 puts I_p^2 in Q_p by Nakayama on
      (Q_p + I_p^2) / Q_p.
    So B = I^2, which puts I_p^2 = Q_p * I_p inside Q_p, gives U = P = L,
    and a try with U != L skips r = 1: no count runs, and it tests r = 2 in
    the same round.  When U = L, B = I^2 exactly when U = P, that is when
    Q + I^3 = Q + I^2; Q * I^2 lies in Q, so Q plus the products of the
    g_j with I^2's basis generate Q + I^3, and _fills counts them against
    U: fewer generators than B and a smaller staircase to reach than
    colength(I^2).  A count that holds shows B = I^2, so the answer is U =
    e(I) as at any r = 1; one that fails leaves r = 2 for the next round.
    (L <= U too, as Q / Q * I maps onto (Q + I^2) / I^2, so U = L says
    that Q meets I^2 in Q * I; that this alone gives B = I^2 is not shown,
    so the count stays.)

    A Q of infinite colength is skipped.  Small coefficients can fail to be
    general at some point of V(I), and then no r works, so the tries run
    side by side: try i starts in round i, after the running tries, and
    each round tests the next r of every running try, r = 1 and r = 2
    together when r = 1 is skipped.  The powers of I are shared."""
    ring, order = I.ring, I.order
    d = ring.nvars
    powers = [None]  # I^1, I^2, ... at their exponents
    tower = _power_tower(I)

    def power(k):
        while len(powers) <= k:
            powers.append(next(tower))
        return powers[k]

    def search(Q, rest):
        """None for each r <= T_MAX that fails, then e(I) once one holds;
        r = 1 yields nothing when the colengths skip it."""
        for r in range(T_MAX + 1):
            upper = power(r + 1).groebner_basis()
            if r == 0:
                square = Ideal(_bound(Q, rest, (ring.one(),), upper), order, ring)  # Q + I^2
                holds = square.colength() == I.colength()
            elif r == 1:
                holds = _r1_test(Q, rest, I, square, power(2))
                if holds is None:
                    continue  # no count ran: r = 2 in this round
            else:
                bound = _bound(Q, rest, power(r).groebner_basis(), upper)
                holds = _fills(bound, order, power(r + 1).colength())
            if holds:
                k = min(r + 1, d)  # Q + I^k is Q at every point of V(I)
                answer = (I if k == 1 else square if k == 2
                          else Ideal(Q + list(power(k).groebner_basis()), order, ring))
                yield answer.colength()
                return
            yield None

    tries = itertools.starmap(search, _combinations(I, basis))
    running, ran_out = [], False
    while True:
        # each round advances the running tries, then starts the next one:
        # chain reaches the next try only once the running ones have moved
        still = []
        for step in itertools.chain(running, itertools.islice(tries, 1)):
            e = next(step, False)
            if e is False:  # r ran past T_MAX
                ran_out = True
            elif e is not None:
                return e
            else:
                still.append(step)
        running = still
        if not running:
            break
    budget = f" with r <= T_MAX={T_MAX}" if ran_out else ""
    raise InconclusiveError(f"no reduction of the ideal among REDUCTION_TRIES={REDUCTION_TRIES} "
                            f"seeded combinations of its basis{budget}")


def _combinations(I: Ideal, basis):
    """(Q, rest) for each of the REDUCTION_TRIES seeded combinations Q of
    the basis that has finite colength, rest the basis elements that are
    not its pivots; see _reduction_multiplicity."""
    ring, order, fld = I.ring, I.order, I.ring.field
    d = ring.nvars
    rng = random.Random(0)
    for attempt in range(REDUCTION_TRIES):
        pivots = range(d) if attempt == 0 else sorted(rng.sample(range(len(basis)), d))
        rest = [g for j, g in enumerate(basis) if j not in pivots]
        Q = []
        for i in pivots:
            q = basis[i]
            for g in rest:
                q = q + g.scale(fld.from_int(rng.choice((-7, -5, -3, -2, 2, 3, 5, 7))))
            Q.append(q)
        if Ideal(Q, order, ring).colength() is not None:
            yield Q, rest


def _bound(Q, rest, lower, upper) -> list:
    """Generators of Q * I^r + (rest) * I^(r+1) from the bases `lower` of
    I^r and `upper` of I^(r+1); see _reduction_multiplicity."""
    return [q * b for q in Q for b in lower] + [g * b for g in rest for b in upper]


def _r1_test(Q, rest, I: Ideal, square: Ideal, I2: Ideal):
    """The r = 1 test of _reduction_multiplicity from square = Q + I^2 and
    I2 = I^2: None when colength(Q + I^2) != colength(I^2) - d *
    colength(I), which shows that I^2 != Q * I + (rest) * I^2 with no count
    run; otherwise whether Q + I^3 = Q + I^2 (_fills), which is then
    whether they are equal."""
    target = square.colength()
    if target != I2.colength() - I.ring.nvars * I.colength():
        return None
    return _fills(Q + [g * b for g in rest for b in I2.groebner_basis()], I.order, target)


def _fills(gens, order: MonomialOrder, colength: int) -> bool:
    """Whether nonzero generators of an ideal B of finite colength, inside
    an ideal J of finite colength, generate all of J: whether the staircase
    of the leading terms reaches colength(J) points as _completion adds
    elements (the Hilbert function as a stop test: Traverso, Hilbert
    functions and the Buchberger algorithm, J. Symbolic Comput. 22, 1996);
    see _reduction_multiplicity for the proof.  The caller's lists have
    finite colength because they contain Q^(r+1) (the bound, r >= 2, J =
    I^(r+1)) or Q itself (Q + I^3, J = Q + I^2).  A completed basis of B
    with an infinite staircase, or one that ends below colength(J), breaks
    a precondition and raises."""
    nvars = gens[0].ring.nvars
    std = None
    for images in _completion(gens, order, gens[0].ring.field):
        std = staircase([im[0] for im in images], nvars)
        if std is not None and len(std) == colength:
            return True
    if std is None:
        raise AssertionError("reduction test: the bound has infinite colength")
    if len(std) < colength:
        raise AssertionError("reduction test: the bound's staircase ends below J's colength")
    return False
