"""Independent brute-force oracles used to cross-check the main algorithms.

These deliberately avoid the Groebner and DP code paths: ideal membership is
a dense linear solve, semigroup membership and order are memoized recursions,
colon lengths a naive lattice scan, and monomial Koszul homology the ranks
of the complex at every lattice point.  The H0 and H1 points of a monomial
module keep their point-by-point form too: every point of the proof set C
tested against the support one generator at a time.  The Groebner layer's
own shortcuts have their plain forms here too: the normal form that
rebuilds the running polynomial at every step, Buchberger's algorithm on
field coefficients built on it, and ideal powers built from generator
products.
The plane row table keeps its per-row-closure builder, which closes
every row under the x-axis generators where the program closes only row
0.  The semigroup table readers have their full-scan forms too: each walks
every lattice point up to a degree bound (the recursive enumerator
lattice_shell) and reads its order off the memoized recursion, and the
minimal generators of N^d over a semigroup keep their scan of every point up
to a degree bound.
Multiplicities keep their old window form: the first stabilized difference
of a growth table.  The S2 multiplier-witness search keeps its polynomial
form, deciding every candidate by elimination and every pair by Buchberger.
The extension criterion keeps its ideal-equality form against m_R*S, and
ideal equality its mutual-containment form: every generator of each ideal
reduced to zero by the other's basis.
Matrix ranks keep their dense Gauss-Jordan form on field elements, and the
action of a polynomial on a finite-length module its dense form: a sum of
products of the variables' n x n matrices.  The
Koszul tally of a cyclic module its elimination form: h0 a colength and h2
the length of (J : K)/J from the colon ideal.
The reduction path of e(I) keeps its full-power answer, colength(Q +
I^(r+1)) for the r it certifies, where the program reads Q + I^min(r+1, d),
and its containment test, the reduced basis of the bound and the normal
form of each element of I^(r+1)'s basis, where the program counts standard
monomials while the bound's basis grows.  The reduction test keeps its
power-equality form: J^(t+1) built and its generators tested against
I * J^t, then re-checked by comparing reduced bases, where the program
tests only the products of generators of J outside I.  The free
resolution ranks of a plane ideal keep their Koszul-tally form, which no
program path needs.  Staircases keep their box filter: every point of the
box below the least point on each axis, tested against every generator.
The rationals keep their all-Fraction form, FractionField, in which even an
integral coefficient is a Fraction.
Polynomial arithmetic keeps its schoolbook form: + - * and negation that
collect into a dict and drop zero coefficients at the end, and powers by
repeated squaring from 1 with no monomial shortcut.  The text grammar keeps
its Polynomial-building parser, naive_parse_polynomial: every rule returns a
Polynomial, combined by that arithmetic, and every variable is read by
PolyRing.var.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd, lcm

from ulrich_forge import groebner
from ulrich_forge.groebner import Ideal
from ulrich_forge.fields import QQ
from ulrich_forge.koszul import koszul_ideal_module
from ulrich_forge.parse import MAX_NESTING, ParseError, _tokenize
from ulrich_forge.patterns import InconclusiveError, stabilized_difference
from ulrich_forge.poly import Polynomial, PolyRing
from ulrich_forge.reduction import (
    INCONCLUSIVE,
    NEGATIVE_MULTIPLICITY,
    POSITIVE,
    ReductionCertificate,
)
from ulrich_forge.semigroup import gap_set_auto
from ulrich_forge.subring import WITNESS_MAX_FACTORS


def monomials_up_to(degree, nvars=2):
    out = []
    for total in range(degree + 1):
        for exps in itertools.product(range(total + 1), repeat=nvars):
            if sum(exps) == total:
                out.append(exps)
    return out


class FractionField:
    """The rational numbers with every element a fractions.Fraction, the
    integral ones too; the same integer-image hooks as QQ."""

    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1) / a

    def div(self, a, b):
        return a / b

    def is_zero(self, a) -> bool:
        return a == 0

    def integer_image(self, coeffs, lead):
        den = lcm(*(c.denominator for c in coeffs))
        ints = [c.numerator * (den // c.denominator) for c in coeffs]
        g = gcd(*ints)
        if lead < 0:
            g = -g
        return [n // g for n in ints], g, den

    def scale_pair(self, a, c):
        if a == 1:
            return 1, c
        g = gcd(a, c)
        return a // g, c // g

    def residue(self, n: int) -> int:
        return n

    def split_sign(self, a):
        return (-1, -a) if a < 0 else (1, a)

    def coeff_str(self, a) -> str:
        return str(a)

    def __repr__(self) -> str:
        return "FractionField()"


def dense_mat_mul(a, b, field=QQ):
    """The product of two dense matrices, given as lists of rows."""
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = [[field.zero] * m for _ in range(n)]
    for i in range(n):
        for t in range(k):
            if not field.is_zero(a[i][t]):
                for j in range(m):
                    out[i][j] = field.add(out[i][j], field.mul(a[i][t], b[t][j]))
    return out


def dense_evaluate(p, matrices, n):
    """The n x n matrix by which the polynomial p acts on a module whose
    variables act by the dense matrices `matrices` (by variable name):
    entry [i][j] is the coefficient of basis[i] in p * basis[j]."""
    fld = p.ring.field
    out = [[fld.zero] * n for _ in range(n)]
    for exps, coeff in p.terms.items():
        term = [[fld.one if i == j else fld.zero for j in range(n)] for i in range(n)]
        for name, e in zip(p.ring.variables, exps):
            for _ in range(e):
                term = dense_mat_mul(term, matrices[name], fld)
        for i in range(n):
            for j in range(n):
                out[i][j] = fld.add(out[i][j], fld.mul(coeff, term[i][j]))
    return out


def naive_mat_rank(rows, field=QQ) -> int:
    """Rank of a dense matrix of field elements by Gauss-Jordan elimination
    with field division, row by row over every column."""
    work = [list(r) for r in rows]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, len(work)):
            if not field.is_zero(work[r][col]):
                pivot = r
                break
        if pivot is None:
            continue
        work[row], work[pivot] = work[pivot], work[row]
        inv = field.inv(work[row][col])
        work[row] = [field.mul(inv, x) for x in work[row]]
        for r in range(len(work)):
            if r != row and not field.is_zero(work[r][col]):
                factor = work[r][col]
                work[r] = [field.sub(a, field.mul(factor, b)) for a, b in zip(work[r], work[row])]
        row += 1
        rank += 1
        if row == len(work):
            break
    return rank


def elimination_koszul_cyclic(f, g, J):
    """(h0, h1, h2) of (f, g) on S/J for J of finite colength, the way the
    elimination path computes it: h0 the colength of J + K for K = (f, g),
    h2 the length of (J : K)/J, spanned by the standard monomials of J + K
    times the basis of J : K, as the dense rank of their normal forms modulo
    J, and h1 = h0 + h2 from chi = 0."""
    ring = J.ring
    K = Ideal([f, g], J.order, ring)
    top = J.sum(K)
    h0 = top.colength()
    forms = [J.normal_form(ring.monomial(e) * q)
             for q in J.quotient(K).groebner_basis() for e in top.standard_monomials()]
    columns = sorted({e for nf in forms for e in nf.terms})
    h2 = naive_mat_rank([[nf.terms.get(e, ring.field.zero) for e in columns] for nf in forms],
                        ring.field)
    return h0, h0 + h2, h2


def naive_ideal_equals(I, J):
    """I == J by mutual containment: each generator of one ideal has normal
    form zero modulo the other's Groebner basis, in that ideal's order."""
    return all(I.contains(g) for g in J.gens) and all(J.contains(g) for g in I.gens)


def brute_ideal_member(p, gens, quotient_degree):
    """Solve p = sum q_i g_i with deg q_i <= quotient_degree by dense linear
    algebra over Q."""
    ring = p.ring
    max_gen_degree = max((g.total_degree() for g in gens), default=0)
    row_monos = monomials_up_to(quotient_degree + max_gen_degree, ring.nvars)
    row_index = {m: i for i, m in enumerate(row_monos)}
    columns = []
    for g in gens:
        for mu in monomials_up_to(quotient_degree, ring.nvars):
            col = [Fraction(0)] * len(row_monos)
            for exps, coeff in g.terms.items():
                shifted = tuple(a + b for a, b in zip(exps, mu))
                if shifted not in row_index:
                    return None  # oracle window too small for this pair
                col[row_index[shifted]] = Fraction(coeff)
            columns.append(col)
    target = [Fraction(0)] * len(row_monos)
    for exps, coeff in p.terms.items():
        if exps not in row_index:
            return False
        target[row_index[exps]] = Fraction(coeff)
    rows = [[col[i] for col in columns] for i in range(len(row_monos))]
    rank_a = naive_mat_rank(rows)
    rank_aug = naive_mat_rank([r + [t] for r, t in zip(rows, target)])
    return rank_a == rank_aug


def naive_semigroup_member(gens, v, _memo=None):
    """Memoized recursion entirely independent of the package DP tables."""
    memo = _memo if _memo is not None else {}

    def rec(w):
        if all(e == 0 for e in w):
            return True
        if any(e < 0 for e in w):
            return False
        if w in memo:
            return memo[w]
        memo[w] = False  # cycle guard; generators are nonzero so depth is finite
        hit = any(rec(tuple(a - b for a, b in zip(w, g))) for g in gens)
        memo[w] = hit
        return hit

    return rec(tuple(v))


def naive_semigroup_order(gens, v, _memo=None):
    """Max number of generator parts summing to v, None for a non-member:
    a memoized recursion on the last part, independent of the package DP."""
    memo = _memo if _memo is not None else {}

    def rec(w):
        if any(e < 0 for e in w):
            return None
        if not any(w):
            return 0
        if w not in memo:  # generators are nonzero, so the degree drops
            parts = [rec(tuple(a - b for a, b in zip(w, g))) for g in gens]
            best = max((o for o in parts if o is not None), default=None)
            memo[w] = None if best is None else best + 1
        return memo[w]

    return rec(tuple(v))


def per_row_closed_rows(G, width, height):
    """The rows below `height` of G's row table of `width` bits: row j is
    the OR over the generators g off the x-axis of row j - g_y shifted by
    g_x (and the origin in row 0), then closed under the x-axis generators
    by one shift at a time until it no longer grows."""
    full = (1 << width) - 1
    axis = [x for x, y in G.generators if not y]
    rows = []
    for j in range(height):
        row = 0 if j else 1
        for gx, gy in G.generators:
            if 0 < gy <= j:
                row |= rows[j - gy] << gx
        row &= full
        while True:
            grown = row
            for s in axis:
                grown |= row << s & full
            if grown == row:
                break
            row = grown
        rows.append(row)
    return rows


def naive_gap_points(gens, degree_bound, nvars=2):
    memo = {}
    gaps = []
    for v in monomials_up_to(degree_bound, nvars):
        if not naive_semigroup_member(gens, v, memo):
            gaps.append(v)
    return gaps


def _naive_support(module_gens, ring_gens):
    memo = {}

    def in_support(v):
        for m in module_gens:
            w = tuple(a - b for a, b in zip(v, m))
            if all(e >= 0 for e in w) and naive_semigroup_member(ring_gens, w, memo):
                return True
        return False

    return in_support


def naive_koszul_monomial(module_gens, ring_gens, u1, u2, box):
    """(h0, h1, h2) of the monomial pair u1, u2 on a monomial module, summed
    over the coordinate box of side box above the generators' floor.  At each
    point v the complex is k^alpha -> k^beta -> k^gamma, spanned by those of
    v - u1 - u2, (v - u1, v - u2) and v that lie in the support; multiplication
    by u2 and -u1, then by u1 and u2, gives its +-1 entries."""
    in_support = _naive_support(module_gens, ring_gens)
    lo = [min(m[i] for m in module_gens) for i in range(2)]
    h0 = h1 = h2 = 0
    for a in range(lo[0], lo[0] + box + 1):
        for b in range(lo[1], lo[1] + box + 1):
            v = (a, b)
            low = tuple(c - d - e for c, d, e in zip(v, u1, u2))
            alpha = int(in_support(low))
            signs = [sign for w, sign in ((tuple(c - d for c, d in zip(v, u1)), 1),
                                          (tuple(c - d for c, d in zip(v, u2)), -1))
                     if in_support(w)]
            gamma = int(in_support(v))
            d2 = [[Fraction(sign)] * alpha for sign in signs]
            d1 = [[Fraction(1)] * len(signs)] * gamma
            r2, r1 = naive_mat_rank(d2), naive_mat_rank(d1)
            h0 += gamma - r1
            h1 += len(signs) - r1 - r2
            h2 += alpha - r2
    return h0, h1, h2


def pointset_homology_points(M, u):
    """The H0 and H1 points of the pair u = x^a, y^b (in either order) on
    the monomial module M, as two lists: each point of the set C of the
    koszul docstring, the n^2 boxes [g_j,x, g_j,x + a) x [g_i,y, g_i,y + b)
    and the g + G + {0, u1, u2, u1 + u2}, read off support membership."""
    (a, _), (_, b) = sorted(map(tuple, u), reverse=True)
    gaps = gap_set_auto(M.ring)

    def inside(v):
        return any(v[0] >= g[0] and v[1] >= g[1] and (v[0] - g[0], v[1] - g[1]) not in gaps
                   for g in M.gens)

    points = {v for (gx, _), (_, gy) in itertools.product(M.gens, repeat=2)
              for v in itertools.product(range(gx, gx + a), range(gy, gy + b))}
    points.update((g[0] + p[0] + i, g[1] + p[1] + j) for g in M.gens for p in gaps
                  for i in (0, a) for j in (0, b))
    h0, h1 = [], []
    for x, y in points:
        if not inside((x, y)):
            continue
        left, down = inside((x - a, y)), inside((x, y - b))
        if not (left or down):
            h0.append((x, y))
        elif left and down and not inside((x - a, y - b)):
            h1.append((x, y))
    return h0, h1


def naive_colon_count(module_gens, ring_gens, u1, u2, box=14):
    """Count w outside the module support with w+u1 and w+u2 both inside,
    scanning a plain coordinate box."""
    in_support = _naive_support(module_gens, ring_gens)
    lo = [min(m[i] for m in module_gens) - max(u1[i], u2[i]) for i in range(2)]
    count = 0
    for a in range(lo[0], lo[0] + box + 1):
        for b in range(lo[1], lo[1] + box + 1):
            w = (a, b)
            if in_support(w):
                continue
            if in_support((a + u1[0], b + u1[1])) and in_support((a + u2[0], b + u2[1])):
                count += 1
    return count


def naive_saturation_points(module_gens, ring_gens, reach):
    """supp(MS) - supp(M) by a plain box scan: the points above some module
    generator that no module generator reaches by a semigroup member.  Such a
    point minus any generator below it is a gap, so the box reaches `reach`
    (the largest gap coordinates) past the generators."""
    in_support = _naive_support(module_gens, ring_gens)
    dim = len(reach)
    lo = [min(m[i] for m in module_gens) for i in range(dim)]
    hi = [max(m[i] for m in module_gens) + reach[i] for i in range(dim)]
    return {w for w in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))
            if any(all(c >= e for c, e in zip(w, m)) for m in module_gens)
            and not in_support(w)}


def naive_min_gens(module_gens, ring_gens):
    """Module generators that no other generator reaches by a nonzero
    semigroup member."""
    memo = {}

    def reaches(n, m):
        return naive_semigroup_member(ring_gens, tuple(a - b for a, b in zip(m, n)), memo)

    return sum(1 for m in module_gens
               if not any(reaches(n, m) for n in module_gens if n != m))


def naive_reduce_poly(p, basis, order, entered=None):
    """Full normal form of p, re-finding the leading term of the running
    polynomial and rebuilding it at every step; the divisor is the first
    basis element whose leading term divides.  Every monomial of every
    running polynomial is added to the set `entered` when one is given."""
    fld = p.ring.field
    leads = [g.leading(order) for g in basis]
    remainder = {}
    work = p
    while not work.is_zero:
        if entered is not None:
            entered.update(work.terms)
        lt_exps, lt_coeff = work.leading(order)
        for g, (g_exps, g_coeff) in zip(basis, leads):
            if all(a <= b for a, b in zip(g_exps, lt_exps)):
                shift = tuple(a - b for a, b in zip(lt_exps, g_exps))
                work = work - g.term_mul(shift, fld.div(lt_coeff, g_coeff))
                break
        else:
            remainder[lt_exps] = lt_coeff
            work = work - Polynomial(work.ring, {lt_exps: lt_coeff})
    return Polynomial(p.ring, remainder)


def naive_spolynomial(f, g, order):
    """S-polynomial of the monic multiples of f and g, by field arithmetic."""
    fld = f.ring.field
    (fe, fc), (ge, gc) = f.leading(order), g.leading(order)
    lcm = tuple(max(a, b) for a, b in zip(fe, ge))
    return (f.term_mul(tuple(a - b for a, b in zip(lcm, fe)), fld.inv(fc))
            - g.term_mul(tuple(a - b for a, b in zip(lcm, ge)), fld.inv(gc)))


def naive_buchberger(gens, order):
    """Reduced Groebner basis by field arithmetic on whole polynomials:
    the same pair order, coprime and chain criteria and interreduction as
    the package, with every reduction done by `naive_reduce_poly`."""
    def divides(u, v):
        return all(a <= b for a, b in zip(u, v))

    basis = []
    for g in gens:
        if g.is_zero:
            continue
        r = naive_reduce_poly(g, basis, order) if basis else g
        if not r.is_zero:
            basis.append(r.monic(order))
    leads = [g.leading(order)[0] for g in basis]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    treated = set()

    def pair_key(pair):
        lcm = tuple(max(a, b) for a, b in zip(leads[pair[0]], leads[pair[1]]))
        return sum(lcm), order.key(lcm), pair[0], pair[1]

    while pairs:
        i, j = min(pairs, key=pair_key)
        pairs.remove((i, j))
        treated.add((i, j))
        lcm = tuple(max(a, b) for a, b in zip(leads[i], leads[j]))
        if lcm == tuple(a + b for a, b in zip(leads[i], leads[j])):
            continue
        if any(k not in (i, j) and divides(leads[k], lcm)
               and (min(i, k), max(i, k)) in treated and (min(j, k), max(j, k)) in treated
               for k in range(len(basis))):
            continue
        r = naive_reduce_poly(naive_spolynomial(basis[i], basis[j], order), basis, order)
        if not r.is_zero:
            basis.append(r.monic(order))
            leads.append(basis[-1].leading(order)[0])
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))

    kept = [g for i, g in enumerate(basis)
            if not any(j != i and divides(leads[j], leads[i]) and (leads[j] != leads[i] or j < i)
                       for j in range(len(basis)))]
    final = []
    for i, g in enumerate(kept):
        others = kept[:i] + kept[i + 1:]
        final.append((naive_reduce_poly(g, others, order) if others else g).monic(order))
    final.sort(key=lambda g: order.key(g.leading(order)[0]))
    return tuple(final)


def is_groebner_basis(basis, order):
    """Every S-polynomial of the basis reduces to zero by `naive_reduce_poly`."""
    return all(naive_reduce_poly(naive_spolynomial(f, g, order), basis, order).is_zero
               for f, g in itertools.combinations(basis, 2))


def generator_power(I, t):
    """I^t (t >= 1) generated by the t-fold products of I's generators."""
    power = I
    for _ in range(t - 1):
        power = power.product(I)
    return power


STABILIZE_TERMS = 40  # values a stabilization search reads


def stabilize(values, order: int, message: str):
    """Read at most STABILIZE_TERMS values until their order-th difference
    stabilizes; returns (value, table of the values read).  Raises
    InconclusiveError(message) when none stabilizes."""
    table = []
    for v in itertools.islice(values, STABILIZE_TERMS):
        table.append(v)
        e = stabilized_difference(table, order)
        if e is not None:
            return e, table
    raise InconclusiveError(f"{message} within STABILIZE_TERMS={STABILIZE_TERMS}")


def naive_ideal_multiplicity(I):
    """Stabilized d-th difference of colength(I^t), each power built from
    generator products alone."""
    def colengths():
        power = I
        while True:
            yield power.colength()
            power = power.product(I)
    return stabilize(colengths(), I.ring.nvars, "colength growth did not stabilize")[0]


def full_power_reduction_multiplicity(I, basis):
    """The reduction path of ideal_multiplicity with its full-power answer:
    the same seeded combinations Q, tried side by side, and the same test
    I^(r+1) inside Q*I^r + I^(r+2), answered by colength(Q + I^(r+1)) with
    I^(r+1) built for it, not by the Briancon-Skoda bound."""
    ring, order, fld = I.ring, I.order, I.ring.field
    d = ring.nvars
    powers = [None]
    tower = groebner._power_tower(I)

    def power(k):
        while len(powers) <= k:
            powers.append(next(tower))
        return powers[k]

    def combinations():
        rng = random.Random(0)
        for attempt in range(groebner.REDUCTION_TRIES):
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

    def search(Q, rest):
        for r in range(groebner.T_MAX + 1):
            upper = power(r + 1).groebner_basis()
            lower = power(r).groebner_basis() if r else (ring.one(),)
            bound = Ideal([q * b for q in Q for b in lower] + [g * b for g in rest for b in upper],
                          order, ring)
            if all(bound.contains(g) for g in upper):
                yield Ideal(Q + list(upper), order, ring).colength()
                return
            yield None

    tries = itertools.starmap(search, combinations())
    running = []
    while True:
        still = []
        for step in itertools.chain(running, itertools.islice(tries, 1)):
            e = next(step, False)
            if e is not None and e is not False:
                return e
            if e is None:
                still.append(step)
        running = still
        if not running:
            raise InconclusiveError("no reduction among the seeded combinations")


def reduced_bound_contains(bound, power_basis, order):
    """Whether the ideal of `bound` contains every element of power_basis:
    the reduced Groebner basis of the bound, then one normal form per
    element."""
    ideal = Ideal(bound, order, bound[0].ring)
    return all(ideal.contains(g) for g in power_basis)


def power_equality_reduction(I, J, t_max=groebner.T_MAX):
    """The reduction test by power equality: for t = 0..t_max, J^(t+1) from
    the power tower of J, each of its generators tested against I * J^t,
    and a witness re-checked through Ideal.equals, which compares the
    reduced bases of J^(t+1) and I * J^t.  The multiplicities are compared
    once, after t = min(2, t_max) fails, as in the program."""
    powers = groebner._power_tower(J)
    j_power = None
    for t in range(t_max + 1):
        j_next = next(powers)
        rhs = I if j_power is None else I.product(j_power)
        if all(rhs.contains(g) for g in j_next.gens):
            if not j_next.equals(rhs):
                raise AssertionError("reduction re-verification failed")
            return ReductionCertificate(POSITIVE, t=t)
        j_power = j_next
        if t == min(2, t_max):
            e_i, e_j = groebner.ideal_multiplicity(I), groebner.ideal_multiplicity(J)
            if e_i != e_j:
                return ReductionCertificate(NEGATIVE_MULTIPLICITY, e_small=e_i, e_large=e_j)
    return ReductionCertificate(INCONCLUSIVE, t_max=t_max)


def power_equality_integral(z, I):
    """Whether z is integral over I by power_equality_reduction of I + (z)."""
    if I.contains(z):
        return ReductionCertificate(POSITIVE, t=0)
    return power_equality_reduction(I, I.sum(Ideal([z], I.order, I.ring)))


def resolution_ranks(J):
    """Ranks (a, b) of the minimal free resolution 0 -> S^b -> S^a -> J -> 0
    of a nonzero ideal over the two-variable ambient ring, read off the
    Koszul tally of J on (x, y); always b = a - 1."""
    if J.is_zero_ideal:
        raise ValueError("zero ideal has no ideal-module resolution")
    x, y = J.ring.gens()
    tally = koszul_ideal_module(x, y, J)
    a, b = tally.h0, tally.h1
    if b != a - 1:
        raise AssertionError("resolution rank bookkeeping failed: b != a - 1")
    return a, b


def box_staircase(points, dim):
    """The points of N^dim above none of `points`, in lexicographic order,
    read off the box below the least point on each axis; None when some
    axis holds none of them."""
    bounds = []
    for i in range(dim):
        axis = [p[i] for p in points if not any(p[:i]) and not any(p[i + 1:])]
        if not axis:
            return None
        bounds.append(min(axis))
    return [v for v in itertools.product(*map(range, bounds))
            if not any(all(a <= b for a, b in zip(p, v)) for p in points)]


def naive_s2_multiplier_witness(R, f):
    """The first pair, in sorted-candidate order, of products of at most
    WITNESS_MAX_FACTORS generators that multiply f into R by
    `tag_membership` and generate an ideal of finite Buchberger colength;
    None when no pair does, and in one variable, where finite colength is
    height one."""
    if R.ring.nvars == 1:
        return None
    candidates = set()
    for size in range(1, WITNESS_MAX_FACTORS + 1):
        for combo in itertools.combinations_with_replacement(R.gens, size):
            prod = combo[0]
            for extra in combo[1:]:
                prod = prod * extra
            candidates.add(prod)
    ordered = sorted(candidates, key=lambda p: (p.total_degree(), p.to_str()))
    survivors = [c for c in ordered if R.tag_membership(c * f).member]
    for u, v in itertools.combinations(survivors, 2):
        if Ideal([u, v]).colength() is not None:
            return (u, v)
    return None


def naive_extension_criterion(R, reduction):
    """(d, witness) for the extension criterion I*S = m_R*S: an equality of
    ideals against m_R*S, the ideal of S that R's generators span, then a
    second normal-form scan of its generators for the first one outside
    I*S."""
    IS = Ideal(tuple(reduction))
    mS = Ideal(R.gens)
    if IS.equals(mS):
        return True, None
    for g in mS.gens:
        nf = IS.normal_form(g)
        if not nf.is_zero:
            return False, {"witness": str(g), "witness_normal_form": str(nf)}
    return False, None


def newton_floor(points, x):
    """The lowest y with (x, y) in the Newton polyhedron conv(points) + R^2_+,
    as a Fraction: the minimum over every point left of x and over every
    segment between two points that spans x."""
    pts = {tuple(p) for p in points}
    best = min((Fraction(b) for a, b in pts if a <= x), default=None)
    for (a1, b1), (a2, b2) in itertools.permutations(pts, 2):
        if a1 < x < a2:
            y = b1 + Fraction(x - a1, a2 - a1) * (b2 - b1)
            best = y if best is None else min(best, y)
    return best


def brute_newton_twice_area(points):
    """Twice the area below the Newton polygon, by trapezoids over every
    unit column: the polygon's vertices are lattice points, so its lower
    boundary is linear between consecutive integers."""
    x0 = min(a for a, b in points if b == 0)
    twice = sum(newton_floor(points, x) + newton_floor(points, x + 1) for x in range(x0))
    assert twice.denominator == 1
    return int(twice)


def in_newton_polyhedron(points, v):
    floor = newton_floor(points, v[0])
    return floor is not None and v[1] >= floor


def _members_upto(G, degree):
    """(point, order) for every member of degree <= `degree`, by the
    memoized recursion."""
    memo = {}
    for s in range(degree + 1):
        for v in lattice_shell(s, (0,) * G.dim):
            order = naive_semigroup_order(G.generators, v, memo)
            if order is not None:
                yield v, order


def scan_saturation_exponent(G):
    """Least t with m_R^t * S inside R, testing every member up to the
    largest gap's degree against every gap."""
    gaps = gap_set_auto(G)
    if not gaps:
        return 1
    worst = 0
    for v, o in _members_upto(G, max(sum(g) for g in gaps)):
        if any(all(a <= b for a, b in zip(v, gap)) for gap in gaps):
            worst = max(worst, o)
    return worst + 1


def scan_hilbert_samuel(G, t):
    """The number of members of order below t, all of degree <= (t - 1) *
    maxgen."""
    if t == 0:
        return 0
    return sum(1 for _, o in _members_upto(G, (t - 1) * G.max_generator_degree) if o < t)


def lattice_shell(s: int, floor):
    """Points v of Z^d with coordinate sum s and v >= floor componentwise,
    first coordinate ascending.  The floor may be negative."""
    floor = tuple(floor)
    if len(floor) == 1:
        if s >= floor[0]:
            yield (s,)
        return
    rest = floor[1:]
    for first in range(floor[0], s - sum(rest) + 1):
        for tail in lattice_shell(s - first, rest):
            yield (first,) + tail


def scan_minimal_generators(G):
    """Minimal generators of N^d as a module over G, by (degree, point):
    every point of degree <= (largest gap + maxgen) lying above no generator."""
    gaps = gap_set_auto(G)
    reach = max((sum(g) for g in gaps), default=0) + G.max_generator_degree
    return tuple(w for s in range(reach + 1) for w in lattice_shell(s, (0,) * G.dim)
                 if not any(all(a >= b for a, b in zip(w, g)) for g in G.generators))


def naive_add(p, q, sign=1):
    """p + q, or p - q for sign -1."""
    fld = p.ring.field
    op = fld.add if sign > 0 else fld.sub
    res = dict(p.terms)
    for exps, c in q.terms.items():
        res[exps] = op(res.get(exps, fld.zero), c)
    return Polynomial(p.ring, res)


def naive_neg(p):
    fld = p.ring.field
    return Polynomial(p.ring, {e: fld.neg(c) for e, c in p.terms.items()})


def naive_mul(p, q):
    fld = p.ring.field
    res = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            prod = fld.mul(c1, c2)
            res[e] = fld.add(res[e], prod) if e in res else prod
    return Polynomial(p.ring, res)


def naive_pow(p, k):
    result, base = p.ring.one(), p
    while k:
        if k & 1:
            result = naive_mul(result, base)
        base = naive_mul(base, base) if k > 1 else base
        k >>= 1
    return result


class _NaiveParser:
    def __init__(self, text: str, tokens, ring: PolyRing):
        self.text = text
        self.tokens = tokens
        self.pos = 0
        self.ring = ring
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str):
        raise ParseError.at(self.text, self.peek()[2], message)

    def at_op(self, *names) -> bool:
        kind, word, _ = self.peek()
        return kind == "OP" and word in names

    def parse_expr(self) -> Polynomial:
        result = self.parse_term()
        while self.at_op("+", "-"):
            op = self.advance()[1]
            rhs = self.parse_term()
            result = naive_add(result, rhs, 1 if op == "+" else -1)
        return result

    def parse_term(self) -> Polynomial:
        result = self.parse_factor()
        while self.at_op("*"):
            self.advance()
            result = naive_mul(result, self.parse_factor())
        kind, word, _ = self.peek()
        if kind in ("INT", "IDENT") or (kind == "OP" and word == "("):
            self.error("implicit multiplication is forbidden; use *")
        return result

    def parse_factor(self) -> Polynomial:
        sign = 1
        while self.at_op("+", "-"):
            if self.advance()[1] == "-":
                sign = -sign
        base = self.parse_base()
        if self.at_op("^"):
            self.advance()
            kind, word, _ = self.peek()
            if kind != "INT" or int(word) < 0:
                self.error("exponent must be a non-negative integer literal")
            self.advance()
            base = naive_pow(base, int(word))
        return base if sign > 0 else naive_neg(base)

    def parse_base(self) -> Polynomial:
        kind, word, offset = self.peek()
        if kind == "INT":
            self.advance()
            fld = self.ring.field
            value = fld.from_int(int(word))
            if self.at_op("/"):
                self.advance()
                den_kind, den, _ = self.peek()
                if den_kind != "INT":
                    self.error("denominator must be an integer literal")
                self.advance()
                if int(den) == 0:
                    self.error("zero denominator")
                value = fld.div(value, fld.from_int(int(den)))
            return Polynomial(self.ring, {(0,) * self.ring.nvars: value})
        if kind == "IDENT":
            self.advance()
            if word not in self.ring.variables:
                raise ParseError.at(self.text, offset, f"unknown variable {word!r}")
            return self.ring.var(word)
        if self.at_op("("):
            if self.depth == MAX_NESTING:
                self.error(f"parentheses nested deeper than {MAX_NESTING}")
            self.advance()
            self.depth += 1
            inner = self.parse_expr()
            if not self.at_op(")"):
                self.error("expected )")
            self.advance()
            self.depth -= 1
            return inner
        self.error("expected integer, variable, or (")


def naive_parse_polynomial(text: str, ring: PolyRing, begin: int = 0,
                           end: int | None = None) -> Polynomial:
    """parse_polynomial with a Polynomial, by the schoolbook arithmetic
    above, at every operator."""
    parser = _NaiveParser(text, _tokenize(text, begin, end), ring)
    poly = parser.parse_expr()
    if parser.peek()[0] != "END":
        parser.error("trailing input after polynomial")
    return poly
