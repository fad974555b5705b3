"""Independent brute-force oracles used to cross-check the main algorithms.

These deliberately avoid the Groebner and DP code paths: ideal membership is
a dense linear solve, semigroup membership and order are memoized recursions,
colon lengths a naive lattice scan, and monomial Koszul homology the ranks
of the complex at every lattice point.  The Groebner layer's own shortcuts
have their plain forms here too: the normal form that rebuilds the running
polynomial at every step, Buchberger's algorithm on field coefficients
built on it, and ideal powers built from generator products.
The semigroup point table's readers have their full-scan forms too: each
walks the whole table, however far it has grown, decoding every key.
Multiplicities keep their old window form: the first stabilized difference
of a growth table.  The S2 multiplier-witness search keeps its polynomial
form, deciding every candidate by elimination and every pair by Buchberger.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

from ulrich_forge.groebner import Ideal
from ulrich_forge.linalg import mat_rank
from ulrich_forge.patterns import InconclusiveError, stabilized_difference
from ulrich_forge.poly import Polynomial
from ulrich_forge.semigroup import _points, decode, gap_set_auto
from ulrich_forge.subring import WITNESS_MAX_FACTORS


def monomials_up_to(degree, nvars=2):
    out = []
    for total in range(degree + 1):
        for exps in itertools.product(range(total + 1), repeat=nvars):
            if sum(exps) == total:
                out.append(exps)
    return out


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
    rank_a = mat_rank(rows)
    rank_aug = mat_rank([r + [t] for r, t in zip(rows, target)])
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
            r2, r1 = mat_rank(d2), mat_rank(d1)
            h0 += gamma - r1
            h1 += len(signs) - r1 - r2
            h2 += alpha - r2
    return h0, h1, h2


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


def naive_s2_multiplier_witness(R, f):
    """The first pair, in sorted-candidate order, of products of at most
    WITNESS_MAX_FACTORS generators that multiply f into R by
    `tag_membership` and generate an ideal of finite Buchberger colength;
    None when no pair does."""
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


def scan_saturation_exponent(G):
    """Least t with m_R^t * S inside R, testing every table entry against
    every gap."""
    gaps = gap_set_auto(G)
    if not gaps:
        return 1
    worst = 0
    ords = _points(G, max(sum(g) for g in gaps))
    for c, o in ords.items():
        v = decode(c, (0,) * G.dim)
        if any(all(a <= b for a, b in zip(v, gap)) for gap in gaps):
            worst = max(worst, o)
    return worst + 1


def scan_hilbert_samuel(G, t):
    """The number of table entries of order below t."""
    if t == 0:
        return 0
    ords = _points(G, t * G.max_generator_degree - 1)
    return sum(1 for o in ords.values() if o < t)
