"""Finitely generated subrings of the ambient polynomial ring.

A membership certificate is a polynomial in tag variables t_1..t_m, t_i
standing for the generator g_i, that evaluates to the tested element.

- Monomial subrings are decided by their affine semigroup: z lies in R exactly
  when every term exponent of z is a semigroup point.  Each point's generator
  decomposition becomes one tag monomial, and the assembled representation is
  evaluated back before it is returned.
- Other subrings use elimination (`tag_membership`): z lies in k[g_1..g_m]
  exactly when the normal form of z against a Groebner basis of (t_i - g_i),
  for an elimination order with the ambient block above the tag block,
  involves tag variables only; that normal form is the certificate.  For
  monomial subrings it is the independent oracle of the semigroup path.
"""
from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

from .fields import QQ, field_from_name
from .groebner import Ideal
from .orders import BlockOrder
from .parse import parse_generator_list, read_clauses, split_top_level
from .poly import Polynomial, PolyRing
from .reduction import is_integral
from .semigroup import AffineSemigroup, sg_member

# Most generators multiplied into one s2_multiplier_witness candidate.
WITNESS_MAX_FACTORS = 3


class HypothesisFailure(ValueError):
    """A ring-builder hypothesis failed; carries the offending clause."""

    def __init__(self, clause: str):
        super().__init__(clause)
        self.clause = clause


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    representation: Polynomial | None  # polynomial in the tag variables
    # when not a member: z's terms outside the semigroup (monomial subrings)
    # or the offending normal form (elimination)
    residue: Polynomial | None


class PresentedSubring:
    """Subring k[g_1..g_m] of S, every generator in the maximal ideal at the
    origin; carries the monomial semigroup model when all generators are
    monomials."""

    __slots__ = ("ring", "gens", "monomial_model", "_tag_ring", "_tag_basis")

    def __init__(self, ring: PolyRing, gens):
        gens = tuple(gens)
        if not gens:
            raise ValueError("at least one generator required")
        for g in gens:
            if g.ring != ring:
                raise ValueError("ambient mismatch among generators")
            if g.is_zero or not ring.field.is_zero(g.constant_term()):
                raise ValueError(f"generator {g} must be nonzero with zero constant term")
        self.ring = ring
        self.gens = gens
        self.monomial_model = self._build_monomial_model()
        prefix = "_g"
        while any(v.startswith(prefix) for v in ring.variables):
            prefix = "_" + prefix
        tags = tuple(f"{prefix}{i + 1}" for i in range(len(gens)))
        # the ring S[t_1..t_m] of membership certificates
        self._tag_ring = PolyRing(ring.variables + tags, ring.field)
        self._tag_basis = None  # the Ideal (t_i - g_i), built at the first elimination

    def _build_monomial_model(self):
        exps = []
        for g in self.gens:
            if len(g.terms) != 1:
                return None
            exps.append(next(iter(g.terms)))
        return AffineSemigroup(self.ring.nvars, tuple(exps))

    def _lift(self, p: Polynomial) -> Polynomial:
        """p in the tag ring, free of tags."""
        pad = (0,) * len(self.gens)
        return Polynomial(self._tag_ring, {e + pad: c for e, c in p.terms.items()})

    def membership(self, z: Polynomial) -> MembershipResult:
        """Decide z in R with a certificate: by the semigroup when every
        generator is a monomial, by elimination otherwise."""
        if z.ring != self.ring:
            raise ValueError("ambient mismatch")
        G = self.monomial_model
        if G is None:
            return self.tag_membership(z)
        fld = self.ring.field
        d, m = self.ring.nvars, len(self.gens)
        # the semigroup dedups exponents; each one stands for its first generator
        tag_of = {}
        for i, g in enumerate(self.gens):
            ((e, c),) = g.terms.items()
            tag_of.setdefault(e, (i, c))
        rep, outside = {}, {}
        for e, c in z.terms.items():
            witness = sg_member(G, e)
            if not witness.member:
                outside[e] = c
                continue
            tags = [0] * m
            for g in witness.decomposition:
                i, gc = tag_of[g]
                tags[i] += 1
                c = fld.div(c, gc)
            rep[(0,) * d + tuple(tags)] = c
        if outside:
            return MembershipResult(False, None, Polynomial(self.ring, outside))
        rep = Polynomial(self._tag_ring, rep)
        if self.evaluate_representation(rep) != z:
            raise AssertionError(f"semigroup certificate for {z} does not evaluate back")
        return MembershipResult(True, rep, None)

    def tag_membership(self, z: Polynomial) -> MembershipResult:
        """Decide z in R by elimination against the tag-variable basis."""
        if z.ring != self.ring:
            raise ValueError("ambient mismatch")
        big, d = self._tag_ring, self.ring.nvars
        if self._tag_basis is None:
            relations = [big.var(t) - self._lift(g) for t, g in zip(big.variables[d:], self.gens)]
            self._tag_basis = Ideal(relations, BlockOrder(split=d), big)
        nf = self._tag_basis.normal_form(self._lift(z))
        if all(all(e == 0 for e in exps[:d]) for exps in nf.terms):
            return MembershipResult(True, nf, None)
        return MembershipResult(False, None, nf)

    def evaluate_representation(self, rep: Polynomial) -> Polynomial:
        """Substitute the subring generators for the tags: the certificate
        check that a representation really equals the tested element."""
        d = self.ring.nvars
        out = self.ring.zero()
        for exps, coeff in rep.terms.items():
            if any(e != 0 for e in exps[:d]):
                raise ValueError("representation involves ambient variables")
            term = self.ring.const(1).scale(coeff)
            for g, e in zip(self.gens, exps[d:]):
                if e:
                    term = term * g ** e
            out = out + term
        return out

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.gens)
        return f"PresentedSubring[{gens}]"


@dataclass(frozen=True)
class BuilderParams:
    """Inputs to the no-Ulrich ring builder: a system of parameters u, an
    element f integral over (u) but outside it, a height-two multiplier pair
    per ambient variable, and finitely many extra integral elements."""

    u: tuple[Polynomial, ...]
    f: Polynomial
    multipliers: tuple[tuple[Polynomial, Polynomial], ...]
    extras: tuple[Polynomial, ...] = ()


@dataclass(frozen=True)
class BuildReport:
    ring: PresentedSubring
    hypotheses: tuple[tuple[str, str], ...]


def build_ring(params: BuilderParams) -> BuildReport:
    """Validate every builder hypothesis computationally and assemble the
    subring; refuses to emit a ring whose hypotheses fail."""
    u = tuple(params.u)
    if not u:
        raise HypothesisFailure("empty system of parameters")
    ring = u[0].ring
    d = ring.nvars
    if len(u) != d:
        raise HypothesisFailure(f"expected {d} parameters, got {len(u)}")
    if len(params.multipliers) != d:
        raise HypothesisFailure(f"expected {d} multiplier pairs")
    checks: list[tuple[str, str]] = []

    for p in u:
        if p.is_zero or not ring.field.is_zero(p.constant_term()):
            raise HypothesisFailure(f"parameter {p} not in the maximal ideal")
    I = Ideal(u)
    if I.colength() is None:
        raise HypothesisFailure("(u) colength infinite: not a system of parameters")
    checks.append(("(u) primary to the origin", f"colength {I.colength()}"))

    f = params.f
    if I.contains(f):
        raise HypothesisFailure("f in I")
    cert = is_integral(f, I)
    if not cert.positive:
        raise HypothesisFailure(f"f not integral over I: {cert.describe()}")
    checks.append(("f integral over I but outside I", cert.describe()))

    base = PresentedSubring(ring, u + (f,))
    for j, (v, w) in enumerate(params.multipliers):
        for p in (v, w):
            if p.is_zero or not ring.field.is_zero(p.constant_term()):
                raise HypothesisFailure(f"multiplier {p} not in the maximal ideal")
            if not base.membership(p).member:
                raise HypothesisFailure(
                    f"multiplier {p} not in the subring generated so far"
                )
        pair = Ideal([v, w])
        if pair.is_unit_ideal or pair.quotient_dimension() != d - 2:
            raise HypothesisFailure(f"(v_{j+1}, w_{j+1}) colength infinite")
        checks.append(
            (f"multiplier pair {j+1} has height 2", f"({v}, {w})")
        )

    for g in params.extras:
        if g.is_zero or not ring.field.is_zero(g.constant_term()):
            raise HypothesisFailure(f"extra {g} not in the maximal ideal")
        cert = is_integral(g, I)
        if not cert.positive:
            raise HypothesisFailure(f"extra {g} not integral over I: {cert.describe()}")
        checks.append((f"extra {g} integral over I", cert.describe()))

    gens: list[Polynomial] = list(u) + [f]
    for j, (v, w) in enumerate(params.multipliers):
        xj = ring.var(ring.variables[j])
        gens.append(v * xj)
        gens.append(w * xj)
    gens.extend(params.extras)
    seen = []
    for g in gens:
        if g not in seen:
            seen.append(g)
    return BuildReport(PresentedSubring(ring, tuple(seen)), tuple(checks))


def _products(gens) -> list[Polynomial]:
    """The distinct products of at most WITNESS_MAX_FACTORS of gens, sorted
    by (total degree, text): the candidates of the polynomial search of
    `s2_multiplier_witness`, for a non-monomial subring or an f of several
    terms."""
    products = set()
    for size in range(1, WITNESS_MAX_FACTORS + 1):
        for combo in itertools.combinations_with_replacement(gens, size):
            products.add(functools.reduce(operator.mul, combo))
    return sorted(products, key=lambda p: (p.total_degree(), p.to_str()))


def _axis_witness(R: PresentedSubring, axis: int, fe):
    """The least product, by (degree, text), of at most WITNESS_MAX_FACTORS
    generators on the axis whose exponent plus fe is a semigroup point, or
    None.  Products are exponents with their coefficients; one semigroup
    test per exponent, ascending, and polynomials only for the first that
    passes."""
    fld = R.ring.field
    gens = []
    for g in R.gens:
        ((e, c),) = g.terms.items()
        if sum(e) == e[axis]:  # zero off the axis; a generator is never constant
            gens.append((e, c))
    coeffs: dict[tuple, set] = {}
    for size in range(1, WITNESS_MAX_FACTORS + 1):
        for combo in itertools.combinations_with_replacement(gens, size):
            e = tuple(map(sum, zip(*(g for g, _ in combo))))
            coeffs.setdefault(e, set()).add(functools.reduce(fld.mul, (c for _, c in combo)))
    for e in sorted(coeffs):
        if sg_member(R.monomial_model, tuple(map(operator.add, e, fe))).member:
            return min((R.ring.monomial(e, c) for c in coeffs[e]), key=Polynomial.to_str)
    return None


def s2_multiplier_witness(R: PresentedSubring, f: Polynomial):
    """A pair (u, v) of subring elements multiplying f into R and generating a
    height-two ideal of S; certifies f lies in the S2-ification of R.

    Searches products of at most WITNESS_MAX_FACTORS generators; the first
    pair, in the order of `_products`, whose members multiply f into R and
    whose ideal has finite colength.  None is inconclusive, not a refutation,
    except in one variable: there finite colength is not height two, and a
    one-dimensional domain is Cohen-Macaulay, so R is its own S2-ification
    and no f outside R has a witness.

    For a monomial subring in two or more variables and a single-term f the
    search runs on exponent vectors: a pair of monomials has finite colength
    only when it holds a power of every variable, so in d >= 3 there is
    none, and in the plane only products on the axes can pair.  The first
    such pair in that order is the least survivor of one axis with the least
    of the other, so each axis is searched on its own (`_axis_witness`).
    The pair found is then certified by membership and a Buchberger
    colength, and a disagreement raises.
    """
    if R.membership(f).member:
        raise ValueError("element already lies in the subring")
    G, d = R.monomial_model, R.ring.nvars
    if d == 1:
        return None
    if G is None or len(f.terms) != 1:
        survivors = [c for c in _products(R.gens) if R.membership(c * f).member]
        return next(((u, v) for u, v in itertools.combinations(survivors, 2)
                     if Ideal([u, v]).colength() is not None), None)
    if d > 2:
        return None
    (fe,) = f.terms
    pair = [_axis_witness(R, axis, fe) for axis in (0, 1)]
    if None in pair:
        return None
    u, v = sorted(pair, key=lambda c: (c.total_degree(), c.to_str()))
    if not (R.membership(u * f).member and R.membership(v * f).member
            and Ideal([u, v]).colength() is not None):
        raise AssertionError(f"multiplier pair ({u}, {v}) for {f} fails its certificate")
    return (u, v)


def parse_ring_spec(text: str):
    """Parse the ring input format:

        ring ambient=(x,y) gens=[x^2, x^3, x^2*y, y^2, y^3, x*y^2, x*y]

    with optional clauses ``reduction=[...]`` and ``field=q|fp:P``, read by
    `parse.read_clauses`; clauses may span lines.
    Returns (PresentedSubring, reduction generators or None).
    """
    words = split_top_level(text)
    if not words or text[slice(*words[0])] != "ring":
        raise ValueError("ring spec must start with 'ring'")
    clauses = read_clauses(text, words[0][1], len(text),
                           {"ambient": "()", "gens": "[]", "reduction": "[]", "field": ""},
                           "ring spec clause")
    field = field_from_name(text[slice(*clauses["field"])]) if "field" in clauses else QQ
    if "ambient" not in clauses or "gens" not in clauses:
        raise ValueError("ring spec needs ambient=(...) and gens=[...]")
    names = tuple(text[a:b] for a, b in split_top_level(text, *clauses["ambient"], ","))
    if not 2 <= len(names) <= 4:
        raise ValueError("ambient must have between 2 and 4 variables")
    ring = PolyRing(names, field)
    gens = parse_generator_list(text, ring, *clauses["gens"])
    reduction = None
    if "reduction" in clauses:
        reduction = parse_generator_list(text, ring, *clauses["reduction"])
    return PresentedSubring(ring, gens), reduction
