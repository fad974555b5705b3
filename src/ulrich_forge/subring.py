"""Finitely generated subrings of the ambient polynomial ring.

Membership uses tag variables: z lies in k[g_1..g_m] exactly when the normal
form of z against a Groebner basis of (t_i - g_i), for an elimination order
with the ambient block above the tag block, involves tag variables only.  The
normal form in the tags is then an explicit polynomial expression of z in the
generators, which is the membership certificate.
"""
from __future__ import annotations

from dataclasses import dataclass

from .fields import QQ, field_from_name
from .groebner import Ideal, buchberger, reduce_poly
from .orders import BlockOrder
from .parse import parse_generator_list
from .poly import Polynomial, PolyRing
from .semigroup import AffineSemigroup


class HypothesisFailure(ValueError):
    """A ring-builder hypothesis failed; carries the offending clause."""

    def __init__(self, clause: str):
        super().__init__(clause)
        self.clause = clause


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    representation: Polynomial | None  # polynomial in the tag variables
    residue: Polynomial | None  # the offending normal form when not a member


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
        self._tag_ring = None
        self._tag_basis = None

    def _build_monomial_model(self):
        exps = []
        for g in self.gens:
            if len(g.terms) != 1:
                return None
            exps.append(next(iter(g.terms)))
        return AffineSemigroup(self.ring.nvars, tuple(exps))

    def _ensure_tags(self):
        if self._tag_ring is not None:
            return
        prefix = "_g"
        while any(v.startswith(prefix) for v in self.ring.variables):
            prefix = "_" + prefix
        tags = tuple(f"{prefix}{i + 1}" for i in range(len(self.gens)))
        big = PolyRing(self.ring.variables + tags, self.ring.field)
        d = self.ring.nvars
        relations = []
        for i, g in enumerate(self.gens):
            lifted = Polynomial(
                big, {e + (0,) * len(tags): c for e, c in g.terms.items()}
            )
            relations.append(big.var(tags[i]) - lifted)
        self._tag_ring = big
        self._tag_basis = buchberger(relations, BlockOrder(split=d))

    def membership(self, z: Polynomial) -> MembershipResult:
        if z.ring != self.ring:
            raise ValueError("ambient mismatch")
        self._ensure_tags()
        big = self._tag_ring
        d = self.ring.nvars
        lifted = Polynomial(big, {e + (0,) * (big.nvars - d): c for e, c in z.terms.items()})
        nf = reduce_poly(lifted, list(self._tag_basis), BlockOrder(split=d))
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

    def maximal_ideal_extension(self) -> Ideal:
        """The ideal m_R * S generated by all subring generators."""
        return Ideal(self.gens)

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.gens)
        return f"PresentedSubring[{gens}]"


def subalgebra_member(R: PresentedSubring, z: Polynomial) -> MembershipResult:
    return R.membership(z)


def extend_to_S(R: PresentedSubring, elements) -> Ideal:
    """The S-ideal generated by the given elements of R; every element must
    pass subring membership."""
    elements = tuple(elements)
    if not elements:
        return Ideal([], ring=R.ring)
    for z in elements:
        if not R.membership(z).member:
            raise ValueError(f"{z} is not an element of the subring")
    return Ideal(elements)


@dataclass(frozen=True)
class BuilderParams:
    """Inputs to the no-Ulrich ring builder: a system of parameters u, an
    element f integral over (u) but outside it, a height-two multiplier pair
    per ambient variable, and finitely many extra integral elements."""

    u: tuple[Polynomial, ...]
    f: Polynomial
    multipliers: tuple[tuple[Polynomial, Polynomial], ...]
    extras: tuple[Polynomial, ...] = ()
    t_max: int = 12


@dataclass(frozen=True)
class BuildReport:
    ring: PresentedSubring
    hypotheses: tuple[tuple[str, str], ...]


def build_ring(params: BuilderParams) -> BuildReport:
    """Validate every builder hypothesis computationally and assemble the
    subring; refuses to emit a ring whose hypotheses fail."""
    from .reduction import is_integral  # local import avoids a cycle

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
    cert = is_integral(f, I, params.t_max)
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
        cert = is_integral(g, I, params.t_max)
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


def s2_multiplier_witness(R: PresentedSubring, f: Polynomial, max_factors: int = 3):
    """A pair (u, v) of subring elements multiplying f into R and generating a
    height-two ideal of S; certifies f lies in the S2-ification of R.

    Searches products of at most max_factors generators; None is
    inconclusive, not a refutation.
    """
    if R.membership(f).member:
        raise ValueError("element already lies in the subring")
    import itertools

    candidates: list[Polynomial] = []
    seen = set()
    for size in range(1, max_factors + 1):
        for combo in itertools.combinations_with_replacement(R.gens, size):
            prod = combo[0]
            for extra in combo[1:]:
                prod = prod * extra
            if prod not in seen:
                seen.add(prod)
                candidates.append(prod)
    candidates.sort(key=lambda p: (p.total_degree(), p.to_str()))
    survivors = [c for c in candidates if R.membership(c * f).member]
    for u, v in itertools.combinations(survivors, 2):
        if Ideal([u, v]).colength() is not None:
            return (u, v)
    return None


def parse_ring_spec(text: str, field=QQ):
    """Parse the ring input format:

        ring ambient=(x,y) gens=[x^2, x^3, x^2*y, y^2, y^3, x*y^2, x*y]

    with optional clauses ``reduction=[...]`` and ``field=q|fp:P``.
    Returns (PresentedSubring, reduction generators or None).
    """
    body = text.strip()
    if not body.startswith("ring"):
        raise ValueError("ring spec must start with 'ring'")
    body = body[len("ring"):].strip()
    clauses = _split_clauses(body)
    if "field" in clauses:
        field = field_from_name(clauses["field"])
    if "ambient" not in clauses or "gens" not in clauses:
        raise ValueError("ring spec needs ambient=(...) and gens=[...]")
    names = tuple(
        v.strip() for v in clauses["ambient"].strip("()").split(",") if v.strip()
    )
    if not 2 <= len(names) <= 4:
        raise ValueError("ambient must have between 2 and 4 variables")
    ring = PolyRing(names, field)
    gens = parse_generator_list(clauses["gens"].strip("[]"), ring)
    reduction = None
    if "reduction" in clauses:
        reduction = parse_generator_list(clauses["reduction"].strip("[]"), ring)
    return PresentedSubring(ring, gens), reduction


def _split_clauses(body: str) -> dict:
    clauses = {}
    i = 0
    n = len(body)
    while i < n:
        while i < n and body[i].isspace():
            i += 1
        if i >= n:
            break
        j = body.index("=", i)
        key = body[i:j].strip()
        depth = 0
        k = j + 1
        while k < n:
            ch = body[k]
            if ch in "([":
                depth += 1
            elif ch in ")]":
                depth -= 1
            elif ch.isspace() and depth == 0:
                break
            k += 1
        clauses[key] = body[j + 1 : k].strip()
        i = k
    return clauses
