"""Sparse exact-coefficient multivariate polynomials over a fixed ambient ring,
and the one term-dict arithmetic that `Polynomial` and the parser share."""
from __future__ import annotations

from dataclasses import dataclass, field

from .fields import QQ
from .orders import GREVLEX, MonomialOrder


@dataclass(frozen=True)
class PolyRing:
    """Ambient polynomial ring: variable names plus a coefficient field."""

    variables: tuple[str, ...]
    field: object = QQ

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        if not self.variables:
            raise ValueError("at least one variable required")
        for name in self.variables:
            if not (isinstance(name, str) and name.isidentifier()):
                raise ValueError(f"variable name {name!r} is not an identifier")
        # each variable's exponent vector, by name; not a field, so equality,
        # hashing and repr see the names and the field alone
        n = len(self.variables)
        object.__setattr__(self, "unit_exponents", {
            name: tuple(int(j == i) for j in range(n)) for i, name in enumerate(self.variables)})

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, n: int) -> "Polynomial":
        return Polynomial(self, {(0,) * self.nvars: self.field.from_int(n)})

    def var(self, name: str) -> "Polynomial":
        if name not in self.unit_exponents:
            raise ValueError(f"{name!r} is not a variable of the ring")
        return Polynomial(self, {self.unit_exponents[name]: self.field.one})

    def gens(self) -> tuple["Polynomial", ...]:
        return tuple(self.var(v) for v in self.variables)

    def monomial(self, exps, coeff=None) -> "Polynomial":
        exps = tuple(exps)
        if len(exps) != self.nvars or any(e < 0 for e in exps):
            raise ValueError(f"bad exponent vector {exps}")
        c = self.field.one if coeff is None else coeff
        return Polynomial(self, {exps: c})

    def poly(self, terms: dict) -> "Polynomial":
        return Polynomial(self, terms)


def _add_exps(u, v):
    return tuple(a + b for a, b in zip(u, v))


# The one polynomial arithmetic, on term dicts {exponents: coefficient} over
# a field fld.  Operands have no zero coefficient and are never changed; a
# result is a new dict with no zero coefficient either, its terms in the
# order of the schoolbook loop over the operands.  Coefficients are as the
# field's operations return them, and such a coefficient is zero exactly
# when it is falsy.  The parser builds polynomials with these, and
# Polynomial's + - * ** and negation wrap them.

def add_terms(fld, a: dict, b: dict) -> dict:
    res = dict(a)
    add = fld.add
    for exps, c in b.items():
        if exps in res:
            s = add(res[exps], c)
            if s:
                res[exps] = s
            else:
                del res[exps]
        else:
            res[exps] = c
    return res


def sub_terms(fld, a: dict, b: dict) -> dict:
    return add_terms(fld, a, neg_terms(fld, b))


def neg_terms(fld, a: dict) -> dict:
    neg = fld.neg
    return {exps: neg(c) for exps, c in a.items()}


def mul_terms(fld, a: dict, b: dict) -> dict:
    mul = fld.mul
    if len(a) == 1:  # both fields commute, so one fast path serves either side
        a, b = b, a
    if len(b) == 1:  # a product of two nonzero coefficients is nonzero
        (e2, c2), = b.items()
        return {_add_exps(e1, e2): mul(c1, c2) for e1, c1 in a.items()}
    add = fld.add
    res: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = _add_exps(e1, e2)
            prod = mul(c1, c2)
            res[e] = add(res[e], prod) if e in res else prod
    return {e: c for e, c in res.items() if c}


def pow_terms(fld, a: dict, k: int, nvars: int) -> dict:
    """a**k for k >= 0 by repeated squaring, on the coefficient alone when
    a is a monomial."""
    if k < 0:
        raise ValueError("negative power")
    if len(a) == 1:
        (exps, base), = a.items()
        coeff, n = fld.one, k
        while n:
            if n & 1:
                coeff = fld.mul(coeff, base)
            base = fld.mul(base, base) if n > 1 else base
            n >>= 1
        return {tuple(k * e for e in exps): coeff}
    result = {(0,) * nvars: fld.one}
    while k:
        if k & 1:
            result = mul_terms(fld, result, a)
        a = mul_terms(fld, a, a) if k > 1 else a
        k >>= 1
    return result


def _fill(poly, ring, terms):
    set_slot = object.__setattr__
    set_slot(poly, "ring", ring)
    set_slot(poly, "terms", terms)
    set_slot(poly, "_hash", None)
    set_slot(poly, "_lead", None)


class Polynomial:
    """Immutable sparse polynomial: a map from exponent vectors to coefficients."""

    __slots__ = ("ring", "terms", "_hash", "_lead")

    def __init__(self, ring: PolyRing, terms: dict):
        fld = ring.field
        clean = {}
        for exps, c in terms.items():
            if not fld.is_zero(c):
                clean[tuple(exps)] = c
        _fill(self, ring, clean)

    @classmethod
    def of_terms(cls, ring: PolyRing, terms: dict) -> "Polynomial":
        """The polynomial of a term dict as the term functions above return
        it: tuple keys, no zero coefficient.  The dict is taken, not copied."""
        poly = object.__new__(cls)
        _fill(poly, ring, terms)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Max total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def constant_term(self):
        zero_exps = (0,) * self.ring.nvars
        return self.terms.get(zero_exps, self.ring.field.zero)

    def _check_same_ring(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise ValueError("ambient mismatch: polynomials from different rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_ring(other)
        return Polynomial.of_terms(self.ring, add_terms(self.ring.field, self.terms, other.terms))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_ring(other)
        return Polynomial.of_terms(self.ring, sub_terms(self.ring.field, self.terms, other.terms))

    def __neg__(self) -> "Polynomial":
        return Polynomial.of_terms(self.ring, neg_terms(self.ring.field, self.terms))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_ring(other)
        return Polynomial.of_terms(self.ring, mul_terms(self.ring.field, self.terms, other.terms))

    def __pow__(self, k: int) -> "Polynomial":
        ring = self.ring
        return Polynomial.of_terms(ring, pow_terms(ring.field, self.terms, k, ring.nvars))

    def scale(self, coeff) -> "Polynomial":
        fld = self.ring.field
        return Polynomial(self.ring, {e: fld.mul(c, coeff) for e, c in self.terms.items()})

    def term_mul(self, exps, coeff) -> "Polynomial":
        """Multiply by the single term coeff * x^exps."""
        fld = self.ring.field
        return Polynomial(
            self.ring,
            {_add_exps(e, exps): fld.mul(c, coeff) for e, c in self.terms.items()},
        )

    def leading(self, order: MonomialOrder = GREVLEX):
        """(exponents, coefficient) of the leading term, or None for zero."""
        if not self.terms:
            return None
        cached = self._lead  # (order, leading term) of the last order asked
        if cached is not None and (cached[0] is order or cached[0] == order):
            return cached[1]
        lead = max(self.terms, key=order.key)
        out = lead, self.terms[lead]
        object.__setattr__(self, "_lead", (order, out))
        return out

    def monic(self, order: MonomialOrder = GREVLEX) -> "Polynomial":
        if self.is_zero:
            return self
        _, lc = self.leading(order)
        inv = self.ring.field.inv(lc)
        return self.scale(inv)

    def sorted_terms(self, order: MonomialOrder = GREVLEX):
        """Terms from the leading one down."""
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=True)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            h = hash((self.ring, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return self._hash

    def _monomial_str(self, exps) -> str:
        parts = []
        for name, e in zip(self.ring.variables, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def to_str(self, order: MonomialOrder = GREVLEX) -> str:
        if self.is_zero:
            return "0"
        fld = self.ring.field
        pieces = []
        for exps, coeff in self.sorted_terms(order):
            sign, mag = fld.split_sign(coeff)
            mono = self._monomial_str(exps)
            if not mono:
                body = fld.coeff_str(mag)
            elif fld.is_zero(fld.sub(mag, fld.one)):
                body = mono
            else:
                body = f"{fld.coeff_str(mag)}*{mono}"
            if not pieces:
                pieces.append(body if sign > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if sign > 0 else f"- {body}")
        return " ".join(pieces)

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"Polynomial({self.to_str()})"
