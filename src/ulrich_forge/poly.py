"""Sparse exact-coefficient multivariate polynomials over a fixed ambient ring."""
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
        i = self.variables.index(name)
        exps = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, {exps: self.field.one})

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


class Polynomial:
    """Immutable sparse polynomial: a map from exponent vectors to coefficients."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: PolyRing, terms: dict):
        fld = ring.field
        clean = {}
        for exps, c in terms.items():
            if not fld.is_zero(c):
                clean[tuple(exps)] = c
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

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
        fld = self.ring.field
        res = dict(self.terms)
        for exps, c in other.terms.items():
            res[exps] = fld.add(res.get(exps, fld.zero), c)
        return Polynomial(self.ring, res)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_ring(other)
        fld = self.ring.field
        res = dict(self.terms)
        for exps, c in other.terms.items():
            res[exps] = fld.sub(res.get(exps, fld.zero), c)
        return Polynomial(self.ring, res)

    def __neg__(self) -> "Polynomial":
        fld = self.ring.field
        return Polynomial(self.ring, {e: fld.neg(c) for e, c in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_ring(other)
        fld = self.ring.field
        res: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = _add_exps(e1, e2)
                prod = fld.mul(c1, c2)
                if e in res:
                    res[e] = fld.add(res[e], prod)
                else:
                    res[e] = prod
        return Polynomial(self.ring, res)

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

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
        lead = max(self.terms, key=order.key)
        return lead, self.terms[lead]

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
