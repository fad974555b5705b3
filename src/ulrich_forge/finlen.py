"""Explicit finite-length modules: a k-basis plus one commuting nilpotent
action per ambient variable.  Every action is kept as sparse columns, in the
form of `linalg`: the image of basis[j] is a dict from basis position to
nonzero coefficient, so repeated labels cannot merge two basis elements.
Koszul homology of these is plain exact linear algebra."""
from __future__ import annotations

from operator import add, le

from .groebner import Ideal
from .linalg import apply_map, mat_rank
from .poly import Polynomial, PolyRing


def multiplication_columns(p: Polynomial, J: Ideal, monomials) -> list:
    """The normal forms modulo J of p*m for the exponents m in `monomials`,
    each as a dict from exponent to coefficient: the columns of
    multiplication by p from the span of those monomials into S/J.  For a
    single term p = c*x^s, a product x^(s+m) that no leading exponent of J
    divides is a standard monomial, its own normal form, so only the other
    products are reduced."""
    ring = J.ring
    if len(p.terms) != 1:
        return [J.normal_form(p * ring.monomial(e)).terms for e in monomials]
    (shift, c), = p.terms.items()
    leads = J.leading_exponents()
    columns = []
    for m in monomials:
        e = tuple(map(add, shift, m))
        if any(all(map(le, lead, e)) for lead in leads):
            columns.append(J.normal_form(ring.monomial(e, c)).terms)
        else:
            columns.append({e: c})
    return columns


class FiniteLengthModule:
    """action[v][j] is v * basis[j] as a dict from basis position to
    coefficient."""

    __slots__ = ("ring", "basis", "action")

    def __init__(self, ring: PolyRing, basis, action: dict):
        """`action` maps each variable to a dense n x n matrix whose entry
        [i][j] is the coefficient of basis[i] in v * basis[j]; the rows are
        read once, into sparse columns."""
        basis = tuple(basis)
        n = len(basis)
        columns = {}
        for name in ring.variables:
            rows = action.get(name)
            if rows is None:
                raise ValueError(f"missing action matrix for {name}")
            rows = [tuple(row) for row in rows]
            if len(rows) != n or any(len(row) != n for row in rows):
                raise ValueError(f"action matrix for {name} must be {n}x{n}")
            columns[name] = [{i: row[j] for i, row in enumerate(rows)
                              if not ring.field.is_zero(row[j])} for j in range(n)]
        self._set(ring, basis, columns)

    @classmethod
    def _from_columns(cls, ring: PolyRing, basis, columns: dict) -> "FiniteLengthModule":
        module = cls.__new__(cls)
        module._set(ring, basis, columns)
        return module

    def _set(self, ring, basis, columns):
        """Keep the columns once the actions are seen to commute and to be
        nilpotent."""
        self.ring, self.basis, self.action = ring, basis, columns
        fld = ring.field
        acts = [columns[v] for v in ring.variables]
        for i, a in enumerate(acts):
            for b in acts[i + 1:]:
                if any(apply_map(a, bc, fld) != apply_map(b, ac, fld) for ac, bc in zip(a, b)):
                    raise ValueError("action matrices do not commute")
        for v, a in zip(ring.variables, acts):
            power = a  # the columns of a^k, up to a^n = 0
            for _ in range(len(a) - 1):
                if not any(power):
                    break
                power = [apply_map(a, c, fld) for c in power]
            if any(power):
                raise ValueError(f"action of {v} is not nilpotent")

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @classmethod
    def zero(cls, ring: PolyRing) -> "FiniteLengthModule":
        return cls._from_columns(ring, (), {v: [] for v in ring.variables})

    @classmethod
    def semisimple(cls, ring: PolyRing, r: int) -> "FiniteLengthModule":
        """k^r with all variables acting by zero."""
        return cls._from_columns(ring, tuple(f"e{i+1}" for i in range(r)),
                                 {v: [{} for _ in range(r)] for v in ring.variables})

    @classmethod
    def from_cyclic(cls, J: Ideal) -> "FiniteLengthModule":
        """S/J for a finite-colength ideal J, on the standard monomial basis."""
        std = J.standard_monomials()
        if std is None:
            raise ValueError("cyclic quotient has infinite length")
        ring = J.ring
        index = {m: i for i, m in enumerate(std)}
        action = {name: [{index[e]: c for e, c in col.items()}
                         for col in multiplication_columns(x, J, std)]
                  for name, x in zip(ring.variables, ring.gens())}
        labels = tuple("*".join(f"{v}^{e}" for v, e in zip(ring.variables, m) if e) or "1"
                       for m in std)
        return cls._from_columns(ring, labels, action)

    def columns(self, p: Polynomial) -> list:
        """The action of the polynomial p, as sparse columns."""
        if p.ring != self.ring:
            raise ValueError("ambient mismatch")
        fld = self.ring.field
        out = [{} for _ in self.basis]
        for exps, coeff in p.terms.items():
            image = [{j: coeff} for j in range(self.dimension)]
            for name, e in zip(self.ring.variables, exps):
                for _ in range(e):
                    image = [apply_map(self.action[name], c, fld) for c in image]
            for total, c in zip(out, image):
                for i, v in c.items():
                    total[i] = fld.add(total.get(i, fld.zero), v)
        return [{i: v for i, v in c.items() if not fld.is_zero(v)} for c in out]

    def min_gens(self) -> int:
        """dim of M / mM: n minus the rank of all the variables' columns."""
        return self.dimension - mat_rank([c for v in self.ring.variables
                                          for c in self.action[v]], self.ring.field)

    def __repr__(self):
        return f"FiniteLengthModule(dim={self.dimension})"
