"""Explicit finite-length modules: a k-basis plus one commuting nilpotent
action matrix per ambient variable.  Koszul homology of these is plain exact
linear algebra."""
from __future__ import annotations

from .groebner import Ideal
from .linalg import identity, is_zero_matrix, mat_mul, mat_rank, zero_matrix
from .poly import Polynomial, PolyRing


class FiniteLengthModule:
    """Column convention: action[v][i][j] is the coefficient of basis[i] in
    v * basis[j]."""

    __slots__ = ("ring", "basis", "action")

    def __init__(self, ring: PolyRing, basis, action: dict):
        self.ring = ring
        self.basis = tuple(basis)
        n = len(self.basis)
        acts = {}
        for name in ring.variables:
            m = action.get(name)
            if m is None:
                raise ValueError(f"missing action matrix for {name}")
            m = tuple(tuple(row) for row in m)
            if len(m) != n or any(len(row) != n for row in m):
                raise ValueError(f"action matrix for {name} must be {n}x{n}")
            acts[name] = m
        self.action = acts
        self._validate()

    def _validate(self):
        fld = self.ring.field
        mats = [self.action[v] for v in self.ring.variables]
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                ab = mat_mul(mats[i], mats[j], fld)
                ba = mat_mul(mats[j], mats[i], fld)
                if ab != ba:
                    raise ValueError("action matrices do not commute")
        n = len(self.basis)
        for v, m in zip(self.ring.variables, mats):
            power = m
            for _ in range(n):
                if is_zero_matrix(power, fld):
                    break
                power = mat_mul(power, m, fld)
            else:
                if n and not is_zero_matrix(power, fld):
                    raise ValueError(f"action of {v} is not nilpotent")

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @classmethod
    def zero(cls, ring: PolyRing) -> "FiniteLengthModule":
        return cls(ring, (), {v: () for v in ring.variables})

    @classmethod
    def semisimple(cls, ring: PolyRing, r: int) -> "FiniteLengthModule":
        """k^r with all variables acting by zero."""
        fld = ring.field
        z = zero_matrix(r, r, fld)
        return cls(ring, tuple(f"e{i+1}" for i in range(r)), {v: z for v in ring.variables})

    @classmethod
    def from_cyclic(cls, J: Ideal) -> "FiniteLengthModule":
        """S/J for a finite-colength ideal J, on the standard monomial basis."""
        std = J.standard_monomials()
        if std is None:
            raise ValueError("cyclic quotient has infinite length")
        ring = J.ring
        fld = ring.field
        index = {m: i for i, m in enumerate(std)}
        action = {}
        for vi, name in enumerate(ring.variables):
            mat = [[fld.zero] * len(std) for _ in range(len(std))]
            for j, mono in enumerate(std):
                shifted = tuple(e + (1 if t == vi else 0) for t, e in enumerate(mono))
                nf = J.normal_form(ring.monomial(shifted))
                for exps, coeff in nf.terms.items():
                    mat[index[exps]][j] = coeff
            action[name] = mat
        labels = tuple("*".join(f"{v}^{e}" for v, e in zip(ring.variables, m) if e) or "1"
                       for m in std)
        return cls(ring, labels, action)

    def evaluate(self, p: Polynomial):
        """The matrix by which the polynomial p acts."""
        if p.ring != self.ring:
            raise ValueError("ambient mismatch")
        fld = self.ring.field
        n = self.dimension
        out = zero_matrix(n, n, fld)
        for exps, coeff in p.terms.items():
            term = identity(n, fld)
            for name, e in zip(self.ring.variables, exps):
                for _ in range(e):
                    term = mat_mul(term, self.action[name], fld)
            for i in range(n):
                for j in range(n):
                    out[i][j] = fld.add(out[i][j], fld.mul(coeff, term[i][j]))
        return out

    def min_gens(self) -> int:
        """dim of M / mM: corank of the stacked variable actions."""
        fld = self.ring.field
        n = self.dimension
        if n == 0:
            return 0
        stacked = [sum((list(self.action[v][i]) for v in self.ring.variables), [])
                   for i in range(n)]
        return n - mat_rank(stacked, fld)

    def __repr__(self):
        return f"FiniteLengthModule(dim={self.dimension})"
