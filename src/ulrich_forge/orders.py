"""Monomial orders on exponent vectors.

Grevlex tie-break rule: smaller total degree is smaller; at equal degree
compare the last variable exponents and the LARGER last exponent is the
SMALLER monomial, moving to the next-to-last variable on ties.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

LT, EQ, GT = -1, 0, 1


@lru_cache(maxsize=None)
def _grevlex_key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


@dataclass(frozen=True)
class MonomialOrder:
    """Base class; subclasses provide a sort key that realizes the order."""

    def key(self, exps):
        raise NotImplementedError

    def compare(self, u, v) -> int:
        if len(u) != len(v):
            raise ValueError(f"exponent vectors of different dimension: {u} vs {v}")
        ku, kv = self.key(u), self.key(v)
        if ku < kv:
            return LT
        if ku > kv:
            return GT
        return EQ


@dataclass(frozen=True)
class Grevlex(MonomialOrder):
    kind = "grevlex"

    def key(self, exps):
        return _grevlex_key(exps)


@dataclass(frozen=True)
class Lex(MonomialOrder):
    kind = "lex"

    def key(self, exps):
        return exps


@dataclass(frozen=True)
class BlockOrder(MonomialOrder):
    """Elimination order: the first `split` variables dominate the rest.

    Grevlex within each block, so any monomial meeting the first block is
    larger than every monomial supported on the second block only.
    """

    split: int = 1
    kind = "elimination"

    def key(self, exps):
        return (_grevlex_key(exps[: self.split]), _grevlex_key(exps[self.split :]))


GREVLEX = Grevlex()
LEXICOGRAPHIC = Lex()


def elimination_order(split: int) -> BlockOrder:
    return BlockOrder(split=split)


def compare_monomials(u, v, order: MonomialOrder) -> int:
    """Compare exponent vectors; returns LT, EQ, or GT."""
    return order.compare(u, v)
