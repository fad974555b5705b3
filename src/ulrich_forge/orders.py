"""Monomial orders on exponent vectors.

Grevlex tie-break rule: smaller total degree is smaller; at equal degree
compare the last variable exponents and the LARGER last exponent is the
SMALLER monomial, moving to the next-to-last variable on ties.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

GREVLEX_KEYS = 4096  # exponent vectors whose grevlex keys stay cached


@lru_cache(maxsize=GREVLEX_KEYS)
def _grevlex_key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


@lru_cache(maxsize=GREVLEX_KEYS)
def _grevlex_descending(exps):
    return (-sum(exps), *reversed(exps))


@lru_cache(maxsize=GREVLEX_KEYS)
def _block_descending(exps, split):
    return _grevlex_descending(exps[:split]) + _grevlex_descending(exps[split:])


@dataclass(frozen=True)
class MonomialOrder:
    """Base class; subclasses provide a sort key that realizes the order:
    u < v exactly when key(u) < key(v), the one comparison of monomials."""

    def key(self, exps):
        raise NotImplementedError

    def descending_key(self, exps):
        """A flat tuple of integers that sorts in the opposite order:
        descending_key(u) < descending_key(v) exactly when u > v, so a
        min-heap of these keys pops the largest monomial first."""
        raise NotImplementedError


@dataclass(frozen=True)
class Grevlex(MonomialOrder):
    def key(self, exps):
        return _grevlex_key(exps)

    def descending_key(self, exps):  # (-deg, e_n, ..., e_1)
        return _grevlex_descending(exps)


@dataclass(frozen=True)
class Lex(MonomialOrder):
    def key(self, exps):
        return exps

    def descending_key(self, exps):
        return tuple(-e for e in exps)


@dataclass(frozen=True)
class BlockOrder(MonomialOrder):
    """Elimination order: the first `split` variables dominate the rest.

    Grevlex within each block, so any monomial meeting the first block is
    larger than every monomial supported on the second block only.
    """

    split: int = 1

    def key(self, exps):
        return (_grevlex_key(exps[: self.split]), _grevlex_key(exps[self.split :]))

    def descending_key(self, exps):  # the blocks' grevlex keys, concatenated
        return _block_descending(exps, self.split)


GREVLEX = Grevlex()
LEXICOGRAPHIC = Lex()
