"""Affine semigroup models of monomial subrings R of k[x1..xd]: membership
with certificates, gap sets, order filtration, Hilbert-Samuel function,
multiplicity, minimal generator counts, and the single face localization the
shipped examples need.

A point v of N^d stands for the monomial with exponent vector v; the semigroup
is the set of monomial exponents lying in R.  The gap set is N^d minus the
semigroup; a finite gap set certifies that S/R has finite length.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .patterns import InconclusiveError, stabilize

# Degree up to which gap_set_auto scans for a certified gap set.
GAP_DEGREE_CAP = 80


@dataclass(frozen=True)
class AffineSemigroup:
    dim: int
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        gens = []
        for g in self.generators:
            g = tuple(g)
            if len(g) != self.dim:
                raise ValueError(f"generator {g} has wrong dimension")
            if any(e < 0 for e in g):
                raise ValueError(f"generator {g} has a negative exponent")
            if all(e == 0 for e in g):
                raise ValueError("zero generator not allowed")
            gens.append(g)
        object.__setattr__(self, "generators", tuple(sorted(set(gens))))
        if not self.generators:
            raise ValueError("at least one generator required")

    @property
    def max_generator_degree(self) -> int:
        return max(sum(g) for g in self.generators)

    def __repr__(self):
        gens = ",".join(str(g) for g in self.generators)
        return f"AffineSemigroup(dim={self.dim}, {{{gens}}})"


FULL_PLANE = AffineSemigroup(2, ((1, 0), (0, 1)))


@dataclass(frozen=True)
class MembershipWitness:
    member: bool
    decomposition: tuple[tuple[int, ...], ...] | None


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


POINT_TABLES = 64  # semigroups whose point tables stay cached


class _PointTable:
    """ord(v) for every member v of degree <= bound, grown one shell at a
    time.  The growth also scans for the gap set: once maxgen + 1 shells in a
    row are full, every point above them is a member (a point one degree
    higher dominates a nonzero member, hence some generator g, and v - g lies
    in the full shells), so the non-members below them are all the gaps."""

    def __init__(self, G: AffineSemigroup):
        self.G = G
        self.ords = {(0,) * G.dim: 0}
        self.bound = 0
        self.full_run = 1  # full shells in a row ending at bound
        self.gaps = None  # the gap set, once certified
        self.certified_at = None  # degree of the shell that completed the run

    def _grow(self):
        G, ords = self.G, self.ords
        s = self.bound + 1
        origin = (0,) * G.dim
        full = True
        for v in lattice_shell(s, origin):
            # v - g with a negative coordinate is never a key
            below = [ords[w] for w in (tuple(a - b for a, b in zip(v, g))
                                       for g in G.generators) if w in ords]
            if below:
                ords[v] = 1 + max(below)
            else:
                full = False
        self.bound = s
        self.full_run = self.full_run + 1 if full else 0
        if self.gaps is None and self.full_run > G.max_generator_degree:
            self.gaps = frozenset(v for d in range(s - G.max_generator_degree)
                                  for v in lattice_shell(d, origin) if v not in ords)
            self.certified_at = s

    def upto(self, bound: int) -> dict:
        while self.bound < bound:
            self._grow()
        return self.ords

    def gaps_within(self, bound: int):
        """The gap set if its certificate ends at degree <= bound, else None;
        grows the table no further than the certificate needs."""
        while self.gaps is None and self.bound < bound:
            self._grow()
        if self.gaps is not None and self.certified_at <= bound:
            return self.gaps
        return None


@lru_cache(maxsize=POINT_TABLES)
def _member_set(G: AffineSemigroup) -> _PointTable:
    return _PointTable(G)


# perfbench/tracing.py reads cache_info() under both historical names.
_ord_table = _member_set


def _points(G: AffineSemigroup, bound: int) -> dict:
    """The point table of G, covering at least every degree <= bound."""
    return _member_set(G).upto(bound)


def sg_member(G: AffineSemigroup, v) -> MembershipWitness:
    """Decide membership, exhibiting a generator decomposition when true.

    Decompositions have at most deg(v) parts since every generator is nonzero,
    so the bounded search is exhaustive.
    """
    v = tuple(v)
    if len(v) != G.dim:
        raise ValueError(f"point {v} has wrong dimension")
    if any(e < 0 for e in v):
        return MembershipWitness(False, None)
    members = _points(G, sum(v))
    if v not in members:
        return MembershipWitness(False, None)
    decomposition = []
    current = v
    while any(current):
        for g in G.generators:
            rest = tuple(a - b for a, b in zip(current, g))
            if rest in members:
                decomposition.append(g)
                current = rest
                break
        else:
            raise AssertionError("member without decomposition step")
    return MembershipWitness(True, tuple(decomposition))


def gap_set(G: AffineSemigroup, bound: int):
    """The finite gap set, certified by maxgen + 1 full member shells ending
    at degree <= bound (that is, every point of degree in
    [bound - maxgen, bound] is a member); otherwise None."""
    maxgen = G.max_generator_degree
    if bound < maxgen:
        raise ValueError(f"bound {bound} below max generator degree {maxgen}")
    return _member_set(G).gaps_within(bound)


def gap_set_auto(G: AffineSemigroup):
    """The finite gap set; raises InconclusiveError when no certificate ends
    at degree <= GAP_DEGREE_CAP."""
    gaps = _member_set(G).gaps_within(GAP_DEGREE_CAP)
    if gaps is None:
        raise InconclusiveError(
            f"no finite gap set within degree GAP_DEGREE_CAP={GAP_DEGREE_CAP}")
    return gaps


def ord_of(G: AffineSemigroup, v) -> int:
    witness = sg_member(G, v)
    if not witness.member:
        raise ValueError(f"{v} is not in the semigroup")
    return _points(G, sum(v))[tuple(v)]


def hilbert_samuel(G: AffineSemigroup, t: int) -> int:
    """Length of R modulo the t-th power of its maximal ideal: the number of
    semigroup points of order below t, all of degree below t*maxgen."""
    if t < 0:
        raise ValueError("t must be non-negative")
    if t == 0:
        return 0
    ords = _points(G, t * G.max_generator_degree - 1)
    return sum(1 for o in ords.values() if o < t)


@lru_cache(maxsize=POINT_TABLES)
def multiplicity(G: AffineSemigroup) -> int:
    """Multiplicity of a 2-dimensional finite-colength monomial subring, as
    the stabilized second difference of the Hilbert-Samuel function."""
    if G.dim != 2:
        raise ValueError("multiplicity is implemented for dim 2 semigroups")
    gap_set_auto(G)  # certifies the finite-colength hypothesis
    return stabilize((hilbert_samuel(G, t) for t in itertools.count(1)), 2,
                     "Hilbert-Samuel second differences did not stabilize")[0]


def nu_max_ideal(G: AffineSemigroup) -> int:
    """Minimal number of monomial generators: semigroup elements of order
    exactly one.  Such elements are irreducible, hence among the listed
    generators."""
    ords = _points(G, G.max_generator_degree)
    return sum(1 for g in G.generators if ords.get(g) == 1)


@dataclass(frozen=True)
class LocalizationResult:
    semigroup: AffineSemigroup
    inverted_units: tuple[tuple[int, ...], ...]


def localize_at_face(G: AffineSemigroup) -> LocalizationResult:
    """Invert the first variable of a homogeneous 3-dimensional semigroup.

    Each generator s^a x^b y^c becomes (x/s)^b (y/s)^c up to a unit, so the
    image generator is (b, c); generators with b = c = 0 become units and are
    discarded.  Requires all generators to share one total degree, which makes
    the unit identification exact.
    """
    if G.dim != 3:
        raise ValueError("face localization expects a 3-dimensional semigroup")
    degrees = {sum(g) for g in G.generators}
    if len(degrees) != 1:
        raise ValueError("face localization requires equal-degree generators")
    images = []
    units = []
    for g in G.generators:
        b, c = g[1], g[2]
        if b == 0 and c == 0:
            units.append(g)
        else:
            images.append((b, c))
    if not images:
        raise ValueError("all generators become units")
    return LocalizationResult(AffineSemigroup(2, tuple(images)), tuple(units))


def homogeneous_multiplicity(G: AffineSemigroup):
    """Multiplicity of a semigroup whose generators share one total degree,
    via stabilized dim-th differences of the Hilbert-Samuel function;
    returns (value, table)."""
    if len({sum(g) for g in G.generators}) != 1:
        raise ValueError("requires equal-degree generators")
    return stabilize((hilbert_samuel(G, t) for t in itertools.count(1)), G.dim,
                     "Hilbert-Samuel differences did not stabilize")


def minimal_plane_generators(G: AffineSemigroup):
    """Minimal generators of the full plane N^2 as a module over G."""
    gaps = gap_set_auto(G)
    reach = max((sum(g) for g in gaps), default=0) + G.max_generator_degree
    return tuple(w for s in range(reach + 1) for w in lattice_shell(s, (0, 0))
                 if not any(all(a >= b for a, b in zip(w, g)) for g in G.generators))


def saturation_exponent(G: AffineSemigroup) -> int:
    """Least t with m_R^t * S inside R: no semigroup element of order >= t may
    sit componentwise below a gap."""
    gaps = gap_set_auto(G)
    if not gaps:
        return 1
    worst = 0
    ords = _points(G, max(sum(g) for g in gaps))
    for v, o in ords.items():
        if any(all(a <= b for a, b in zip(v, gap)) for gap in gaps):
            worst = max(worst, o)
    return worst + 1
