"""Affine semigroup models of monomial subrings R of k[x1..xd]: membership
with certificates, gap sets, order filtration, Hilbert-Samuel function,
multiplicity, minimal generator counts, and the single face localization the
shipped examples need.

A point v of N^d stands for the monomial with exponent vector v; the semigroup
is the set of monomial exponents lying in R.  The gap set is N^d minus the
semigroup; a finite gap set certifies that S/R has finite length.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .patterns import InconclusiveError, stabilized_difference


class GapsNotFinite(ValueError):
    pass


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
    """ord(v) for every member v of degree <= bound, grown on demand."""

    def __init__(self, G: AffineSemigroup):
        self.G = G
        self.ords = {(0,) * G.dim: 0}
        self.bound = 0

    def upto(self, bound: int) -> dict:
        G, ords = self.G, self.ords
        origin = (0,) * G.dim
        for s in range(self.bound + 1, bound + 1):
            for v in lattice_shell(s, origin):
                # v - g with a negative coordinate is never a key
                below = [ords[w] for w in (tuple(a - b for a, b in zip(v, g))
                                           for g in G.generators) if w in ords]
                if below:
                    ords[v] = 1 + max(below)
            self.bound = s
        return ords


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
    """The finite gap set, certified by a full member shell.

    If every lattice point with degree in [bound - maxgen, bound] is a member,
    all points above the shell are members too (peel one generator off a
    decomposition of a degree-reduced neighbor), so the non-members below the
    shell are the whole gap set.  Otherwise None.
    """
    maxgen = G.max_generator_degree
    if bound < maxgen:
        raise ValueError(f"bound {bound} below max generator degree {maxgen}")
    members = _points(G, bound)
    origin = (0,) * G.dim
    for s in range(bound - maxgen, bound + 1):
        for v in lattice_shell(s, origin):
            if v not in members:
                return None
    gaps = []
    for s in range(bound - maxgen):
        for v in lattice_shell(s, origin):
            if v not in members:
                gaps.append(v)
    return frozenset(gaps)


def gap_set_auto(G: AffineSemigroup, start: int | None = None, cap: int = 80):
    """gap_set with an escalating bound; raises GapsNotFinite at the cap."""
    bound = start if start is not None else 2 * G.max_generator_degree + 2
    while bound <= cap:
        gaps = gap_set(G, bound)
        if gaps is not None:
            return gaps
        bound *= 2
    raise GapsNotFinite(f"no finite gap set within degree bound {cap}")


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


@lru_cache(maxsize=None)
def multiplicity(G: AffineSemigroup, t_cap: int = 40, window: int = 3) -> int:
    """Multiplicity of a 2-dimensional finite-colength monomial subring, as
    the stabilized second difference of the Hilbert-Samuel function."""
    if G.dim != 2:
        raise ValueError("multiplicity is implemented for dim 2 semigroups")
    gap_set_auto(G)  # certifies the finite-colength hypothesis
    values: list[int] = []
    for t in range(1, t_cap + 1):
        values.append(hilbert_samuel(G, t))
        e = stabilized_difference(values, 2, window)
        if e is not None:
            return e
    raise InconclusiveError("Hilbert-Samuel second differences did not stabilize",
                            table=values)


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


def localize_at_face(G: AffineSemigroup, face: str = "s") -> LocalizationResult:
    """Invert the first variable of a homogeneous 3-dimensional semigroup.

    Each generator s^a x^b y^c becomes (x/s)^b (y/s)^c up to a unit, so the
    image generator is (b, c); generators with b = c = 0 become units and are
    discarded.  Requires all generators to share one total degree, which makes
    the unit identification exact.
    """
    if face != "s":
        raise ValueError("only the first-variable face is supported")
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


def homogeneous_hilbert_samuel(G: AffineSemigroup, t: int) -> int:
    """Hilbert-Samuel value for a semigroup whose generators share one total
    degree h: ord(v) = deg(v)/h exactly, so the count is over degrees < t*h."""
    degrees = {sum(g) for g in G.generators}
    if len(degrees) != 1:
        raise ValueError("requires equal-degree generators")
    h = degrees.pop()
    if t == 0:
        return 0
    bound = t * h - 1
    return sum(1 for v in _points(G, bound) if sum(v) <= bound)


def homogeneous_multiplicity(G: AffineSemigroup, t_cap: int = 24, window: int = 3):
    """Multiplicity via stabilized dim-th differences of the homogeneous
    Hilbert-Samuel function; returns (value, table)."""
    values: list[int] = []
    for t in range(1, t_cap + 1):
        values.append(homogeneous_hilbert_samuel(G, t))
        e = stabilized_difference(values, G.dim, window)
        if e is not None:
            return e, values
    raise InconclusiveError("Hilbert-Samuel differences did not stabilize", table=values)


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
