"""Parametric module families and their asymptotic Ulrich analysis.

For a family n -> M_n the table records nu (minimal generators), e
(multiplicity with respect to the maximal ideal, normalized at the ring
dimension 2), the Koszul lengths h0, h1, h2 for the family's parameter pair,
and chi1, together with the ratios e/nu, h1/nu, chi1/nu.

A verdict is "exact" only when every needed sequence is certified by a
finite-difference polynomial fit; otherwise it is finite-index evidence.
Classification: a lim-CM trend needs h1/nu and h2/nu -> 0; a weakly-lim-CM
trend needs chi1/nu -> 0; a lim-Ulrich trend additionally needs e/nu -> 1.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction
from typing import Callable

from .finlen import FiniteLengthModule
from .groebner import Ideal
from .koszul import (
    KoszulTally,
    MonomialModule,
    koszul_finlen,
    koszul_ideal_module,
    koszul_monomial_R,
    monomial_min_gens,
    monomial_saturation,
    quotient_module_length,
    regular_pair_length,
)
from .parse import parse_generator_list, parse_polynomial, read_clauses, split_top_level
from .patterns import fit_polynomial, format_ratio, ratio_limit, value_at
from .poly import Polynomial, PolyRing
from .semigroup import (
    AffineSemigroup,
    minimal_plane_generators,
    multiplicity,
    saturation_exponent,
)


# ---------------------------------------------------------------------------
# module representations
#
# Each kind computes nu() (minimal generators), mult() (multiplicity at the
# ring dimension 2: torsion-free rank-one pieces give e(base ring), free
# pieces their rank, modules of dimension below 2 zero), dimension() (-1 for
# the zero module) and tally(sop) (Koszul lengths of the parameter pair).

class _TorsionFree:
    def dimension(self) -> int:
        return 2


@dataclass(frozen=True)
class FreeModule(_TorsionFree):
    rank: int

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError(f"free module rank must be non-negative, got {self.rank}")

    def nu(self) -> int:
        return self.rank

    def mult(self) -> int:
        return self.rank

    def tally(self, sop) -> KoszulTally:
        """(rank * length of S/(f, g), 0, 0), since the pair is S-regular
        (koszul.regular_pair_length)."""
        return KoszulTally(self.rank * regular_pair_length(*sop), 0, 0)


@dataclass(frozen=True)
class IdealModule(_TorsionFree):
    ideal: Ideal

    def __post_init__(self):
        if self.ideal.is_zero_ideal:
            raise ValueError("zero ideal: use FreeModule")

    def nu(self) -> int:
        """dim J/mJ."""
        J = self.ideal
        m = Ideal(J.ring.gens(), J.order, J.ring)
        return quotient_module_length(J, J.product(m), m)

    def mult(self) -> int:
        return 1

    def tally(self, sop) -> KoszulTally:
        return koszul_ideal_module(*sop, self.ideal)


@dataclass(frozen=True)
class FinLenModule:
    module: FiniteLengthModule

    def nu(self) -> int:
        return self.module.min_gens()

    def mult(self) -> int:
        return 0

    def dimension(self) -> int:
        return 0 if self.module.dimension else -1

    def tally(self, sop) -> KoszulTally:
        return koszul_finlen(self.module, *sop)


@dataclass(frozen=True)
class MonomialRModule(_TorsionFree):
    module: MonomialModule

    def nu(self) -> int:
        return monomial_min_gens(self.module)

    def mult(self) -> int:
        return multiplicity(self.module.ring)

    def tally(self, sop) -> KoszulTally:
        return koszul_monomial_R(self.module, tuple(_mono_exps(p) for p in sop))


@dataclass(frozen=True)
class DirectSum:
    """The direct sum of its parts; with no parts, the zero module."""

    parts: tuple

    def nu(self) -> int:
        return sum(p.nu() for p in self.parts)

    def mult(self) -> int:
        return sum(p.mult() for p in self.parts)

    def dimension(self) -> int:
        return max((p.dimension() for p in self.parts), default=-1)

    def tally(self, sop) -> KoszulTally:
        return sum((p.tally(sop) for p in self.parts), KoszulTally(0, 0, 0))


def direct_sum(*parts):
    """The direct sum of the parts, nested sums flattened all the way down."""
    return DirectSum(tuple(q for p in parts
                           for q in (direct_sum(*p.parts).parts if isinstance(p, DirectSum)
                                     else (p,))))


# rep_nu and rep_tally stay as named entry points because the benchmark's
# tracer (perfbench/tracing.py) wraps sequences.rep_nu and sequences.rep_tally
# by name; its self-check fails without them.

def rep_nu(rep) -> int:
    return rep.nu()


def rep_tally(rep, sop: tuple[Polynomial, Polynomial]) -> KoszulTally:
    return rep.tally(sop)


def _mono_exps(p: Polynomial):
    if len(p.terms) != 1:
        raise ValueError(f"{p} is not a monomial")
    return next(iter(p.terms))


# ---------------------------------------------------------------------------
# families and the analysis table

@dataclass
class SequenceFamily:
    rule: Callable[[int], object]
    sop: tuple[Polynomial, Polynomial]
    index_range: tuple[int, int] = (1, 12)
    base_ring: PolyRing | None = None  # not read here; derived families carry it
    name: str = ""

    def indices(self):
        return range(self.index_range[0], self.index_range[1] + 1)


@dataclass(frozen=True)
class TableRow:
    n: int
    nu: int
    e: int
    h0: int
    h1: int
    h2: int

    @property
    def chi1(self) -> int:
        return self.h1 - self.h2

    @property
    def e_over_nu(self) -> Fraction:
        return Fraction(self.e, self.nu)

    @property
    def h1_over_nu(self) -> Fraction:
        return Fraction(self.h1, self.nu)

    @property
    def chi1_over_nu(self) -> Fraction:
        return Fraction(self.chi1, self.nu)


LIM_CM_TREND = "LIM_CM_TREND"
WEAKLY_LIM_CM_TREND = "WEAKLY_LIM_CM_TREND"
LIM_ULRICH_TREND = "LIM_ULRICH_TREND"
NOT_LIM_CM_EVIDENCE = "NOT_LIM_CM_EVIDENCE"
INCONCLUSIVE_TREND = "INCONCLUSIVE"


@dataclass
class AsymptoticTable:
    rows: list[TableRow]
    limits: dict
    verdict: str
    exact: bool
    formulas: dict
    notes: list = dc_field(default_factory=list)


def analyze(family: SequenceFamily) -> AsymptoticTable:
    if not family.indices():
        raise ValueError(f"empty index range {family.index_range[0]}..{family.index_range[1]}")
    rows: list[TableRow] = []
    for n in family.indices():
        try:
            rep = family.rule(n)
        except Exception as exc:  # noqa: BLE001 - reported as a family failure
            raise ValueError(f"module construction failure at index {n}: {exc}") from exc
        nu = rep_nu(rep)
        if nu <= 0:
            raise ValueError(f"module at index {n} is zero")
        if rep.dimension() != 2:
            raise ValueError(f"module at index {n} does not have dimension 2")
        tally = rep_tally(rep, family.sop)
        rows.append(TableRow(n, nu, rep.mult(), tally.h0, tally.h1, tally.h2))

    start = family.index_range[0]
    fits = {
        key: fit_polynomial([getattr(r, key) for r in rows], start_index=start)
        for key in ("nu", "e", "h1", "h2")
    }
    fits["chi1"] = fit_polynomial([r.chi1 for r in rows], start_index=start)
    exact = all(fits[k] is not None for k in ("nu", "e", "h1", "h2", "chi1"))

    limits = {}
    formulas = {}
    notes = []
    if exact:
        limits["e/nu"] = ratio_limit(fits["e"], fits["nu"])
        limits["h1/nu"] = ratio_limit(fits["h1"], fits["nu"])
        limits["h2/nu"] = ratio_limit(fits["h2"], fits["nu"])
        limits["chi1/nu"] = ratio_limit(fits["chi1"], fits["nu"])
        formulas["e/nu"] = format_ratio(fits["e"], fits["nu"])
        formulas["h1/nu"] = format_ratio(fits["h1"], fits["nu"])
        formulas["chi1/nu"] = format_ratio(fits["chi1"], fits["nu"])
        lim_cm = limits["h1/nu"] == 0 and limits["h2/nu"] == 0
        weakly = limits["chi1/nu"] == 0
        ulrich = limits["e/nu"] == 1
        if lim_cm and ulrich:
            verdict = LIM_ULRICH_TREND
        elif lim_cm:
            verdict = LIM_CM_TREND
        elif weakly:
            verdict = WEAKLY_LIM_CM_TREND
        else:
            verdict = NOT_LIM_CM_EVIDENCE
            notes.append("a certified ratio limit is nonzero")
    else:
        # finite-index evidence only: look at the last few ratios
        tail = rows[-4:]
        def decreasing(key):
            vals = [getattr(r, key) for r in tail]
            return all(a >= b for a, b in zip(vals, vals[1:]))
        if len(tail) >= 2 and decreasing("h1_over_nu") and decreasing("chi1_over_nu"):
            verdict = LIM_CM_TREND if tail[-1].h1_over_nu < Fraction(1, 10) else INCONCLUSIVE_TREND
        else:
            verdict = INCONCLUSIVE_TREND
        notes.append("no exact pattern certificate; finite-index evidence only")
    return AsymptoticTable(rows, limits, verdict, exact, formulas, notes)


# ---------------------------------------------------------------------------
# the equivalence-relation ledger for sequences a_n ~ b_n

@dataclass(frozen=True)
class SimEntry:
    name: str
    a: tuple
    b: tuple
    exact: bool
    limit_zero: bool | None  # None when only finite evidence exists


def sim_judgment(name, a_vals, b_vals, normalizer, start_index=1) -> SimEntry:
    """Judge a_n ~ b_n (difference over the normalizer tends to zero), exactly
    when polynomial fits certify it."""
    diffs = [a - b for a, b in zip(a_vals, b_vals)]
    fit_d = fit_polynomial(diffs, start_index=start_index)
    fit_n = fit_polynomial(list(normalizer), start_index=start_index)
    if fit_d is not None and fit_n is not None:
        lim = ratio_limit(fit_d, fit_n)
        return SimEntry(name, tuple(a_vals), tuple(b_vals), True, lim == 0)
    tail = [Fraction(d, n) for d, n in zip(diffs[-4:], list(normalizer)[-4:])]
    guess = all(abs(x) >= abs(y) for x, y in zip(tail, tail[1:])) if len(tail) > 1 else None
    return SimEntry(name, tuple(a_vals), tuple(b_vals), False, guess)


@dataclass
class EquivRelationLedger:
    entries: list
    identities: list  # (name, ok_for_every_index)

    def entry(self, name):
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)


# ---------------------------------------------------------------------------
# torsion reduction and saturation transfers

def _derived_family(family: SequenceFamily, reps: dict, suffix: str, unnamed: str):
    """The family n -> reps[n] over the same pair and index range, named
    after the original with the suffix, or `unnamed` when it has no name."""
    return replace(family, rule=reps.__getitem__,
                   name=f"{family.name}{suffix}" if family.name else unnamed)


def torsion_reduce(family: SequenceFamily):
    """Strip the explicit finite-length summands C_n from a family given in
    the split shape C_n (+) torsion-free part, recording the bookkeeping that
    transfers the asymptotics to the reduced family."""
    start = family.index_range[0]
    nu_M, nu_Mbar, nu_C = [], [], []
    h0_M, h0_Mbar = [], []
    chi1_M, chi1_C, h0_C, h1_Mbar = [], [], [], []
    reduced_reps = {}
    for n in family.indices():
        rep = family.rule(n)
        parts = direct_sum(rep).parts
        torsion = tuple(p for p in parts if isinstance(p, FinLenModule))
        rest = tuple(p for p in parts if not isinstance(p, FinLenModule))
        if not rest:
            raise ValueError(f"index {n}: reduced module would be zero")
        reduced = rest[0] if len(rest) == 1 else DirectSum(rest)
        reduced_reps[n] = reduced
        c_rep = DirectSum(torsion)
        # M = C (+) reduced, and both the tally and nu are additive
        t_C = rep_tally(c_rep, family.sop)
        t_bar = rep_tally(reduced, family.sop)
        t_M = t_C + t_bar
        nu_Mbar.append(rep_nu(reduced))
        nu_C.append(rep_nu(c_rep))
        nu_M.append(nu_C[-1] + nu_Mbar[-1])
        h0_M.append(t_M.h0)
        h0_Mbar.append(t_bar.h0)
        chi1_M.append(t_M.chi1)
        chi1_C.append(t_C.chi1)
        h0_C.append(t_C.h0)
        h1_Mbar.append(t_bar.h1)

    identities = [
        ("chi1(C) == h0(C)", all(a == b for a, b in zip(chi1_C, h0_C))),
        ("h1(reduced) == chi1(M) - (h0(M) - h0(reduced))",
         all(h1 == c1 - (hm - hb)
             for h1, c1, hm, hb in zip(h1_Mbar, chi1_M, h0_M, h0_Mbar))),
    ]
    ledger = EquivRelationLedger(
        entries=[
            sim_judgment("nu(M) ~ nu(reduced)", nu_M, nu_Mbar, nu_M, start),
            sim_judgment("nu(C) ~ 0", nu_C, [0] * len(nu_C), nu_M, start),
            sim_judgment("chi1(C) ~ 0", chi1_C, [0] * len(chi1_C), nu_M, start),
        ],
        identities=identities,
    )
    return _derived_family(family, reduced_reps, "/torsion-free", "torsion-free part"), ledger


def saturate_over_S(family: SequenceFamily, R: AffineSemigroup):
    """Replace each torsion-free monomial module M_n over R by its S-span
    M_n S, recording: len(M_n S / M_n) <= h1(x^t, y^t; M_n) for the saturation
    exponent t of R, the nu transfer, and the S-side data."""
    start = family.index_range[0]
    sx, sy = (_mono_exps(p) for p in family.sop)
    t = saturation_exponent(R)
    u1 = tuple(t * e for e in sx)
    u2 = tuple(t * e for e in sy)

    q_lengths, h1_bounds = [], []
    nu_R_M, nu_R_MS, nu_S_MS = [], [], []
    saturated_reps = {}
    bound_ok = []
    nu_R_S = len(minimal_plane_generators(R))  # minimal by its own proof
    for n in family.indices():
        rep = family.rule(n)
        if not isinstance(rep, MonomialRModule):
            raise ValueError("saturation expects a family of monomial modules")
        M = rep.module
        if M.ring != R:
            raise ValueError("family module not over the given subring")
        MS, q_points = monomial_saturation(M)
        saturated_reps[n] = MonomialRModule(MS)
        q_lengths.append(len(q_points))
        h1_bounds.append(koszul_monomial_R(M, (u1, u2)).h1)
        nu_R_M.append(monomial_min_gens(M))
        nu_R_MS.append(monomial_min_gens(MonomialModule(R, MS.gens)))
        nu_S_MS.append(monomial_min_gens(MS))
        bound_ok.append(nu_R_MS[-1] <= nu_R_S * nu_S_MS[-1])

    identities = [
        ("len(Q) <= h1(x^t, y^t; M)", all(q <= h for q, h in zip(q_lengths, h1_bounds))),
        ("nu_R(MS) <= nu_R(S) * nu_S(MS)", all(bound_ok)),
    ]
    ledger = EquivRelationLedger(
        entries=[
            sim_judgment("nu_R(M) ~ nu_R(MS)", nu_R_M, nu_R_MS, nu_R_M, start),
            sim_judgment("len(Q) ~ 0", q_lengths, [0] * len(q_lengths), nu_R_M, start),
        ],
        identities=identities,
    )
    return _derived_family(family, saturated_reps, "*S", "saturated family"), ledger


# ---------------------------------------------------------------------------
# family descriptions for the command line

def parse_family_spec(spec: str, ring: PolyRing, index_range=(1, 12)) -> SequenceFamily:
    """Built-in families:  ``freeplus ideal=(x,y) growth=n``,
    ``powers ideal=(x,y^n)``, ``free growth=n``.  The token n in values is the
    family index; each kind takes only the keys shown, read by
    `parse.read_clauses`."""
    words = split_top_level(spec)
    if words and spec[slice(*words[0])] == "family":
        words = words[1:]
    if not words:
        raise ValueError("empty family spec")
    name = spec[slice(*words[0])]
    keys = {"freeplus": ("ideal", "growth"), "powers": ("ideal",), "free": ("growth",)}
    if name not in keys:
        raise ValueError(f"unknown family {name!r}")
    args = read_clauses(spec, words[0][1], len(spec), dict.fromkeys(keys[name], ""),
                        f"family {name!r}: argument")
    if name != "free" and "ideal" not in args:
        raise ValueError(f"family {name!r}: missing key 'ideal'")
    sop = (ring.var(ring.variables[0]), ring.var(ring.variables[1]))
    ring_n = PolyRing(("n",), ring.field)
    text, span = (spec, args["growth"]) if "growth" in args else ("n", (0, 1))
    expr, growth = text[slice(*span)], parse_polynomial(text, ring_n, *span)

    def growth_at(n: int) -> int:
        value = value_at(growth, n)
        if value != int(value):
            raise ValueError(f"growth {expr} is not an integer at n={n}")
        return int(value)

    def ideal_at(n: int) -> Ideal:
        return Ideal(parse_generator_list(spec, ring, *args["ideal"], values={"n": n}))

    if name == "freeplus":
        rule = lambda n: direct_sum(FreeModule(growth_at(n)), IdealModule(ideal_at(n)))
    elif name == "powers":
        rule = lambda n: IdealModule(ideal_at(n))
    else:
        rule = lambda n: FreeModule(growth_at(n))
    return SequenceFamily(rule=rule, sop=sop, index_range=index_range,
                          base_ring=ring, name=spec)
