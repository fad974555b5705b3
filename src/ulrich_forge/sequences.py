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

import re
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Callable

from .finlen import FiniteLengthModule
from .groebner import Ideal
from .koszul import (
    KoszulTally,
    MonomialModule,
    koszul_cyclic,
    koszul_finlen,
    koszul_ideal_module,
    koszul_monomial_R,
    monomial_min_gens,
    monomial_saturation,
)
from .parse import parse_generator_list, parse_polynomial
from .patterns import fit_polynomial, format_ratio, ratio_limit
from .poly import Polynomial, PolyRing
from .semigroup import AffineSemigroup, multiplicity, saturation_exponent


# ---------------------------------------------------------------------------
# module representations

@dataclass(frozen=True)
class FreeModule:
    rank: int


@dataclass(frozen=True)
class CyclicModule:
    ideal: Ideal


@dataclass(frozen=True)
class IdealModule:
    ideal: Ideal

    def __post_init__(self):
        if self.ideal.is_zero_ideal:
            raise ValueError("zero ideal: use FreeModule")


@dataclass(frozen=True)
class FinLenModule:
    module: FiniteLengthModule


@dataclass(frozen=True)
class MonomialRModule:
    module: MonomialModule


@dataclass(frozen=True)
class DirectSum:
    parts: tuple


def direct_sum(*parts):
    flat = []
    for p in parts:
        if isinstance(p, DirectSum):
            flat.extend(p.parts)
        else:
            flat.append(p)
    return DirectSum(tuple(flat))


def rep_nu(rep, ring: PolyRing) -> int:
    """Minimal number of generators."""
    if isinstance(rep, FreeModule):
        return rep.rank
    if isinstance(rep, CyclicModule):
        return 0 if rep.ideal.is_unit_ideal else 1
    if isinstance(rep, IdealModule):
        x, y = ring.gens()
        return koszul_ideal_module(x, y, rep.ideal).h0
    if isinstance(rep, FinLenModule):
        return rep.module.min_gens()
    if isinstance(rep, MonomialRModule):
        return monomial_min_gens(rep.module)
    if isinstance(rep, DirectSum):
        return sum(rep_nu(p, ring) for p in rep.parts)
    raise TypeError(f"unknown module representation {rep!r}")


def rep_mult(rep, ring: PolyRing) -> int:
    """Multiplicity normalized at the ring dimension: torsion-free rank-one
    pieces contribute e(base ring), free pieces their rank, and modules of
    dimension below 2 contribute zero."""
    if isinstance(rep, FreeModule):
        return rep.rank
    if isinstance(rep, CyclicModule):
        return 1 if rep.ideal.is_zero_ideal else 0
    if isinstance(rep, IdealModule):
        return 1
    if isinstance(rep, FinLenModule):
        return 0
    if isinstance(rep, MonomialRModule):
        return multiplicity(rep.module.ring)
    if isinstance(rep, DirectSum):
        return sum(rep_mult(p, ring) for p in rep.parts)
    raise TypeError(f"unknown module representation {rep!r}")


def rep_tally(rep, sop: tuple[Polynomial, Polynomial]) -> KoszulTally:
    f, g = sop
    if isinstance(rep, FreeModule):
        h0 = Ideal([f, g]).colength()
        if h0 is None:
            raise ValueError("parameter pair not primary to the origin")
        return KoszulTally(rep.rank * h0, 0, 0)
    if isinstance(rep, CyclicModule):
        return koszul_cyclic(f, g, rep.ideal)
    if isinstance(rep, IdealModule):
        return koszul_ideal_module(f, g, rep.ideal)
    if isinstance(rep, FinLenModule):
        return koszul_finlen(rep.module, f, g)
    if isinstance(rep, MonomialRModule):
        return koszul_monomial_R(rep.module, (_mono_exps(f), _mono_exps(g)))
    if isinstance(rep, DirectSum):
        return sum((rep_tally(p, sop) for p in rep.parts), KoszulTally(0, 0, 0))
    raise TypeError(f"unknown module representation {rep!r}")


def rep_dimension(rep) -> int:
    if isinstance(rep, (FreeModule, IdealModule, MonomialRModule)):
        return 2
    if isinstance(rep, CyclicModule):
        if rep.ideal.is_unit_ideal:
            return -1
        return rep.ideal.quotient_dimension()
    if isinstance(rep, FinLenModule):
        return 0 if rep.module.dimension else -1
    if isinstance(rep, DirectSum):
        return max(rep_dimension(p) for p in rep.parts)
    raise TypeError(f"unknown module representation {rep!r}")


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
    base_ring: PolyRing | None = None
    name: str = ""

    def indices(self):
        return range(self.index_range[0], self.index_range[1] + 1)

    def ring(self) -> PolyRing:
        return self.base_ring if self.base_ring is not None else self.sop[0].ring


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
    fits: dict
    limits: dict
    verdict: str
    exact: bool
    formulas: dict
    notes: list = dc_field(default_factory=list)


def analyze(family: SequenceFamily) -> AsymptoticTable:
    if not family.indices():
        raise ValueError(f"empty index range {family.index_range[0]}..{family.index_range[1]}")
    ring = family.ring()
    rows: list[TableRow] = []
    for n in family.indices():
        try:
            rep = family.rule(n)
        except Exception as exc:  # noqa: BLE001 - reported as a family failure
            raise ValueError(f"module construction failure at index {n}: {exc}") from exc
        nu = rep_nu(rep, ring)
        if nu <= 0:
            raise ValueError(f"module at index {n} is zero")
        if rep_dimension(rep) != 2:
            raise ValueError(f"module at index {n} does not have dimension 2")
        tally = rep_tally(rep, family.sop)
        rows.append(TableRow(n, nu, rep_mult(rep, ring), tally.h0, tally.h1, tally.h2))

    start = family.index_range[0]
    fits = {
        key: fit_polynomial([getattr(r, key) for r in rows], start_index=start)
        for key in ("nu", "e", "h0", "h1", "h2")
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
    return AsymptoticTable(rows, fits, limits, verdict, exact, formulas, notes)


def resolution_ranks(J: Ideal) -> tuple[int, int]:
    """Ranks (a, b) of the minimal free resolution 0 -> S^b -> S^a -> J -> 0
    of a nonzero ideal over the two-variable ambient ring; always b = a - 1."""
    if J.is_zero_ideal:
        raise ValueError("zero ideal has no ideal-module resolution")
    ring = J.ring
    x, y = ring.gens()
    tally = koszul_ideal_module(x, y, J)
    a, b = tally.h0, tally.h1
    if b != a - 1:
        raise AssertionError("resolution rank bookkeeping failed: b != a - 1")
    return a, b


# ---------------------------------------------------------------------------
# the equivalence-relation ledger for sequences a_n ~ b_n

@dataclass(frozen=True)
class SimEntry:
    name: str
    a: tuple
    b: tuple
    normalizer: tuple
    exact: bool
    limit_zero: bool | None  # None when only finite evidence exists

    @property
    def holds(self) -> bool:
        return bool(self.limit_zero)


def sim_judgment(name, a_vals, b_vals, normalizer, start_index=1) -> SimEntry:
    """Judge a_n ~ b_n (difference over the normalizer tends to zero), exactly
    when polynomial fits certify it."""
    diffs = [a - b for a, b in zip(a_vals, b_vals)]
    fit_d = fit_polynomial(diffs, start_index=start_index)
    fit_n = fit_polynomial(list(normalizer), start_index=start_index)
    if fit_d is not None and fit_n is not None:
        lim = ratio_limit(fit_d, fit_n)
        return SimEntry(name, tuple(a_vals), tuple(b_vals), tuple(normalizer),
                        True, lim == 0)
    tail = [Fraction(d, n) for d, n in zip(diffs[-4:], list(normalizer)[-4:])]
    guess = all(abs(x) >= abs(y) for x, y in zip(tail, tail[1:])) if len(tail) > 1 else None
    return SimEntry(name, tuple(a_vals), tuple(b_vals), tuple(normalizer), False, guess)


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

_TORSION_FREE_KINDS = (FreeModule, IdealModule, MonomialRModule)


def torsion_reduce(family: SequenceFamily):
    """Strip the explicit finite-length summands C_n from a family given in
    the split shape C_n (+) torsion-free part, recording the bookkeeping that
    transfers the asymptotics to the reduced family."""
    ring = family.ring()
    start = family.index_range[0]
    nu_M, nu_Mbar, nu_C = [], [], []
    h0_M, h0_Mbar = [], []
    chi1_M, chi1_C, h0_C, h1_Mbar = [], [], [], []
    reduced_reps = {}
    for n in family.indices():
        rep = family.rule(n)
        parts = rep.parts if isinstance(rep, DirectSum) else (rep,)
        torsion = tuple(p for p in parts if isinstance(p, FinLenModule))
        rest = tuple(p for p in parts if not isinstance(p, FinLenModule))
        if not rest:
            raise ValueError(f"index {n}: reduced module would be zero")
        for p in rest:
            if not isinstance(p, _TORSION_FREE_KINDS):
                raise ValueError(
                    f"index {n}: part {p!r} is not in the decidable split shape"
                )
        reduced = rest[0] if len(rest) == 1 else DirectSum(rest)
        reduced_reps[n] = reduced
        c_rep = (FinLenModule(FiniteLengthModule.zero(ring)) if not torsion
                 else (torsion[0] if len(torsion) == 1 else DirectSum(torsion)))
        # M = C (+) reduced, and both the tally and nu are additive
        t_C = rep_tally(c_rep, family.sop)
        t_bar = rep_tally(reduced, family.sop)
        t_M = t_C + t_bar
        nu_Mbar.append(rep_nu(reduced, ring))
        nu_C.append(rep_nu(c_rep, ring))
        nu_M.append(nu_C[-1] + nu_Mbar[-1])
        h0_M.append(t_M.h0)
        h0_Mbar.append(t_bar.h0)
        chi1_M.append(t_M.chi1)
        chi1_C.append(t_C.chi1)
        h0_C.append(t_C.h0)
        h1_Mbar.append(t_bar.h1)

    identities = []
    identities.append((
        "chi1(C) == h0(C)",
        all(a == b for a, b in zip(chi1_C, h0_C)),
    ))
    identities.append((
        "h1(reduced) == chi1(M) - (h0(M) - h0(reduced))",
        all(h1 == c1 - (hm - hb)
            for h1, c1, hm, hb in zip(h1_Mbar, chi1_M, h0_M, h0_Mbar)),
    ))
    ledger = EquivRelationLedger(
        entries=[
            sim_judgment("nu(M) ~ nu(reduced)", nu_M, nu_Mbar, nu_M, start),
            sim_judgment("nu(C) ~ 0", nu_C, [0] * len(nu_C), nu_M, start),
            sim_judgment("chi1(C) ~ 0", chi1_C, [0] * len(chi1_C), nu_M, start),
        ],
        identities=identities,
    )
    reduced_family = SequenceFamily(
        rule=lambda n: reduced_reps[n],
        sop=family.sop,
        index_range=family.index_range,
        base_ring=family.base_ring,
        name=f"{family.name}/torsion-free" if family.name else "torsion-free part",
    )
    return reduced_family, ledger


def saturate_over_S(family: SequenceFamily, R: AffineSemigroup, t: int | None = None):
    """Replace each torsion-free monomial module M_n over R by its S-span
    M_n S, recording: len(M_n S / M_n) <= h1(x^t, y^t; M_n) for the saturation
    exponent t, the nu transfer, multiplicity equality, and the S-side data."""
    start = family.index_range[0]
    sx, sy = (_mono_exps(p) for p in family.sop)
    t_val = t if t is not None else saturation_exponent(R)
    u1 = tuple(t_val * e for e in sx)
    u2 = tuple(t_val * e for e in sy)

    q_lengths, h1_bounds = [], []
    nu_R_M, nu_R_MS, nu_S_MS = [], [], []
    e_R_M, e_R_MS = [], []
    saturated_reps = {}
    bound_ok = []
    nu_R_S = None
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
        e_R_M.append(multiplicity(R))
        e_R_MS.append(multiplicity(R))
        if nu_R_S is None:
            s_gens = _minimal_plane_generators(R)
            nu_R_S = monomial_min_gens(MonomialModule(R, s_gens))
        bound_ok.append(nu_R_MS[-1] <= nu_R_S * nu_S_MS[-1])

    identities = [
        ("len(Q) <= h1(x^t, y^t; M)", all(q <= h for q, h in zip(q_lengths, h1_bounds))),
        ("e_R(M) == e_R(MS)", all(a == b for a, b in zip(e_R_M, e_R_MS))),
        ("nu_R(MS) <= nu_R(S) * nu_S(MS)", all(bound_ok)),
    ]
    ledger = EquivRelationLedger(
        entries=[
            sim_judgment("nu_R(M) ~ nu_R(MS)", nu_R_M, nu_R_MS, nu_R_M, start),
            sim_judgment("len(Q) ~ 0", q_lengths, [0] * len(q_lengths), nu_R_M, start),
        ],
        identities=identities,
    )
    saturated = SequenceFamily(
        rule=lambda n: saturated_reps[n],
        sop=family.sop,
        index_range=family.index_range,
        base_ring=family.base_ring,
        name=f"{family.name}*S" if family.name else "saturated family",
    )
    return saturated, ledger


def _minimal_plane_generators(R: AffineSemigroup):
    """Minimal generators of the full plane N^2 as a module over R."""
    from .semigroup import gap_set_auto, lattice_shell

    gaps = gap_set_auto(R)
    reach = max((sum(g) for g in gaps), default=0) + R.max_generator_degree
    out = []
    for s in range(0, reach + 1):
        for w in lattice_shell(s, (0, 0)):
            ok = True
            for g in R.generators:
                prev = tuple(a - b for a, b in zip(w, g))
                if all(e >= 0 for e in prev):
                    ok = False
                    break
            if ok:
                out.append(w)
    return tuple(out)


# ---------------------------------------------------------------------------
# family descriptions for the command line

def parse_family_spec(spec: str, ring: PolyRing, index_range=(1, 12)) -> SequenceFamily:
    """Built-in families:  ``freeplus ideal=(x,y) growth=n``,
    ``powers ideal=(x,y^n)``, ``free growth=n``.  The token n in values is the
    family index."""
    parts = _split_spec(spec)
    if parts and parts[0] == "family":
        parts = parts[1:]
    if not parts:
        raise ValueError("empty family spec")
    name, args = parts[0], {}
    for part in parts[1:]:
        key, eq, value = part.partition("=")
        if not eq:
            raise ValueError(f"family {name!r}: argument {part!r} is not key=value")
        args[key] = value
    if name in ("freeplus", "powers") and "ideal" not in args:
        raise ValueError(f"family {name!r}: missing key 'ideal'")
    sop = (ring.var(ring.variables[0]), ring.var(ring.variables[1]))

    def growth_at(n: int) -> int:
        expr = args.get("growth", "n")
        value = poly_eval_expr(expr, n, ring.field)
        if value != int(value):
            raise ValueError(f"growth {expr} is not an integer at n={n}")
        return int(value)

    def ideal_at(n: int) -> Ideal:
        template = args["ideal"]
        text = re.sub(r"\bn\b", str(n), template)
        return Ideal(parse_generator_list(text.strip("()"), ring))

    if name == "freeplus":
        rule = lambda n: direct_sum(FreeModule(growth_at(n)), IdealModule(ideal_at(n)))
    elif name == "powers":
        rule = lambda n: IdealModule(ideal_at(n))
    elif name == "free":
        rule = lambda n: FreeModule(growth_at(n))
    else:
        raise ValueError(f"unknown family {name!r}")
    return SequenceFamily(rule=rule, sop=sop, index_range=index_range,
                          base_ring=ring, name=spec)


def poly_eval_expr(expr: str, n: int, field) -> Fraction:
    ring_n = PolyRing(("n",), field)
    p = parse_polynomial(expr, ring_n)
    total = Fraction(0)
    for exps, coeff in p.terms.items():
        total += Fraction(coeff) * n ** exps[0]
    return total


def _split_spec(spec: str):
    parts = []
    depth = 0
    current = []
    for ch in spec.strip():
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch.isspace() and depth == 0:
            if current:
                parts.append("".join(current))
                current = []
        else:
            current.append(ch)
    if current:
        parts.append("".join(current))
    return parts
