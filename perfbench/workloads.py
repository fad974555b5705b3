"""Seeded inputs, jobs and output checks for the three workloads.

A workload turns (name, seed, size) into a list of jobs.  Generating the
inputs needs no ulrich_forge code; the program only ever sees the generated
polynomials, semigroups and ring files.  Each job runs one program entry
point, checks the result against an oracle from oracles.py and returns a
short outcome string; a Mismatch, any other exception, an INCONCLUSIVE
answer or an unexpected exit code makes the job fail.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from oracles import NaiveSemigroup, above_newton, expect, newton_twice_area

WORKLOADS = ("certify", "ideals", "semigroups")


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], str]


@dataclass(frozen=True)
class Size:
    """How much of each workload one pass runs."""

    v35_n: tuple
    v51: tuple  # (n, number of extra monomials) per ring file
    v37_n: tuple
    ideals: int
    params: int
    families: int
    family_range: tuple
    semigroups: int
    space_n: tuple


FULL = Size(v35_n=(2, 3), v51=((2, 2), (3, 1)), v37_n=(2, 3), ideals=24,
            params=12, families=2, family_range=(1, 6), semigroups=14,
            space_n=(1, 2, 3, 4))
QUICK = Size(v35_n=(2,), v51=((2, 1),), v37_n=(2,), ideals=2, params=2,
             families=1, family_range=(1, 5), semigroups=3, space_n=(1, 2))


def make_jobs(workload: str, seed: int, size: Size, workdir: Path) -> list[Job]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "certify":
        return _certify_jobs(rng, size, workdir)
    if workload == "ideals":
        return _ideals_jobs(rng, size)
    if workload == "semigroups":
        return _semigroups_jobs(rng, size)
    raise ValueError(f"unknown workload {workload!r}")


def plane_generators(n: int):
    return [(n, 0), (n + 1, 0), (n, 1), (0, n), (0, n + 1), (1, n), (1, 1)]


def _mono(exps, names=("x", "y")) -> str:
    parts = [f"{v}^{e}" if e > 1 else v for v, e in zip(names, exps) if e]
    return "*".join(parts) or "1"


def _check_gaps(gens, claimed):
    claimed = {tuple(p) for p in claimed}
    top = max((sum(p) for p in claimed), default=0)
    expect(NaiveSemigroup(gens).gaps(top) == claimed, "gap set differs from the naive recursion")


# ---------------------------------------------------------------------------
# certify: the paper's pipelines through the command line

def _random_prime(rng) -> int:
    while True:
        p = rng.randrange(10001, 99999, 2)
        if all(p % d for d in range(3, int(p ** 0.5) + 1, 2)):
            return p


def _extra_monomials(rng, slot: int, n: int, count: int):
    """Monomials of degree n+1, n+2, ..., each integral over (x*y, x^n - y^n):
    x^a*y^b with a, b >= 1 in odd degree d, x^d or y^d in even degree.

    Which monomials a ring gets moved the cost of its verify-51 job by a
    fifth (x^2*y with y^4 against x^2*y with x^4), so the slot fixes them
    and the seed picks the ring or its mirror image under x <-> y.  The
    plane family and the reduction ideal are symmetric, so both give the
    same verdict and multiplicities.  The order is not symmetric: the two
    images differ in cost by 3% for the n = 2 ring and by 13% for the n = 3
    ring (x^4 against y^4), about 2% of a pass."""
    shape = random.Random(f"ring-slot:{slot}")
    extras = []
    for d in range(n + 1, n + 1 + count):
        if d % 2:
            a = shape.randint(1, d - 1)
            extras.append((a, d - a))
        else:
            extras.append((d, 0) if shape.random() < 0.5 else (0, d))
    if rng.random() < 0.5:
        extras = [(b, a) for a, b in extras]
    return extras


def _cli(argv, json_path: Path):
    from ulrich_forge import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--json", str(json_path)])
    text = out.getvalue()
    report = json.loads(json_path.read_text(encoding="utf-8"))
    expect(f"verdict: {report['verdict']}" in text, "text output lacks the verdict line")
    return code, report


def _check(report, anchor):
    return [c for c in report["checks"] if c["anchor"] == anchor]


def _certify_jobs(rng, size: Size, workdir: Path) -> list[Job]:
    p = _random_prime(rng)
    jobs = []
    q_results: dict = {}

    def v35(n, field):
        def run():
            path = workdir / f"v35-{n}-{field.replace(':', '')}.json"
            code, rep = _cli(["verify-35", "--n", str(n), "--field", field], path)
            expect(code == 0, f"exit code {code}")
            expect(rep["verdict"] == "NO_ULRICH", f"verdict {rep['verdict']}")
            expect(all(c["verdict"] == "pass" for c in rep["checks"]), "a check did not pass")
            gaps = _check(rep, "gap-set-finiteness")[0]["certificate"]["gaps"]
            _check_gaps(plane_generators(n), [tuple(g) for g in gaps])
            if field == "q":
                q_results[n] = (rep["verdict"], gaps)
            else:
                expect(q_results.get(n) == (rep["verdict"], gaps),
                       "F_p and Q disagree on verdict or gap set")
            return f"{rep['verdict']} gaps={len(gaps)}"
        return run

    for n in size.v35_n:
        jobs.append(Job(f"verify-35 n={n} q", v35(n, "q")))
        jobs.append(Job(f"verify-35 n={n} fp:{p}", v35(n, f"fp:{p}")))

    def v51(n, extras, path):
        def run():
            code, rep = _cli(["verify-51", "--ring", str(path),
                              "--expect", "NO_WEAKLY_LIM_ULRICH"], path.with_suffix(".json"))
            expect(code == 0, f"exit code {code}")
            expect(rep["verdict"] == "NO_WEAKLY_LIM_ULRICH", f"verdict {rep['verdict']}")
            data = _check(rep, "multiplicity-bookkeeping")[0]["certificate"]
            expect(data["e_ring"] == data["e_reduction_ideal"] == 2 * n,
                   f"multiplicities {data['e_ring']}, {data['e_reduction_ideal']} != {2 * n}")
            gaps = _check(rep, "gap-set-finiteness")[0]["certificate"]["gaps"]
            _check_gaps(plane_generators(n) + extras, [tuple(g) for g in gaps])
            return f"{rep['verdict']} e={data['e_ring']}"
        return run

    for i, (n, count) in enumerate(size.v51):
        extras = _extra_monomials(rng, i, n, count)
        gens = ", ".join(_mono(e) for e in plane_generators(n) + extras)
        path = workdir / f"ring-{i}-n{n}.txt"
        path.write_text(f"ring ambient=(x,y) gens=[{gens}] reduction=[x*y, x^{n} - y^{n}]\n",
                        encoding="utf-8")
        label = "+".join(_mono(e) for e in extras) or "none"
        jobs.append(Job(f"verify-51 n={n} extras={label}", v51(n, extras, path)))

    def v37(n):
        def run():
            code, rep = _cli(["verify-37", "--n", str(n)], workdir / f"v37-{n}.json")
            expect(code == 0, f"exit code {code}")
            expect(rep["verdict"] == "NO_ULRICH_AFTER_LOCALIZATION", f"verdict {rep['verdict']}")
            e = _check(rep, "homogeneous-multiplicity-value")[0]["certificate"]["computed"]
            expect(e == (n + 1) ** 2, f"multiplicity {e} != {(n + 1) ** 2}")
            return f"{rep['verdict']} e={e}"
        return run

    for n in size.v37_n:
        jobs.append(Job(f"verify-37 n={n}", v37(n)))
    return jobs


# ---------------------------------------------------------------------------
# ideals: zero-dimensional ideals of k[x, y] over Q

COEFFS = (-3, -2, -1, 1, 2, 3)


def _signed(c: int, mono: str) -> str:
    return f"{'+' if c > 0 else '-'} {abs(c)}*{mono}"


def _random_ideal(rng, k: int):
    """Slot k of a pass: x^a + c*x^(a+1), y^a + c'*y^(a+1) and 1-2 forms of
    degree 2..min(a, 3) with 1-2 terms each.  The first two generators cut
    out a finite grid, so the colength is finite.

    The cost of ideal_multiplicity ranges over 100x with the monomials of
    the forms, so the slot fixes a, the forms' number, degree and monomials,
    and spreads them evenly; the seed picks every coefficient.  Forms of
    degree up to a = 5 made single calls take minutes.  The two coefficients
    of a binomial form differ in size: with equal sizes the form factors
    (x*y + x^2, x^3 - y^3) and ideal_multiplicity at a = 4 cost a third or
    twice as much as for the other coefficients.  Two binomial forms on the
    same monomials are never proportional: a repeated form made one call
    cost 2.6 times as much."""
    a = 2 + k % 4
    shape = random.Random(f"ideal-slot:{k}")
    gens = [f"x^{a} {_signed(rng.choice(COEFFS), f'x^{a + 1}')}",
            f"y^{a} {_signed(rng.choice(COEFFS), f'y^{a + 1}')}"]
    d = 2 + (k // 4) % (min(a, 3) - 1)
    forms = []
    for _ in range(1 + (k // 8) % 2):
        exps = sorted({(p, d - p) for p in shape.sample(range(d + 1), shape.randint(1, 2))})
        while True:
            coeffs = [rng.choice(COEFFS)]
            if len(exps) == 1:
                break
            coeffs.append(rng.choice([c for c in COEFFS if abs(c) != abs(coeffs[0])]))
            if not any(e == exps and c[0] * coeffs[1] == c[1] * coeffs[0] for e, c in forms):
                break
        forms.append((exps, coeffs))
        form = " ".join(_signed(c, _mono(e)) for c, e in zip(coeffs, exps))
        gens.append(form[2:] if form.startswith("+") else "-" + form[2:])
    return a, gens


def _recombine(rng, gens):
    """A unimodular triangular recombination of the generators: each gets
    multiples of the later ones by seeded terms of degree <= 1 added."""
    out = []
    for i, g in enumerate(gens):
        text = f"({g})"
        for h in gens[i + 1:]:
            if rng.random() < 0.6:
                d = rng.randint(0, 1)
                p = rng.randint(0, d)
                text += f" + ({rng.choice(COEFFS)}*{_mono((p, d - p))})*({h})"
        out.append(text)
    return out


def _ideals_jobs(rng, size: Size) -> list[Job]:
    from ulrich_forge.parse import parse_generator_list, parse_polynomial
    from ulrich_forge.poly import PolyRing
    from ulrich_forge import groebner, koszul, reduction

    ring = PolyRing(("x", "y"))
    jobs = []

    def ideal(texts):
        return groebner.Ideal(parse_generator_list(", ".join(texts), ring))

    def colength_job(gens):
        def run():
            c = ideal(gens).colength()
            expect(isinstance(c, int) and c > 0, f"colength {c!r}")
            return f"colength={c}"
        return run

    def equals_job(gens, other):
        def run():
            expect(ideal(gens).equals(ideal(other)), "recombined generators give another ideal")
            return "equal"
        return run

    def multiplicity_job(gens):
        def run():
            I = ideal(gens)
            e, c = groebner.ideal_multiplicity(I), I.colength()
            expect(e >= c, f"e(I) = {e} < colength {c}")
            return f"e={e} colength={c}"
        return run

    def koszul_job(gens, sop):
        def run():
            I = ideal(gens)
            f, g = (parse_polynomial(s, ring) for s in sop)
            cyc = koszul.koszul_cyclic(f, g, I)
            mod = koszul.koszul_ideal_module(f, g, I)
            base = groebner.Ideal([f, g]).colength()
            expect(cyc.chi == 0, f"chi(S/I) = {cyc.chi}, expected 0")
            expect(mod.chi == base, f"chi(I) = {mod.chi}, expected l(S/(f,g)) = {base}")
            expect(mod.h1 == cyc.h2 and mod.h2 == 0, "long exact sequence bookkeeping broken")
            return f"cyclic={cyc.as_tuple()} ideal={mod.as_tuple()}"
        return run

    ideals = [_random_ideal(rng, k) for k in range(size.ideals)]
    for k, (a, gens) in enumerate(ideals):
        tag = f"I{k} ({', '.join(gens)})"
        jobs.append(Job(f"colength {tag}", colength_job(gens)))
        jobs.append(Job(f"equals {tag}", equals_job(gens, _recombine(rng, gens))))
        jobs.append(Job(f"ideal_multiplicity {tag}", multiplicity_job(gens)))
        sop = ("x", "y") if k % 2 == 0 else (f"x^{1 + k // 2 % 2}", f"y^{1 + k // 4 % 2}")
        jobs.append(Job(f"koszul {tag} sop={','.join(sop)}", koszul_job(gens, sop)))

    def integral_job(i, j, a, z):
        def run():
            Q = ideal([_mono((i, j)), f"x^{a} - y^{a}"])
            cert = reduction.is_integral(parse_polynomial(_mono(z), ring), Q)
            vertices = [(i, j), (a, 0), (0, a)]
            if above_newton(vertices, z):
                expect(cert.kind == reduction.POSITIVE, f"{cert.describe()}, expected POSITIVE")
            else:
                expect(cert.kind == reduction.NEGATIVE_MULTIPLICITY,
                       f"{cert.describe()}, expected NEGATIVE_MULTIPLICITY")
                expect(cert.e_small == newton_twice_area(vertices)
                       and cert.e_large == newton_twice_area(vertices + [z]),
                       f"{cert.describe()} disagrees with the Newton areas")
            return cert.describe()
        return run

    def param_multiplicity_job(i, j, a):
        def run():
            e = groebner.ideal_multiplicity(ideal([_mono((i, j)), f"x^{a} - y^{a}"]))
            expect(e == a * (i + j), f"e = {e}, Newton area gives {a * (i + j)}")
            return f"e={e}"
        return run

    # (x^i*y^j, x^a - y^a) with i + j < a is Newton-nondegenerate, so its
    # integral closure and multiplicity are read off the Newton polygon.
    # The slot fixes a, (i, j) and whether the tested monomial of degree
    # 2..a is integral; the seed picks the monomial.
    for k in range(size.params):
        a = 3 + k % 3
        shapes = [(i, j) for i in range(1, a) for j in range(1, a - i)]
        i, j = shapes[(k // 3) % len(shapes)]
        points = [(p, d - p) for d in range(2, a + 1) for p in range(d + 1)]
        z = rng.choice([v for v in points
                        if above_newton([(i, j), (a, 0), (0, a)], v) == (k % 2 == 0)])
        tag = f"({_mono((i, j))}, x^{a}-y^{a})"
        jobs.append(Job(f"is_integral {_mono(z)} over {tag}", integral_job(i, j, a, z)))
        if k % 2 == 0:
            jobs.append(Job(f"ideal_multiplicity {tag}", param_multiplicity_job(i, j, a)))

    jobs.extend(_ideal_family_jobs(size, ideals, ring))
    return jobs


def _ideal_family_jobs(size: Size, ideals, ring) -> list[Job]:
    from ulrich_forge import sequences
    from ulrich_forge.finlen import FiniteLengthModule
    from ulrich_forge.parse import parse_generator_list

    jobs = []

    def analyze_job(spec):
        def run():
            family = sequences.parse_family_spec(spec, ring, size.family_range)
            table = sequences.analyze(family)
            expect(table.verdict != "INCONCLUSIVE", "analyze verdict INCONCLUSIVE")
            for row in table.rows:
                # chi(x, y; M) = e((x, y); M) = rank M for these modules
                expect(row.h0 - row.h1 + row.h2 == row.e,
                       f"n={row.n}: chi {row.h0 - row.h1 + row.h2} != e {row.e}")
            return f"{table.verdict} exact={table.exact}"
        return run

    def torsion_job(gens):
        def run():
            from ulrich_forge import groebner

            J = groebner.Ideal(parse_generator_list(", ".join(gens), ring))
            family = sequences.SequenceFamily(
                rule=lambda n: sequences.direct_sum(
                    sequences.FinLenModule(FiniteLengthModule.semisimple(ring, n)),
                    sequences.IdealModule(J)),
                sop=ring.gens(), index_range=size.family_range, base_ring=ring)
            reduced, ledger = sequences.torsion_reduce(family)
            bad = [name for name, ok in ledger.identities if not ok]
            expect(not bad, f"torsion ledger identities fail: {bad}")
            expect(reduced.rule(size.family_range[0]) == sequences.IdealModule(J),
                   "reduced family is not the ideal part")
            return "identities hold"
        return run

    for k in range(size.families):
        head = ideals[k % len(ideals)][1][0].replace(" ", "")
        for spec in (f"powers ideal=({head},y^n)", f"freeplus ideal=({head},x*y^n) growth=n"):
            jobs.append(Job(f"analyze {spec}", analyze_job(spec)))
    gens = ideals[-1][1]
    jobs.append(Job(f"torsion_reduce k^n + ({', '.join(gens)})", torsion_job(gens)))
    return jobs


# ---------------------------------------------------------------------------
# semigroups: finite-colength semigroups of N^2 and the space semigroups T_n

def _slot_semigroup(k: int):
    """Slot k of every pass: axis generators (a,0), (a+1,0), (0,b), (0,b+1)
    with a, b spread over 2..8, and 2-5 interior generators of degree <= 8,
    among them (1, j) and (i, 1) so the gaps are finite.

    The generators drive the cost (multiplicity alone ranged from 1.5 s to
    3.5 s a pass when the seed picked them), so they are the same for every
    seed, drawn once from a generator keyed by the slot; the seed picks the
    points and modules each semigroup is tested on.  With i, j <= 3 every gap
    set fits the program's degree cap of 80; with i, j up to 7, about 4% of
    the semigroups exceed it."""
    rng = random.Random(f"semigroup-slot:{k}")
    a, b = 2 + 3 * k % 7, 2 + (5 * k + 2) % 7
    interior = {(1, 1 + k % 3), (1 + (k + 1) % 3, 1)}
    target = max(len(interior), 2 + k % 4)
    while len(interior) < target:
        d = rng.randint(2, 8)
        x = rng.randint(1, d - 1)
        interior.add((x, d - x))
    return [(a, 0), (a + 1, 0), (0, b), (0, b + 1)] + sorted(interior)


def _semigroups_jobs(rng, size: Size) -> list[Job]:
    from ulrich_forge import koszul, semigroup, sequences
    from ulrich_forge.poly import PolyRing

    jobs, semigroups = [], []

    def job(name, body):
        jobs.append(Job(name, body))

    for k in range(size.semigroups):
        gens = _slot_semigroup(k)
        semigroups.append(gens)
        points = [(rng.randint(0, 12), rng.randint(0, 12)) for _ in range(6)]
        mgens = [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(rng.randint(1, 3))]
        tag = f"G{k} {{{','.join(f'({x},{y})' for x, y in gens)}}}"
        G = semigroup.AffineSemigroup(2, tuple(gens))
        naive = NaiveSemigroup(gens)
        a, b = gens[0][0], gens[2][1]
        tallies: dict = {}

        def gaps(G=G, gens=gens, check=k % 4 == 0):
            found = semigroup.gap_set_auto(G)
            if check:
                _check_gaps(gens, found)
            return f"gaps={len(found)}"

        def mult(G=G, gens=gens):
            e, area = semigroup.multiplicity(G), newton_twice_area(gens)
            expect(e == area, f"multiplicity {e}, Newton area gives {area}")
            return f"e={e}"

        def hilbert(G=G, naive=naive):
            hs = [semigroup.hilbert_samuel(G, t) for t in (1, 2, 3)]
            expect(hs == [naive.hilbert_samuel(t) for t in (1, 2, 3)], f"values {hs}")
            return f"hs={hs}"

        def nu(G=G, naive=naive):
            value = semigroup.nu_max_ideal(G)
            expect(value == naive.irreducible_generators(), f"nu {value}")
            return f"nu={value}"

        def member(G=G, naive=naive, points=points):
            found = 0
            for v in points:
                w = semigroup.sg_member(G, v)
                if w.member:
                    found += 1
                    expect(all(g in G.generators for g in w.decomposition)
                           and tuple(sum(p[i] for p in w.decomposition) for i in (0, 1)) == v,
                           f"decomposition of {v} does not re-sum")
                else:
                    expect(not naive.member(v), f"{v} wrongly reported outside")
            return f"members={found}"

        def saturation(G=G, naive=naive):
            t = semigroup.saturation_exponent(G)
            holes = naive.gaps(max((sum(g) for g in semigroup.gap_set_auto(G)), default=0))
            below = [v for v in naive.points_up_to(max((sum(g) for g in holes), default=0))
                     if naive.member(v) and any(v[0] <= g[0] and v[1] <= g[1] for g in holes)]
            worst = max((naive.order(v) for v in below), default=0)
            expect(t == worst + 1, f"saturation exponent {t}, expected {worst + 1}")
            return f"t={t}"

        def koszul_r(G=G, mgens=mgens, a=a, b=b, tallies=tallies):
            tally = koszul.koszul_monomial_R(koszul.MonomialModule(G, tuple(mgens)),
                                             ((a, 0), (0, b)))
            # chi = e((x^a, y^b); M) = a*b for a rank-one module
            expect(tally.chi == a * b, f"chi {tally.chi} != {a * b}")
            tallies["h1"] = tally.h1
            return f"h={tally.as_tuple()}"

        def colon(G=G, mgens=mgens, a=a, b=b, tallies=tallies):
            _, length = koszul.colon_module(koszul.MonomialModule(G, tuple(mgens)), 1,
                                            (a, 0), (0, b))
            expect(length == tallies.get("h1"), f"colon length {length} != h1")
            return f"length={length}"

        def saturate_module(G=G, naive=naive, mgens=mgens):
            _, q_points = koszul.monomial_saturation(koszul.MonomialModule(G, tuple(mgens)))
            holes = naive.gaps(max((sum(g) for g in semigroup.gap_set_auto(G)), default=0))
            lo = [min(m[i] for m in mgens) for i in (0, 1)]
            hi = [max(m[i] for m in mgens) + max((g[i] for g in holes), default=0) + 1
                  for i in (0, 1)]
            expected = {(x, y) for x in range(lo[0], hi[0]) for y in range(lo[1], hi[1])
                        if any(x >= m[0] and y >= m[1] for m in mgens)
                        and not any(naive.member((x - m[0], y - m[1])) for m in mgens)}
            expect(set(q_points) == expected, "saturation points differ from the naive scan")
            return f"q={len(q_points)}"

        job(f"gap_set_auto {tag}", gaps)
        job(f"multiplicity {tag}", mult)
        job(f"hilbert_samuel {tag}", hilbert)
        job(f"nu_max_ideal {tag}", nu)
        job(f"sg_member {points} in G{k}", member)
        job(f"saturation_exponent G{k}", saturation)
        job(f"koszul_monomial_R {mgens} over G{k}", koszul_r)
        job(f"colon_module {mgens} over G{k}", colon)
        job(f"monomial_saturation {mgens} over G{k}", saturate_module)

    def space_job(n):
        def run():
            from ulrich_forge.pipelines import localization_semigroup

            T = localization_semigroup(n)
            e, _ = semigroup.homogeneous_multiplicity(T)
            expect(e == (n + 1) ** 2, f"e(T_{n}) = {e} != {(n + 1) ** 2}")
            loc = semigroup.localize_at_face(T)
            expect(set(loc.semigroup.generators) == set(plane_generators(n)),
                   "localization image is not the plane family")
            return f"e={e}"
        return run

    for n in size.space_n:
        job(f"homogeneous_multiplicity+localize_at_face T_{n}", space_job(n))

    ring = PolyRing(("x", "y"))

    def family_job(gens):
        def run():
            G = semigroup.AffineSemigroup(2, tuple(gens))
            a, b = gens[0][0], gens[2][1]
            sop = (ring.monomial((a, 0)), ring.monomial((0, b)))
            family = sequences.SequenceFamily(
                rule=lambda n: sequences.MonomialRModule(koszul.MonomialModule(G, ((n, n),))),
                sop=sop, index_range=size.family_range, base_ring=ring)
            table = sequences.analyze(family)
            expect(table.verdict != "INCONCLUSIVE", "analyze verdict INCONCLUSIVE")
            expect(all(r.h0 - r.h1 + r.h2 == a * b for r in table.rows), "chi != a*b")
            _, ledger = sequences.saturate_over_S(family, G)
            bad = [name for name, ok in ledger.identities if not ok]
            expect(not bad, f"saturation ledger identities fail: {bad}")
            return f"{table.verdict} exact={table.exact}"
        return run

    # the family's cost grows fast with a and b; G1 always has (a, b) = (5, 2)
    k = min(1, len(semigroups) - 1)
    jobs.append(Job(f"analyze+saturate principal family G{k}", family_job(semigroups[k])))
    return jobs

