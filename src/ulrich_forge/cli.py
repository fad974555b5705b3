"""Command-line interface.

Subcommands: verify-35, verify-51, verify-37, groebner, semigroup, reduction,
koszul, analyze.  Global flags --json PATH (write the full report as JSON)
and --expect VERDICT (exit 0 only when the overall verdict matches).

Exit codes:
    0  ok
    1  expectation or pipeline failure
    2  usage or I/O error
    3  inconclusive computation
    4  certificate self-check failed
"""
from __future__ import annotations

import argparse
import functools
import re
import sys

from .fields import QQ, field_from_name
from .groebner import Ideal
from .parse import (ParseError, infer_ring, parse_generator_list, parse_polynomial,
                    split_top_level)
from .patterns import InconclusiveError
from .pipelines import (
    PipelineError,
    verify_localization,
    verify_no_ulrich,
    verify_ulrich_equivalence,
)
from .report import Check, INFO, VerificationReport
from .semigroup import (AffineSemigroup, InfiniteGapSet, gap_set_auto, hilbert_samuel,
                        multiplicity)
from .subring import parse_ring_spec
from .reduction import T_MAX, is_reduction
from .koszul import koszul_cyclic, koszul_ideal_module
from .sequences import FreeModule, analyze, parse_family_spec


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--json", metavar="PATH", help="write the JSON report to PATH")
    p.add_argument("--expect", metavar="VERDICT", help="exit 0 only on this verdict")


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ulrich-forge",
        description="exact verification toolkit for Ulrich-existence certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p35 = sub.add_parser("verify-35", help="no-Ulrich certificate for the plane family")
    p35.add_argument("--n", type=int, required=True)
    p35.add_argument("--field", default="q", help="q or fp:P")
    _add_common(p35)

    p51 = sub.add_parser("verify-51", help="equivalence report for a monomial subring")
    p51.add_argument("--ring", required=True, metavar="FILE", help="ring spec file")
    _add_common(p51)

    p37 = sub.add_parser("verify-37", help="localization pipeline for the space family")
    p37.add_argument("--n", type=int, required=True)
    _add_common(p37)

    pg = sub.add_parser("groebner", help="Groebner basis utilities")
    pg.add_argument("--ideal", required=True)
    pg.add_argument("--nf", help="print the normal form of this polynomial")
    pg.add_argument("--colength", action="store_true")
    pg.add_argument("--equal", help="test ideal equality against this generator list")
    pg.add_argument("--vars", help="comma-separated ambient variables")
    _add_common(pg)

    ps = sub.add_parser("semigroup", help="affine semigroup utilities")
    ps.add_argument("--gens", required=True, help='e.g. "sg 2 {(2,0),(3,0),(1,1)}"')
    ps.add_argument("--gaps", action="store_true")
    ps.add_argument("--multiplicity", action="store_true")
    ps.add_argument("--hilbert", type=int, metavar="T")
    _add_common(ps)

    pr = sub.add_parser("reduction", help="reduction certificate I inside J")
    pr.add_argument("--ideal", required=True, help="generators of I")
    pr.add_argument("--in", dest="within", required=True, help="generators of J")
    pr.add_argument("--tmax", type=int, default=T_MAX)
    pr.add_argument("--vars", help="comma-separated ambient variables")
    _add_common(pr)

    pk = sub.add_parser("koszul", help="Koszul homology tallies")
    pk.add_argument("--module", required=True,
                    help='"cyclic (gens)", "ideal (gens)", or "free R"')
    pk.add_argument("--sop", required=True, help='parameter pair, e.g. "x^2,y^2"')
    pk.add_argument("--vars", help="comma-separated ambient variables")
    _add_common(pk)

    pa = sub.add_parser("analyze", help="asymptotic table for a module family")
    pa.add_argument("--family", required=True)
    pa.add_argument("--range", default="1..12", help="A..B index range")
    _add_common(pa)

    return parser


def _parse_semigroup_spec(spec: str) -> AffineSemigroup:
    words = split_top_level(spec)
    a, b = words[2] if len(words) == 3 else (0, 0)
    if a == b or spec[slice(*words[0])] != "sg" or spec[a] + spec[b - 1] != "{}":
        raise ValueError('semigroup spec must look like "sg 2 {(2,0),(1,1)}"')
    gens = []
    for c, d in split_top_level(spec, a + 1, b - 1, ","):
        if c == d:
            continue
        if spec[c] + spec[d - 1] != "()":
            raise ParseError.at(spec, c, "semigroup generator must be (a,b,...)")
        gens.append(tuple(_natural(spec, *span)
                          for span in split_top_level(spec, c + 1, d - 1, ",")))
    return AffineSemigroup(_natural(spec, *words[1]), tuple(gens))


def _natural(spec: str, a: int, b: int) -> int:
    word = spec[a:b]
    if not (word.isascii() and word.isdigit()):
        raise ParseError.at(spec, a, f"expected a non-negative integer, got {word!r}")
    return int(word)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PipelineError as exc:
        print(f"pipeline aborted: {exc.clause}", file=sys.stderr)
        return 1
    except InconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3
    except (AssertionError, ArithmeticError) as exc:
        print(f"certificate self-check failed: {exc}", file=sys.stderr)
        return 4


def _dispatch(args) -> int:
    handler, default_expect = COMMANDS[args.command]
    report, lines = handler(args)
    if callable(default_expect):
        default_expect = default_expect(args)
    return _emit(report, lines, args, default_expect)


def _emit(report: VerificationReport, lines, args, default_expect) -> int:
    """The one output path: print, write --json, map the verdict to an exit
    code."""
    for line in lines:
        print(line)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    if report.verdict.partition("(")[0] == "INCONCLUSIVE":
        return 3
    expect = args.expect if args.expect is not None else default_expect
    if expect is None:
        return 0
    return 0 if report.verdict == expect else 1


def _pipeline_output(report: VerificationReport):
    return report, report.text_lines()


def _verify_35(args):
    return _pipeline_output(verify_no_ulrich(args.n, field_from_name(args.field)))


def _verify_51(args):
    with open(args.ring, encoding="utf-8") as fh:
        text = fh.read()
    subring, reduction = parse_ring_spec(text)
    return _pipeline_output(verify_ulrich_equivalence(subring, reduction))


def _verify_37(args):
    return _pipeline_output(verify_localization(args.n))


def _ambient(args, texts):
    return infer_ring(texts, variables=tuple(args.vars.split(",")) if args.vars else None)


def _groebner(args):
    ring = _ambient(args, [args.ideal, args.nf or "", args.equal or ""])
    ideal = Ideal(parse_generator_list(args.ideal, ring))
    if args.nf:
        verdict = str(ideal.normal_form(parse_polynomial(args.nf, ring)))
        check = Check("normal form", "normal-form", INFO, verdict)
        lines = [verdict]
    elif args.colength:
        c = ideal.colength()
        verdict = "INFINITE" if c is None else str(c)
        check = Check("colength", "standard-monomial-count", INFO, verdict)
        lines = [verdict]
    elif args.equal is not None:
        other = Ideal(parse_generator_list(args.equal, ring))
        verdict = str(ideal.equals(other)).lower()
        check = Check("ideal equality", "mutual-membership", INFO, verdict)
        lines = [verdict]
    else:
        lines = [str(g) for g in ideal.groebner_basis()]
        verdict = "; ".join(lines)
        check = Check("reduced basis", "groebner-basis", INFO, lines)
    report = VerificationReport("groebner", {"ideal": args.ideal}, [check], verdict,
                                ring.field.name)
    return report, lines


def _semigroup(args):
    G = _parse_semigroup_spec(args.gens)
    checks, lines = [], None
    if args.gaps:
        try:
            listed = sorted(gap_set_auto(G))
        except InfiniteGapSet:
            verdict = "INFINITE"
        else:
            verdict = f"gaps={listed} count={len(listed)}"
            lines = [f"gaps: {listed}", f"count: {len(listed)}"]
        checks.append(Check("gap set", "gap-set-finiteness", INFO, verdict))
    elif args.multiplicity:
        e = multiplicity(G)
        verdict = str(e)
        anchor = "newton-polygon-area" if G.dim < 3 else "newton-polyhedron-volume"
        checks.append(Check("multiplicity", anchor, INFO, e))
    elif args.hilbert is not None:
        v = hilbert_samuel(G, args.hilbert)
        verdict = str(v)
        checks.append(Check(f"hilbert-samuel({args.hilbert})",
                            "order-filtration-count", INFO, v))
    else:
        verdict = repr(G)
    report = VerificationReport("semigroup", {"gens": args.gens}, checks, verdict, QQ.name)
    return report, lines or [verdict]


def _reduction(args):
    ring = _ambient(args, [args.ideal, args.within])
    I = Ideal(parse_generator_list(args.ideal, ring))
    J = Ideal(parse_generator_list(args.within, ring))
    verdict = is_reduction(I, J, args.tmax).describe()
    report = VerificationReport(
        "reduction", {"ideal": args.ideal, "in": args.within},
        [Check("reduction certificate", "reduction-criterion", INFO, verdict)],
        verdict, ring.field.name)
    return report, [verdict]


def _free_rank(text: str) -> int:
    rank = text.strip()
    if not (rank.isascii() and rank.isdigit()):
        raise ValueError(f'--module "free R": rank R must be a non-negative integer, got {rank!r}')
    return int(rank)


def _koszul(args):
    text = args.module
    a, b = (split_top_level(text) or [(0, 0)])[0]
    k = a + len(re.match(r"\w*", text[a:b])[0])
    # the kind, then the rest with the kind blanked, so positions stay those of text
    kind, rest = text[a:k], text[:a] + " " * (k - a) + text[k:]
    ring = _ambient(args, [rest if kind != "free" else "", args.sop])
    sop = parse_generator_list(args.sop, ring)
    if len(sop) != 2:
        raise ValueError(f"--sop needs exactly two polynomials, got {len(sop)}")
    f, g = sop
    if kind == "cyclic":
        tally = koszul_cyclic(f, g, Ideal(parse_generator_list(rest, ring), ring=ring))
    elif kind == "ideal":
        tally = koszul_ideal_module(f, g, Ideal(parse_generator_list(rest, ring), ring=ring))
    elif kind == "free":
        tally = FreeModule(_free_rank(rest)).tally((f, g))
    else:
        raise ValueError(f"unknown module spec kind {kind!r}")
    verdict = f"h=({tally.h0},{tally.h1},{tally.h2}) chi={tally.chi} chi1={tally.chi1}"
    report = VerificationReport(
        "koszul", {"module": args.module, "sop": args.sop},
        [Check("koszul tally", "koszul-homology", INFO,
               {"h0": tally.h0, "h1": tally.h1, "h2": tally.h2})],
        verdict, ring.field.name)
    return report, [verdict]


def _analyze(args):
    ring = infer_ring([], variables=("x", "y"))
    bounds = re.fullmatch(r"\s*(-?\d+)\s*\.\.\s*(-?\d+)\s*", args.range)
    if bounds is None:
        raise ValueError(f"--range must be A..B with integers A and B, got {args.range!r}")
    table = analyze(parse_family_spec(args.family, ring, (int(bounds[1]), int(bounds[2]))))
    lines = [f"{'n':>4} {'nu':>6} {'e':>6} {'h0':>6} {'h1':>6} {'h2':>6} {'chi1':>6}  e/nu     h1/nu"]
    for row in table.rows:
        lines.append(f"{row.n:>4} {row.nu:>6} {row.e:>6} {row.h0:>6} {row.h1:>6} "
                     f"{row.h2:>6} {row.chi1:>6}  {row.e_over_nu!s:<8} {row.h1_over_nu!s}")
    for key, value in table.formulas.items():
        lines.append(f"formula {key} = {value}")
    lines.append(f"verdict: {table.verdict} "
                 f"({'exact' if table.exact else 'finite-index evidence'})")
    checks = [Check("asymptotic classification", "limit-trend-classification", INFO,
                    {"verdict": table.verdict, "exact": table.exact,
                     "formulas": table.formulas})]
    report = VerificationReport("analyze", {"family": args.family, "range": args.range},
                                checks, table.verdict, ring.field.name)
    return report, lines


# subcommand -> (handler returning (report, lines), default --expect); the
# default may depend on the arguments, as for verify-37 below n = 2
COMMANDS = {
    "verify-35": (_verify_35, "NO_ULRICH"),
    "verify-51": (_verify_51, None),
    "verify-37": (_verify_37,
                  lambda args: "NO_ULRICH_AFTER_LOCALIZATION" if args.n >= 2 else None),
    "groebner": (_groebner, None),
    "semigroup": (_semigroup, None),
    "reduction": (_reduction, None),
    "koszul": (_koszul, None),
    "analyze": (_analyze, None),
}


if __name__ == "__main__":
    sys.exit(main())
