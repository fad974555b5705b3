"""Per-layer tracing from outside the program.

Spans are recorded by wrappers that the benchmark installs over the public
entry points of each ulrich_forge module; no source file changes.  A wrapper
replaces the function at every import site (every ulrich_forge module that
bound the same object) and methods are patched on their classes, so calls
through `from .x import f` bindings are seen too.  Hot leaf functions get
counting wrappers only.  The lru_cache tables are not wrapped: their hit and
miss counts come from cache_info().
"""
from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter, defaultdict

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, job id)
        self.stack: list = []
        self.counts: Counter = Counter()
        self.totals: defaultdict = defaultdict(float)
        self.job_id = -1

    def timed(self, name, fn, after=None):
        """Wrap fn in a span; name may be a function of the call arguments;
        after(result, args, seconds) records extra counters."""
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (label, start, end, parent, self.job_id)
            if after is not None:
                after(result, args, end - start)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- reduction to metrics ---------------------------------------------

    def span_stats(self):
        """Per span name: calls, inclusive seconds (outermost spans of that
        name only, so recursion is not counted twice) and self seconds."""
        spans = self.spans
        child = [0.0] * len(spans)
        for label, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        stats = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (label, start, end, parent, _) in enumerate(spans):
            entry = stats[label]
            entry[0] += 1
            entry[2] += (end - start) - child[i]
            p = parent
            while p >= 0 and spans[p][0] != label:
                p = spans[p][3]
            if p < 0:
                entry[1] += end - start
        return stats

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], round(s[1], 7), round(s[2], 7), s[3], s[4]] for s in self.spans]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "names": names, "spans": rows}, fh)


def _replace_everywhere(original, wrapper):
    for name, module in list(sys.modules.items()):
        if name == "ulrich_forge" or name.startswith("ulrich_forge."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def install(tracer: Tracer):
    """Wrap the public entry points of every layer; returns a function that
    reads the cache counters."""
    from ulrich_forge import (cli, groebner, koszul, linalg, orders, parse, patterns,
                              pipelines, poly, reduction, report, semigroup, sequences,
                              subring)

    T = tracer

    def fn(module, attr, name, after=None):
        original = getattr(module, attr)
        _replace_everywhere(original, T.timed(name, original, after))

    def count_fn(module, attr, name):
        original = getattr(module, attr)
        _replace_everywhere(original, T.counted(name, original))

    def method(cls, attr, wrapper_of):
        setattr(cls, attr, wrapper_of(getattr(cls, attr)))

    fn(cli, "main", "cli.main")

    def v35_name(args, kwargs):
        field = args[1] if len(args) > 1 else kwargs.get("field")
        return "pipelines.verify35_q" if field is None or field.name == "Q" else "pipelines.verify35_fp"

    fn(pipelines, "verify_no_ulrich", v35_name)
    fn(pipelines, "verify_ulrich_equivalence", "pipelines.verify51")
    fn(pipelines, "verify_localization", "pipelines.verify37")

    def membership(original):
        timed = T.timed("subring.membership", original)

        def wrapper(self, z):
            if self._tag_basis is not None:
                return timed(self, z)
            start = clock()
            try:
                return timed(self, z)
            finally:
                T.totals["subring.tag_basis.s"] += clock() - start
        return wrapper

    method(subring.PresentedSubring, "membership", membership)
    fn(subring, "s2_multiplier_witness", "subring.s2_multiplier_witness")

    def basis_size(result, args, seconds):
        T.totals["groebner.buchberger.basis_polys"] += len(result)
        T.totals["groebner.buchberger.basis_terms"] += sum(len(g.terms) for g in result)

    fn(groebner, "buchberger", "groebner.buchberger", basis_size)
    fn(groebner, "reduce_poly", "groebner.reduce_poly")
    count_fn(groebner, "spolynomial", "groebner.spolynomial")

    def product_gens(result, args, seconds):
        T.totals["groebner.Ideal.product.gens_out"] += len(result.gens)

    method(groebner.Ideal, "product",
           lambda f: T.timed("groebner.Ideal.product", f, product_gens))
    method(groebner.Ideal, "intersection", lambda f: T.timed("groebner.Ideal.intersection", f))
    method(groebner.Ideal, "colength", lambda f: T.timed("groebner.Ideal.colength", f))
    fn(groebner, "ideal_multiplicity", "groebner.ideal_multiplicity")

    method(poly.Polynomial, "leading", lambda f: T.counted("poly.Polynomial.leading", f))
    for cls in (orders.Grevlex, orders.Lex, orders.BlockOrder):
        method(cls, "key", lambda f: T.counted("orders.key", f))

    fn(reduction, "is_integral", "reduction.is_integral")

    def inconclusive(result, args, seconds):
        T.counts["reduction.inconclusive"] += result.kind == reduction.INCONCLUSIVE

    fn(reduction, "is_reduction", "reduction.is_reduction", inconclusive)

    for attr in ("gap_set_auto", "multiplicity", "homogeneous_multiplicity",
                 "hilbert_samuel", "sg_member"):
        fn(semigroup, attr, f"semigroup.{attr}")

    original_monomial_r = koszul.koszul_monomial_R
    timed_monomial_r = T.timed("koszul.koszul_monomial_R", original_monomial_r)

    def monomial_r(*args, **kwargs):
        try:
            return timed_monomial_r(*args, **kwargs)
        except koszul.IncreaseBoundError:
            T.counts["koszul.increase_bound"] += 1
            raise

    _replace_everywhere(original_monomial_r, monomial_r)
    for attr in ("colon_module", "koszul_cyclic", "koszul_ideal_module", "koszul_finlen"):
        fn(koszul, attr, f"koszul.{attr}")

    fn(linalg, "mat_rank", "linalg.mat_rank")
    for attr in ("analyze", "rep_nu", "rep_tally", "torsion_reduce", "saturate_over_S"):
        fn(sequences, attr, f"sequences.{attr}")
    count_fn(patterns, "stabilized_difference", "patterns.stabilized_difference")
    method(report.VerificationReport, "to_json",
           lambda f: T.timed("report.VerificationReport.to_json", f))
    fn(parse, "parse_generator_list", "parse.parse_generator_list")

    member_set, ord_table = semigroup._member_set, semigroup._ord_table

    def cache_counters():
        m, o = member_set.cache_info(), ord_table.cache_info()
        return {"semigroup.member_set.hits": m.hits, "semigroup.member_set.misses": m.misses,
                "semigroup.member_set.entries": m.currsize,
                "semigroup.ord_table.hits": o.hits, "semigroup.ord_table.misses": o.misses}

    return cache_counters


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, caches: dict) -> dict:
    """The per-layer metrics of one traced pass, by name."""
    stats = tracer.span_stats()
    counts, totals = tracer.counts, tracer.totals

    def calls(name):
        return stats[name][0] if name in stats else 0

    def incl(name):
        return stats[name][1] if name in stats else 0.0

    def own(name):
        return stats[name][2] if name in stats else 0.0

    # Q against F_p over the verify-35 jobs the command line ran directly, so
    # both sides cover the same n (verify-37 nests extra Q runs).
    top = {"q": 0.0, "fp": 0.0}
    for label, start, end, parent, _ in tracer.spans:
        if label.startswith("pipelines.verify35_") and parent >= 0 \
                and tracer.spans[parent][0] == "cli.main":
            top[label.rsplit("_", 1)[1]] += end - start
    pipelines = ("pipelines.verify35_q", "pipelines.verify35_fp",
                 "pipelines.verify51", "pipelines.verify37")
    m = {
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": own("cli.main"),
        "pipelines.verify35_q.s": incl("pipelines.verify35_q"),
        "pipelines.verify35_fp.s": incl("pipelines.verify35_fp"),
        "pipelines.verify51.s": incl("pipelines.verify51"),
        "pipelines.verify37.s": incl("pipelines.verify37"),
        "pipelines.self_s": sum(own(p) for p in pipelines),
        "fields.fp_over_q": _ratio(top["fp"], top["q"]),
        "subring.membership.calls": calls("subring.membership"),
        "subring.membership.self_s": own("subring.membership"),
        "subring.tag_basis.s": totals["subring.tag_basis.s"],
        "subring.s2_multiplier_witness.s": incl("subring.s2_multiplier_witness"),
        "groebner.buchberger.calls": calls("groebner.buchberger"),
        "groebner.buchberger.s": incl("groebner.buchberger"),
        "groebner.buchberger.self_s": own("groebner.buchberger"),
        "groebner.buchberger.basis_polys": int(totals["groebner.buchberger.basis_polys"]),
        "groebner.buchberger.basis_terms": int(totals["groebner.buchberger.basis_terms"]),
        "groebner.reduce_poly.calls": calls("groebner.reduce_poly"),
        "groebner.reduce_poly.self_s": own("groebner.reduce_poly"),
        "groebner.spolynomial.calls": counts["groebner.spolynomial"],
        "groebner.Ideal.product.calls": calls("groebner.Ideal.product"),
        "groebner.Ideal.product.gens_out": int(totals["groebner.Ideal.product.gens_out"]),
        "groebner.Ideal.intersection.s": incl("groebner.Ideal.intersection"),
        "groebner.Ideal.colength.calls": calls("groebner.Ideal.colength"),
        "groebner.Ideal.colength.s": incl("groebner.Ideal.colength"),
        "groebner.ideal_multiplicity.s": incl("groebner.ideal_multiplicity"),
        "poly.Polynomial.leading.calls": counts["poly.Polynomial.leading"],
        "orders.key.calls": counts["orders.key"],
        "reduction.is_integral.calls": calls("reduction.is_integral"),
        "reduction.is_reduction.s": incl("reduction.is_reduction"),
        "reduction.is_reduction.self_s": own("reduction.is_reduction"),
        "reduction.inconclusive": counts["reduction.inconclusive"],
        "semigroup.gap_set_auto.s": incl("semigroup.gap_set_auto"),
        "semigroup.multiplicity.s": incl("semigroup.multiplicity"),
        "semigroup.homogeneous_multiplicity.s": incl("semigroup.homogeneous_multiplicity"),
        "semigroup.hilbert_samuel.calls": calls("semigroup.hilbert_samuel"),
        "semigroup.sg_member.calls": calls("semigroup.sg_member"),
        "semigroup.sg_member.s": incl("semigroup.sg_member"),
        "semigroup.member_set.hits": caches["semigroup.member_set.hits"],
        "semigroup.member_set.misses": caches["semigroup.member_set.misses"],
        "semigroup.member_set.hit_ratio": _ratio(
            caches["semigroup.member_set.hits"],
            caches["semigroup.member_set.hits"] + caches["semigroup.member_set.misses"]),
        "semigroup.member_set.entries": caches["semigroup.member_set.entries"],
        "semigroup.ord_table.hit_ratio": _ratio(
            caches["semigroup.ord_table.hits"],
            caches["semigroup.ord_table.hits"] + caches["semigroup.ord_table.misses"]),
        "koszul.koszul_monomial_R.calls": calls("koszul.koszul_monomial_R"),
        "koszul.koszul_monomial_R.s": incl("koszul.koszul_monomial_R"),
        "koszul.colon_module.s": incl("koszul.colon_module"),
        "koszul.koszul_cyclic.s": incl("koszul.koszul_cyclic"),
        "koszul.koszul_ideal_module.s": incl("koszul.koszul_ideal_module"),
        "koszul.koszul_finlen.s": incl("koszul.koszul_finlen"),
        "koszul.increase_bound": counts["koszul.increase_bound"],
        "linalg.mat_rank.calls": calls("linalg.mat_rank"),
        "linalg.mat_rank.s": incl("linalg.mat_rank"),
        "sequences.analyze.s": incl("sequences.analyze"),
        "sequences.rep_nu.s": incl("sequences.rep_nu"),
        "sequences.rep_tally.s": incl("sequences.rep_tally"),
        "sequences.torsion_reduce.s": incl("sequences.torsion_reduce"),
        "sequences.saturate_over_S.s": incl("sequences.saturate_over_S"),
        "patterns.stabilized_difference.calls": counts["patterns.stabilized_difference"],
        "report.VerificationReport.to_json.s": incl("report.VerificationReport.to_json"),
        "parse.parse_generator_list.s": incl("parse.parse_generator_list"),
    }
    return m
