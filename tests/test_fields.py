"""Rationals as ints when integral: QQ against the all-Fraction field.

Every operation must give the same values over QQ as over FractionField, and
QQ's coefficients must come out in one form: an int when integral, else a
Fraction with a denominator other than 1, never a float.
"""
from fractions import Fraction

from hypothesis import given, strategies as st

from ulrich_forge import Ideal, PolyRing, parse_polynomial
from ulrich_forge.fields import QQ, field_from_name
from ulrich_forge.groebner import buchberger
from ulrich_forge.linalg import mat_rank
from ulrich_forge.orders import GREVLEX, LEXICOGRAPHIC

from oracles import FractionField, naive_mat_rank

FF = FractionField()
RQ, RF = PolyRing(("x", "y")), PolyRing(("x", "y"), FF)


def canonical(c) -> bool:
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def agree(p, q):
    """p over QQ and q over FractionField are one polynomial, p's
    coefficients in canonical form and q's all Fractions."""
    assert p.terms == q.terms
    assert str(p) == str(q)
    assert all(canonical(c) for c in p.terms.values())
    assert all(type(c) is Fraction for c in q.terms.values())


rationals = st.tuples(st.integers(-9, 9), st.sampled_from((1, 1, 2, 3, 4, 6)))
polys = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                        rationals.filter(lambda r: r[0]), max_size=4)


def text(terms) -> str:
    """The polynomial sum of n/d*x^a*y^b over terms {(a, b): (n, d)}."""
    out = []
    for (a, b), (n, d) in terms.items():
        sign = "-" if n < 0 else ("+" if out else "")
        out.append(f"{sign} {abs(n)}/{d}*x^{a}*y^{b}")
    return " ".join(out) or "0"


def both(terms):
    t = text(terms)
    return parse_polynomial(t, RQ), parse_polynomial(t, RF)


@given(polys, polys, st.integers(0, 3))
def test_arithmetic_agrees(a, b, k):
    (pa, fa), (pb, fb) = both(a), both(b)
    agree(pa, fa)
    agree(pa + pb, fa + fb)
    agree(pa - pb, fa - fb)
    agree(pa * pb, fa * fb)
    agree(pa ** k, fa ** k)
    agree(pa.monic(), fa.monic())


def test_parse_gives_ints_for_integral_literals():
    p = parse_polynomial("4/2*x - 6/4 + 3/3*y", RQ)
    assert p.terms == {(1, 0): 2, (0, 0): Fraction(-3, 2), (0, 1): 1}
    assert all(canonical(c) for c in p.terms.values())


def test_field_operations_normalise():
    assert QQ.zero == 0 and type(QQ.zero) is int and type(QQ.one) is int
    assert type(QQ.add(Fraction(1, 2), Fraction(1, 2))) is int
    assert type(QQ.sub(Fraction(5, 3), Fraction(2, 3))) is int
    assert type(QQ.mul(Fraction(2, 3), 3)) is int
    assert QQ.div(3, 6) == Fraction(1, 2) and type(QQ.div(6, 3)) is int
    assert QQ.inv(-1) == -1 and QQ.inv(Fraction(1, 3)) == 3 and type(QQ.inv(Fraction(1, 3))) is int
    assert QQ == field_from_name("q") and hash(QQ) == hash(field_from_name("qq"))


@given(st.lists(polys, min_size=1, max_size=3), polys,
       st.sampled_from((GREVLEX, LEXICOGRAPHIC)))
def test_groebner_agrees(gens, h, order):
    pairs = [both(g) for g in gens]
    basis_q = buchberger([p for p, _ in pairs], order)
    basis_f = buchberger([f for _, f in pairs], order)
    assert len(basis_q) == len(basis_f)
    for p, f in zip(basis_q, basis_f):
        agree(p, f)
    ph, fh = both(h)
    agree(Ideal([p for p, _ in pairs], order).normal_form(ph),
          Ideal([f for _, f in pairs], order, RF).normal_form(fh))


@given(st.integers(1, 5).flatmap(lambda w: st.lists(
    st.lists(st.one_of(st.just((0, 1)), rationals), min_size=w, max_size=w), max_size=5)))
def test_ranks_agree(rows):
    q_rows = [[QQ.div(n, d) for n, d in row] for row in rows]
    f_rows = [[Fraction(n, d) for n, d in row] for row in rows]
    assert all(canonical(c) for row in q_rows for c in row if c)
    rank = mat_rank(q_rows)
    assert rank == mat_rank(f_rows, FF) == naive_mat_rank(f_rows, FF) == naive_mat_rank(q_rows)
