"""Polynomial arithmetic, monomial orders, and the text grammar."""
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from ulrich_forge import (
    GREVLEX,
    LEXICOGRAPHIC,
    BlockOrder,
    ParseError,
    PolyRing,
    PrimeField,
    parse_generator_list,
    parse_polynomial,
)
from ulrich_forge.parse import MAX_NESTING, _tokenize, infer_ring, read_clauses, split_top_level

from oracles import naive_add, naive_mul, naive_neg, naive_parse_polynomial, naive_pow

R = PolyRing(("x", "y"))


def p(text, ring=R):
    return parse_polynomial(text, ring)


class TestParse:
    def test_difference_of_squares(self):
        assert p("x^2 - y^2").terms == {(2, 0): 1, (0, 2): -1}

    def test_like_terms_collect(self):
        assert p("x*y + x*y").terms == {(1, 1): 2}

    def test_cancellation_gives_zero(self):
        assert p("x - x").is_zero

    def test_caret_binds_tightest(self):
        assert p("-x^2") == -p("x^2")
        assert p("(x+y)^2") == p("x^2 + 2*x*y + y^2")

    def test_integer_power_and_rational_coeff(self):
        assert p("2^3").constant_term() == 8
        assert p("1/2*x + 1/2*x") == p("x")

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError):
            p("2x")
        with pytest.raises(ParseError):
            p("x y")

    def test_unknown_variable(self):
        with pytest.raises(ParseError) as err:
            p("x + z")
        assert "z" in str(err.value)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            p("x +\n* y")
        assert err.value.line == 2

    def test_token_offsets_are_error_positions(self):
        text = "x,\ny^2,\n\t(x + y)*3"
        tokens = _tokenize(text, 7, len(text))
        assert [(kind, word) for kind, word, _ in tokens] == [
            ("OP", "("), ("IDENT", "x"), ("OP", "+"), ("IDENT", "y"), ("OP", ")"),
            ("OP", "*"), ("INT", "3"), ("END", "")]
        # the tab counts as one column, so "(" sits in column 2 of line 3
        for _, word, offset in tokens:
            err = ParseError.at(text, offset, "here")
            assert (err.line, err.column) == (3, offset - 7)
            assert text[offset:].startswith(word)
        with pytest.raises(ParseError) as err:
            parse_generator_list("x,\ny^2,\n\t(x + y)*z", R)
        assert str(err.value) == "unknown variable 'z' (line 3, column 10)"

    def test_superscript_digits_are_refused_where_they_stand(self):
        with pytest.raises(ParseError) as err:
            p("x^\u00b2")
        assert (str(err.value), err.value.column) == (
            "unexpected character '\u00b2' (line 1, column 3)", 3)
        # after a letter too: a word is refused at its first character
        # that cannot continue an identifier
        for text, column in (("y\u00b2", 2), ("x + ab\u00b2c", 7), ("x*y$z", 4)):
            with pytest.raises(ParseError) as err:
                p(text)
            assert str(err.value).endswith(f"(line 1, column {column})")
            assert str(err.value).startswith(f"unexpected character {text[column - 1]!r}")
        # other scripts' decimal digits still read as integers
        assert p("x^\u0663") == p("x^3")

    def test_every_identifier_is_a_variable_name(self):
        names = ("\u00e9t\u00e9", "x_1", "\u00df\u0663", "_")
        ring = infer_ring([" + ".join(names)])
        assert set(ring.variables) == set(names)
        assert parse_polynomial("\u00e9t\u00e9*x_1", ring) == ring.var("x_1") * ring.var("\u00e9t\u00e9")

    def test_nesting_limit(self):
        assert p("y*" + "(" * 100 + "x" + ")" * 100) == p("x*y")
        with pytest.raises(ParseError) as err:
            p("y*" + "(" * 101 + "x" + ")" * 101)
        assert (err.value.line, err.value.column) == (1, 103)

    def test_list_error_columns_count_from_the_whole_input(self):
        for text, column in (("x, y + $", 8), ("  (x*y, x^2 ? y)", 13),
                             ("x," + "(" * 101 + "x" + ")" * 101, 103)):
            with pytest.raises(ParseError) as err:
                parse_generator_list(text, R)
            assert (err.value.line, err.value.column) == (1, column)
        with pytest.raises(ParseError) as err:
            parse_generator_list("x,\n  y + $", R)
        assert (err.value.line, err.value.column) == (2, 7)

    def test_over_long_integer_literals_are_positioned(self):
        # past Python's limit on converting digits to an int, every literal
        # (coefficient, denominator, exponent, in a family template too) is
        # an error at its first digit
        ones = "1" * 5000
        limit = sys.get_int_max_str_digits()
        for text, column in ((ones + "*x", 1), ("x + 1/" + ones, 7), ("x^" + ones, 3),
                             ("y - 2/3*x^" + ones, 11)):
            with pytest.raises(ParseError) as err:
                p(text)
            assert str(err.value) == (f"integer literal of 5000 digits is longer than "
                                      f"{limit} digits (line 1, column {column})")
        with pytest.raises(ParseError) as err:
            parse_generator_list("x,\n y^n + " + ones, R, values={"n": 2})
        assert (err.value.line, err.value.column) == (2, 8)
        assert p("x^" + "0" * 4000 + "3") == p("x^3")

    def test_negative_index_as_exponent_is_refused(self):
        # a family's index read in place of n may be negative; as an
        # exponent it is refused where n stands, before any power is taken
        with pytest.raises(ParseError) as err:
            parse_generator_list("y, x^n", R, values={"n": -1})
        assert str(err.value) == "exponent must be a non-negative integer literal (line 1, column 6)"
        assert parse_generator_list("n*x^2", R, values={"n": -1}) == [p("-x^2")]

    def test_unit_exponents_are_outside_ring_equality(self):
        ring = PolyRing(("x", "y", "z"))
        assert ring.unit_exponents == {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)}
        assert ring == PolyRing(("x", "y", "z")) and hash(ring) == hash(PolyRing(("x", "y", "z")))
        assert repr(ring) == f"PolyRing(variables=('x', 'y', 'z'), field={ring.field!r})"
        with pytest.raises(ValueError, match="'w' is not a variable of the ring"):
            ring.var("w")

    def test_nonprime_modulus_rejected(self):
        with pytest.raises(ValueError):
            PrimeField(6)

    def test_prime_field_arithmetic(self):
        ring = PolyRing(("x", "y"), PrimeField(5))
        q = parse_polynomial("3*x + 3*x", ring)
        assert q.terms == {(1, 0): 1}


class TestArithmetic:
    def test_product_difference_of_squares(self):
        assert p("x+y") * p("x-y") == p("x^2 - y^2")

    def test_mul_by_zero(self):
        assert (p("x+y") * R.zero()).is_zero

    def test_sum_cancels(self):
        assert p("x^2-y^2") + p("y^2") == p("x^2")

    def test_power(self):
        assert p("x+y") ** 3 == p("x^3 + 3*x^2*y + 3*x*y^2 + y^3")

    def test_rational_hashes_repeat_across_processes(self):
        # a set of polynomials iterates in the order of these hashes; under
        # a fixed string-hash seed they must not depend on where the field
        # object happens to live in memory
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
        code = ("from ulrich_forge import PolyRing, parse_polynomial\n"
                "print(hash(parse_polynomial('x^2 - 3/2*y + 1', PolyRing(('x', 'y')))))")
        hashes = {subprocess.run([sys.executable, "-c", code], capture_output=True,
                                 text=True, env=env, check=True).stdout for _ in range(2)}
        assert len(hashes) == 1


class TestOrders:
    def test_grevlex_equal_degree_rule(self):
        assert GREVLEX.key((2, 0)) > GREVLEX.key((1, 1))

    def test_reflexive(self):
        assert GREVLEX.key((3, 4)) == GREVLEX.key((3, 4))

    def test_lex_rule(self):
        assert LEXICOGRAPHIC.key((0, 5)) < LEXICOGRAPHIC.key((1, 0))

    def test_degree_dominates_grevlex(self):
        assert GREVLEX.key((1, 1)) < GREVLEX.key((3, 0))

    def test_elimination_block_dominates(self):
        order = BlockOrder(split=1)
        # any monomial meeting the first variable beats any that does not
        assert order.key((1, 0, 0)) > order.key((0, 9, 9))


coeffs = st.integers(min_value=-9, max_value=9)
exps = st.tuples(st.integers(0, 4), st.integers(0, 4))
polys = st.dictionaries(exps, coeffs, min_size=0, max_size=5).map(
    lambda d: R.poly({k: R.field.from_int(v) for k, v in d.items()})
)
orders = st.sampled_from([GREVLEX, LEXICOGRAPHIC, BlockOrder(split=1)])


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(exps, exps, exps, orders)
def test_order_total_and_multiplicative(u, v, w, order):
    ku, kv = order.key(u), order.key(v)
    # antisymmetric: equal keys only for equal vectors, and exactly one of <, =, >
    assert (ku == kv) == (u == v)
    assert (ku < kv) == (kv > ku)
    if ku < kv:
        uw = tuple(a + b for a, b in zip(u, w))
        vw = tuple(a + b for a, b in zip(v, w))
        assert order.key(uw) < order.key(vw)
    assert order.key((0, 0)) <= ku


@given(st.lists(st.integers(0, 4), min_size=3, max_size=3).map(tuple),
       st.lists(st.integers(0, 4), min_size=3, max_size=3).map(tuple),
       st.sampled_from([GREVLEX, LEXICOGRAPHIC, BlockOrder(split=1), BlockOrder(split=2)]))
def test_descending_key_reverses_the_order(u, v, order):
    # the reducer's heap pops the smallest descending key first
    assert (order.descending_key(u) < order.descending_key(v)) == (order.key(u) > order.key(v))
    assert all(isinstance(k, int) for k in order.descending_key(u))


@given(polys)
def test_print_parse_roundtrip(a):
    assert parse_polynomial(a.to_str(), R) == a


def test_print_parse_roundtrip_bulk():
    rng = random.Random(20240817)
    for _ in range(1000):
        terms = {}
        for _ in range(rng.randrange(0, 6)):
            e = (rng.randrange(0, 7), rng.randrange(0, 7))
            c = rng.randrange(-50, 51)
            if c:
                terms[e] = R.field.from_int(c)
        q = R.poly(terms)
        assert parse_polynomial(q.to_str(), R) == q


PARSE_FIELDS = [R.field, PrimeField(7), PrimeField(32003)]


def _listed(poly):
    return [(e, type(c), c) for e, c in poly.terms.items()]


def _outcome(parse, text, ring):
    """The terms of parse(text, ring) in dict order, coefficient types
    included, or the ParseError's message and position."""
    try:
        return _listed(parse(text, ring))
    except ParseError as err:
        return str(err), err.line, err.column


_atoms = st.one_of(
    st.sampled_from(["x", "y"]),
    st.integers(0, 12).map(str),
    st.tuples(st.integers(0, 30), st.integers(1, 9)).map(lambda t: f"{t[0]}/{t[1]}"),
)


def _compound(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from([" + ", " - ", " * ", "+", "-", "*"]), inner)
        .map("".join),
        st.tuples(inner, st.integers(0, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(_atoms, st.integers(0, 5)).map(lambda t: f"{t[0]}^{t[1]}"),
        st.tuples(st.text("+- ", min_size=1, max_size=4), inner).map("".join),
        inner.map(lambda e: f"({e})"),
    )


# sums of products and powers, nested, with unary sign chains and a/b literals
_expressions = st.recursive(_atoms, _compound, max_leaves=10)


@st.composite
def _printed(draw, ring):
    exps = st.tuples(st.integers(0, 5), st.integers(0, 5))
    terms = draw(st.dictionaries(exps, st.integers(-40, 40), max_size=6))
    return ring.poly({e: ring.field.from_int(c) for e, c in terms.items()}).to_str()


@st.composite
def _recombined(draw, ring):
    """A generator list shaped like the benchmark's recombined ideals: each
    generator gets multiples of the later ones by terms of degree <= 1."""
    gens = draw(st.lists(_printed(ring), min_size=1, max_size=4))
    out = []
    for i, g in enumerate(gens):
        text = f"({g})"
        for h in gens[i + 1:]:
            if draw(st.booleans()):
                c = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
                mono = draw(st.sampled_from(["1", "x", "y"]))
                text += f" + ({c}*{mono})*({h})"
        out.append(text)
    return ", ".join(out)


@given(st.sampled_from(PARSE_FIELDS), st.data())
def test_term_arithmetic_equals_schoolbook(fld, data):
    # the term functions behind + - * ** and negation, monomial shortcuts
    # included, against the schoolbook forms: equal terms in equal order
    ring = PolyRing(("x", "y"), fld)
    coeffs = st.builds(lambda a, b: fld.div(fld.from_int(a), fld.from_int(b)),
                       st.integers(-9, 9), st.sampled_from([1, 2, 3]))
    polys = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), coeffs,
                            max_size=4).map(ring.poly)
    a, b, k = data.draw(polys), data.draw(polys), data.draw(st.integers(0, 7))
    assert _listed(a + b) == _listed(naive_add(a, b))
    assert _listed(a - b) == _listed(naive_add(a, b, -1))
    assert _listed(-a) == _listed(naive_neg(a))
    assert _listed(a * b) == _listed(naive_mul(a, b))
    assert _listed(a ** k) == _listed(naive_pow(a, k))


class TestParserOracle:
    """The term-dict parser against the Polynomial-building parser it
    replaced: the same terms in the same dict order, the same errors."""

    @given(st.sampled_from(PARSE_FIELDS), st.data())
    def test_terms_equal_oracle(self, fld, data):
        ring = PolyRing(("x", "y"), fld)
        text = data.draw(st.one_of(_expressions, _printed(ring)))
        try:
            want = _outcome(naive_parse_polynomial, text, ring)
        except ZeroDivisionError:  # a denominator that is 0 in F_p
            with pytest.raises(ZeroDivisionError):
                parse_polynomial(text, ring)
            return
        assert _outcome(parse_polynomial, text, ring) == want

    @given(st.sampled_from(PARSE_FIELDS), st.data())
    def test_recombined_lists_equal_oracle(self, fld, data):
        ring = PolyRing(("x", "y"), fld)
        text = data.draw(_recombined(ring))
        got = [_listed(g) for g in parse_generator_list(text, ring)]
        want = [_listed(naive_parse_polynomial(text, ring, a, b))
                for a, b in split_top_level(text, sep=",")]
        assert got == want

    @given(_expressions, st.integers(0, 40), st.sampled_from(
        ["2", "x", "z", "(", ")", "^", "^-", "*", "/", "/0", "+", " ", "\n", "$"]))
    def test_spliced_text_fails_like_the_oracle(self, text, at, splice):
        # one token spliced in anywhere: mostly malformed text, whose error
        # must read the same, at the same line and column
        at = min(at, len(text))
        text = text[:at] + splice + text[at:]
        assert _outcome(parse_polynomial, text, R) == _outcome(naive_parse_polynomial, text, R)

    @pytest.mark.parametrize("text", [
        "2x", "x y", "x (y)", "(x)(y)", "3 4",
        "x^y", "x^-1", "x^", "x^(2)", "2^1/2",
        "y*" + "(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1),
        "x + z", "x*(y - w)^2",
        "x)", "x^2^3", "x + y,",
        "1/x", "1/0", "x +", "",
    ])
    def test_malformed_text_fails_like_the_oracle(self, text):
        want = _outcome(naive_parse_polynomial, text, R)
        assert isinstance(want, tuple)
        assert _outcome(parse_polynomial, text, R) == want


class TestSplitTopLevel:
    def test_cuts_only_outside_brackets(self):
        text = " a=(1, 2)  b=[x, {y z}]\n c "
        assert [text[a:b] for a, b in split_top_level(text)] == [
            "a=(1, 2)", "b=[x, {y z}]", "c"]
        text = "(x, y), , z ,"
        assert [text[a:b] for a, b in split_top_level(text, sep=",")] == [
            "(x, y)", "", "z", ""]

    def test_spans_count_from_the_start_of_text(self):
        assert split_top_level("ring x, y^2 ;", 5, 12, ",") == [(5, 6), (8, 11)]

    @pytest.mark.parametrize("text, message, position", [
        ("(x]", "expected ')', found ']'", (1, 3)),
        ("x)", "unmatched ')'", (1, 2)),
        ("a\n [b (c)", "'[' is never closed", (2, 2)),
        ("{[(", "'{' is never closed", (1, 1)),
    ])
    def test_bracket_errors_are_positioned(self, text, message, position):
        with pytest.raises(ParseError) as err:
            split_top_level(text)
        assert str(err.value).startswith(message + " (")
        assert (err.value.line, err.value.column) == position

    def test_generator_list_unwraps_only_a_wrapping_pair(self):
        assert parse_generator_list("(x, y)", R) == [p("x"), p("y")]
        assert parse_generator_list("(x)*(y)", R) == [p("x*y")]
        assert parse_generator_list("(x), (y)", R) == [p("x"), p("y")]
        assert parse_generator_list("ring g=[x, y^2]", R, 8, 14) == [p("x"), p("y^2")]


class TestReadClauses:
    KEYS = {"a": "[]", "b": ""}

    def test_values_and_bracket_insides(self):
        text = "spec a=[1, 2]\n  b=(3 4)"
        clauses = read_clauses(text, 4, len(text), self.KEYS, "clause")
        assert {k: text[a:b] for k, (a, b) in clauses.items()} == {"a": "1, 2", "b": "(3 4)"}

    @pytest.mark.parametrize("text, message, position", [
        ("a=[1] c=2", "clause 'c': unknown key; expected one of a, b", (1, 7)),
        ("b=1\nb=2", "clause 'b': repeated key", (2, 1)),
        ("a=1", r"clause 'a' must be \[\.\.\.\]", (1, 3)),
        ("a=", r"clause 'a' must be \[\.\.\.\]", (1, 3)),
    ])
    def test_bad_clauses_are_positioned(self, text, message, position):
        with pytest.raises(ParseError, match=message) as err:
            read_clauses(text, 0, len(text), self.KEYS, "clause")
        assert (err.value.line, err.value.column) == position

    def test_clause_without_equals_is_named(self):
        with pytest.raises(ValueError, match="^clause 'b' is not key=value$"):
            read_clauses("a=[1] b", 0, 7, self.KEYS, "clause")


class TestVariableNames:
    @pytest.mark.parametrize("names", [("x", ""), ("x", " y"), ("x", "1y"), ("x", "y-z")])
    def test_non_identifiers_rejected(self, names):
        with pytest.raises(ValueError, match="is not an identifier"):
            PolyRing(names)

    def test_internal_tag_names_allowed(self):
        assert PolyRing(("_t", "x", "_g1")).nvars == 3

    def test_infer_ring_strips_given_names(self):
        assert infer_ring([], variables=("x", " y ")).variables == ("x", "y")
