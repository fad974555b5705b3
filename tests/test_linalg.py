"""The sparse fraction-free rank kernel against dense Gauss-Jordan."""
from fractions import Fraction

from hypothesis import given, strategies as st

from ulrich_forge.fields import QQ, PrimeField
from ulrich_forge.linalg import mat_rank

from oracles import naive_mat_rank

F7, F32003 = PrimeField(7), PrimeField(32003)


@st.composite
def matrices(draw, entries, field):
    """Rows of one width, with a zero row, a repeated row and a combination
    of two rows mixed in, so that ranks fall short of full."""
    width = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(entries, min_size=width, max_size=width), max_size=6))
    if rows and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    if len(rows) >= 2 and draw(st.booleans()):
        c = draw(entries)
        rows.append([field.add(field.mul(c, a), b) for a, b in zip(rows[0], rows[1])])
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [field.zero] * width)
    return draw(st.permutations(rows))


def mostly_zero(entries, zero):
    return st.one_of(st.just(zero), entries)


def agrees(rows, field):
    before = [list(r) for r in rows]
    rank = mat_rank(rows, field)
    assert rank == naive_mat_rank(rows, field)
    assert rank == mat_rank([{j: a for j, a in enumerate(r)} for r in rows], field)
    assert rows == before  # the kernel works on its own copies


@given(matrices(mostly_zero(st.fractions(-9, 9, max_denominator=6), QQ.zero), QQ))
def test_rational_ranks(rows):
    agrees(rows, QQ)


@given(matrices(mostly_zero(st.integers(0, 6), 0), F7))
def test_ranks_over_f7(rows):
    agrees(rows, F7)


@given(matrices(mostly_zero(st.integers(0, 32002), 0), F32003))
def test_ranks_over_f32003(rows):
    agrees(rows, F32003)


@given(matrices(mostly_zero(st.integers(-4, 4), 0), QQ))
def test_plain_integer_rows(rows):
    # the rows newton.py passes: lists of ints, the field left at Q
    assert mat_rank(rows) == naive_mat_rank(rows)
    agrees(rows, QQ)


def test_sparse_rows_with_tuple_columns():
    rows = [{(1, 0): Fraction(1, 2), (0, 2): Fraction(3)}, {(0, 2): Fraction(6), (1, 0): 1}, {}]
    assert mat_rank(rows) == 1
    assert mat_rank([]) == 0
