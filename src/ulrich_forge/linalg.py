"""Exact Gaussian elimination over the coefficient fields (no floating point)."""
from __future__ import annotations

from .fields import QQ


def mat_rank(rows, field=QQ) -> int:
    """Rank of a matrix given as a list of rows of field elements."""
    work = [list(r) for r in rows]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, len(work)):
            if not field.is_zero(work[r][col]):
                pivot = r
                break
        if pivot is None:
            continue
        work[row], work[pivot] = work[pivot], work[row]
        inv = field.inv(work[row][col])
        work[row] = [field.mul(inv, x) for x in work[row]]
        for r in range(len(work)):
            if r != row and not field.is_zero(work[r][col]):
                factor = work[r][col]
                work[r] = [field.sub(a, field.mul(factor, b)) for a, b in zip(work[r], work[row])]
        row += 1
        rank += 1
        if row == len(work):
            break
    return rank


def mat_mul(a, b, field=QQ):
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = [[field.zero] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        for t in range(k):
            c = ai[t]
            if field.is_zero(c):
                continue
            bt = b[t]
            row = out[i]
            for j in range(m):
                if not field.is_zero(bt[j]):
                    row[j] = field.add(row[j], field.mul(c, bt[j]))
    return out


def identity(n, field=QQ):
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def zero_matrix(n, m, field=QQ):
    return [[field.zero] * m for _ in range(n)]


def is_zero_matrix(a, field=QQ) -> bool:
    return all(field.is_zero(x) for row in a for x in row)
