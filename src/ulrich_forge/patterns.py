"""Finite-difference certificates: exact polynomial fits for integer
sequences as polynomials in n, and exact limits of their ratios.

Every "limit" the toolkit reports as exact is backed by one of these
certificates; anything else is flagged as finite-index evidence.
"""
from __future__ import annotations

from .poly import PolyRing

# Least tail over which a difference level must be constant to fit a polynomial.
FIT_MIN_TAIL = 4


class InconclusiveError(RuntimeError):
    """A search ran out of its budget; the message names the budget as
    NAME=value."""


def forward_differences(values) -> list[list]:
    levels = [list(values)]
    while len(levels[-1]) > 1:
        prev = levels[-1]
        levels.append([b - a for a, b in zip(prev, prev[1:])])
    return levels


# The benchmark's tracer (perfbench/tracing.py) counts stabilized_difference
# calls by name; it and its window serve no path of the program.
STABLE_WINDOW = 3


def stabilized_difference(values, order: int):
    """The value of the order-th difference when its last STABLE_WINDOW
    entries agree, else None; a window, not a proof."""
    tail = forward_differences(values)[order][-STABLE_WINDOW:] if len(values) > order else ()
    return tail[0] if len(tail) == STABLE_WINDOW and len(set(tail)) == 1 else None


def value_at(p, n: int):
    """The value at n of a polynomial p in one variable."""
    return sum(c * n ** e for (e,), c in p.terms.items())


def fit_polynomial(values, start_index: int = 1):
    """The polynomial in n reproducing an integer sequence indexed from
    start_index, certified by a difference level constant over at least
    FIT_MIN_TAIL entries and checked at every index; None when no level is
    constant.  Built in Newton's forward-difference form:
    sum of levels[j][0] * C(n - start_index, j)."""
    if len(values) < FIT_MIN_TAIL:
        return None
    levels = forward_differences(values)
    for k, level in enumerate(levels):
        if len(level) >= FIT_MIN_TAIL and all(x == level[0] for x in level):
            ring = PolyRing(("n",))
            fld, n = ring.field, ring.var("n")
            fit, binomial = ring.zero(), ring.one()
            for j in range(k + 1):
                if j:
                    step = n - ring.const(start_index + j - 1)
                    binomial = (binomial * step).scale(fld.inv(j))
                fit += binomial.scale(levels[j][0])
            if any(value_at(fit, start_index + i) != v for i, v in enumerate(values)):
                return None
            return fit
    return None


def ratio_limit(num, den):
    """Exact limit of num(n)/den(n) as n grows; None when the ratio diverges."""
    fld = num.ring.field
    dn, dd = num.total_degree(), den.total_degree()
    if dd == -1:
        raise ZeroDivisionError("zero denominator sequence")
    if dn < dd:
        return fld.zero
    if dn == dd:
        return fld.div(num.terms[(dn,)], den.terms[(dd,)])
    return None


def format_ratio(num, den) -> str:
    num, den = str(num), str(den)
    if den == "1":
        return num
    num_s = num if ("+" not in num and "- " not in num) else f"({num})"
    den_s = den if ("+" not in den and "- " not in den) else f"({den})"
    return f"{num_s}/{den_s}"
