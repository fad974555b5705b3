"""Finite-difference certificates: exact polynomial fits for integer
sequences, and exact limits of ratios of fitted polynomials.

Every "limit" the toolkit reports as exact is backed by one of these
certificates; anything else is flagged as finite-index evidence.
"""
from __future__ import annotations

import math
from fractions import Fraction

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


def _binomial_poly(j: int, offset: int) -> list[Fraction]:
    """Coefficients (low to high) of C(n - offset, j) as a polynomial in n."""
    coeffs = [Fraction(1)]
    for i in range(j):
        root = offset + i
        new = [Fraction(0)] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            new[k + 1] += c
            new[k] -= c * root
        coeffs = new
    return [c / Fraction(math.factorial(j)) for c in coeffs]


def fit_polynomial(values, start_index: int = 1):
    """Exact polynomial (coefficients low to high, in the index variable)
    reproducing an integer sequence, certified by a difference level constant
    over at least FIT_MIN_TAIL entries; None when no level is constant."""
    if len(values) < FIT_MIN_TAIL:
        return None
    levels = forward_differences(values)
    for k, level in enumerate(levels):
        if len(level) >= FIT_MIN_TAIL and all(x == level[0] for x in level):
            coeffs = [Fraction(0)] * (k + 1)
            for j in range(k + 1):
                delta = levels[j][0]
                for idx, c in enumerate(_binomial_poly(j, start_index)):
                    coeffs[idx] += delta * c
            for n, v in enumerate(values):
                if poly_eval(coeffs, start_index + n) != v:
                    return None
            return tuple(coeffs)
    return None


def poly_eval(coeffs, n: int) -> Fraction:
    out = Fraction(0)
    power = Fraction(1)
    for c in coeffs:
        out += c * power
        power *= n
    return out


def poly_degree(coeffs) -> int:
    deg = -1
    for i, c in enumerate(coeffs):
        if c != 0:
            deg = i
    return deg


def ratio_limit(num_coeffs, den_coeffs):
    """Exact limit of num(n)/den(n) as n grows; None when the ratio diverges."""
    dn, dd = poly_degree(num_coeffs), poly_degree(den_coeffs)
    if dd == -1:
        raise ZeroDivisionError("zero denominator sequence")
    if dn == -1:
        return Fraction(0)
    if dn < dd:
        return Fraction(0)
    if dn == dd:
        return Fraction(num_coeffs[dn]) / Fraction(den_coeffs[dd])
    return None


def format_poly_in_n(coeffs) -> str:
    deg = poly_degree(coeffs)
    if deg == -1:
        return "0"
    parts = []
    for i in range(deg, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            mono = ""
        elif i == 1:
            mono = "n"
        else:
            mono = f"n^{i}"
        if mono and abs(c) == 1:
            body = mono
        elif mono:
            body = f"{c}*{mono}"
        else:
            body = str(c)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def format_ratio(num_coeffs, den_coeffs) -> str:
    num = format_poly_in_n(num_coeffs)
    den = format_poly_in_n(den_coeffs)
    if den == "1":
        return num
    num_s = num if ("+" not in num and "- " not in num) else f"({num})"
    den_s = den if ("+" not in den and "- " not in den) else f"({den})"
    return f"{num_s}/{den_s}"
