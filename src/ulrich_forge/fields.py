"""Exact coefficient fields: the rationals and prime fields F_p.

A coefficient over F_p is a Python int in ``[0, p)``.  A rational is a
Python int when it is integral and a ``fractions.Fraction`` with a
denominator other than 1 otherwise; the field operations of
`RationalField` decide that form, and no other module knows it.  The two
mix freely: they compare, hash and print alike (``3 == Fraction(3)``,
``hash(3) == hash(Fraction(3))``, both print ``3``), and ``+ - *`` between
them are exact.  Only ``/`` differs, since it gives a float on two ints, so
coefficients are divided by `div` and `inv` alone.  No floating point
anywhere.  The Groebner kernel does not compute with these: it works on
integer images of polynomials (coprime integers over Q, monic residues over
F_p) through three hooks, `integer_image`, `scale_pair` and `residue`, and
turns a result back into field elements only at the end.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import index


class RationalField:
    """The rational numbers: an int when integral, else a Fraction."""

    name = "Q"
    zero = 0
    one = 1

    def from_int(self, n: int) -> int:
        return index(n)

    def add(self, a, b):
        c = a + b
        return c if type(c) is int or c.denominator != 1 else c.numerator

    def sub(self, a, b):
        c = a - b
        return c if type(c) is int or c.denominator != 1 else c.numerator

    def mul(self, a, b):
        c = a * b
        return c if type(c) is int or c.denominator != 1 else c.numerator

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return self.div(1, a)

    def div(self, a, b):
        c = Fraction(a, b)
        return c if c.denominator != 1 else c.numerator

    def is_zero(self, a) -> bool:
        return not a

    def integer_image(self, coeffs, lead):
        """Coprime integers n_i and a ratio (num, den) with
        coeffs[i] == n_i * num / den, the image of lead being positive."""
        den = lcm(*[c.denominator for c in coeffs])
        ints = [c.numerator * (den // c.denominator) for c in coeffs]
        g = gcd(*ints)
        if lead < 0:
            g = -g
        return [n // g for n in ints], g, den

    def scale_pair(self, a, c):
        """(k, f), smallest with k*c == f*a: k*work - f*term cancels the
        term c of work against the leading coefficient a (a > 0)."""
        if a == 1:
            return 1, c
        g = gcd(a, c)
        return a // g, c // g

    def residue(self, n: int) -> int:
        """The integer that stands for n in this field: n itself."""
        return n

    def split_sign(self, a):
        """(sign, magnitude) used by the printer; sign is +1 or -1."""
        return (-1, -a) if a < 0 else (1, a)

    def coeff_str(self, a) -> str:
        return str(a)

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("RationalField")

    def __repr__(self) -> str:
        return "QQ"


QQ = RationalField()


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """F_p for a prime p; elements are ints in [0, p)."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    @property
    def name(self) -> str:
        return f"F_{self.p}"

    def from_int(self, n: int) -> int:
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def integer_image(self, coeffs, lead):
        """The residues n_i of coeffs / lead, and the ratio (lead, 1), so
        coeffs[i] == n_i * lead and the image of lead is 1."""
        p = self.p
        inv = pow(lead, p - 2, p)
        return [c * inv % p for c in coeffs], lead % p, 1

    def scale_pair(self, a, c):
        """(1, c) for a == 1, the leading coefficient of every monic image:
        no multiple of the running polynomial is ever needed."""
        return 1, c

    def residue(self, n: int) -> int:
        """The integer in [0, p) that stands for n."""
        return n % self.p

    def split_sign(self, a):
        return (1, a)

    def coeff_str(self, a) -> str:
        return str(a)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"


def field_from_name(spec: str):
    """Parse a field spec: "q" for the rationals, "fp:P" for F_P."""
    s = spec.strip().lower()
    if s in ("q", "qq"):
        return QQ
    if s.startswith("fp:") and s[3:].isascii() and s[3:].isdigit():
        return PrimeField(int(s[3:]))
    raise ValueError(f"unknown field spec {spec!r} (expected q or fp:P)")
