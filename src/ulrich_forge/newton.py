"""Newton polygons of plane exponent sets.

For a monomial ideal I of k[x, y] primary to the origin, the integral closure
of I is spanned by the monomials in its Newton polyhedron conv(exponents) +
R^2_+, so e(I) is twice the area of the region of the positive quadrant below
that polyhedron (Kouchnirenko 1976).  The same value is the multiplicity of a
finite-colength monomial subring R with those exponents as generators: S =
k[x, y] is finite and birational over R, so e(R) = e(m_R * S).
"""
from __future__ import annotations


def newton_multiplicity(points) -> int:
    """Twice the area of the region of the positive quadrant below the
    Newton polygon of plane exponents, some on each axis.

    The compact edges of the polyhedron form the lower convex chain from
    (0, y0) to (x0, 0), the lowest axis points; only the lowest point of
    each column up to x0 can lie on it.  The area is summed edge by edge
    as trapezoids over the x-axis."""
    lowest: dict = {}
    for x, y in points:
        if y < lowest.get(x, y + 1):
            lowest[x] = y
    if 0 not in lowest or all(y for y in lowest.values()):
        raise ValueError("the Newton polygon needs a point on each axis")
    x0 = min(x for x, y in lowest.items() if y == 0)
    chain: list = []
    for p in sorted((x, y) for x, y in lowest.items() if x <= x0):
        while len(chain) >= 2:
            (ax, ay), (bx, by) = chain[-2], chain[-1]
            if (bx - ax) * (p[1] - ay) > (by - ay) * (p[0] - ax):
                break  # b lies strictly below the segment from a to p
            chain.pop()
        chain.append(p)
    return sum((bx - ax) * (ay + by) for (ax, ay), (bx, by) in zip(chain, chain[1:]))
