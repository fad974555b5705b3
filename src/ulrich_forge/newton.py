"""Convex chains of plane exponents: Newton polygons and lattice polygons.

For a monomial ideal I of k[x, y] primary to the origin, the integral closure
of I is spanned by the monomials in its Newton polyhedron conv(exponents) +
R^2_+, so e(I) is twice the area of the region of the positive quadrant below
that polyhedron (Kouchnirenko 1976).  The same value is the multiplicity of a
finite-colength monomial subring R with those exponents as generators: S =
k[x, y] is finite and birational over R, so e(R) = e(m_R * S).
"""
from __future__ import annotations


def lower_chain(points):
    """The lower convex chain of plane points, left to right, and twice the
    signed area between it and the x-axis, summed edge by edge as trapezoids.
    A vertex is a column's lowest point strictly below its neighbours' segment."""
    lowest: dict = {}
    for x, y in points:
        if y < lowest.get(x, y + 1):
            lowest[x] = y
    chain: list = []
    for p in sorted(lowest.items()):
        while len(chain) >= 2:
            (ax, ay), (bx, by) = chain[-2], chain[-1]
            if (bx - ax) * (p[1] - ay) > (by - ay) * (p[0] - ax):
                break  # b lies strictly below the segment from a to p
            chain.pop()
        chain.append(p)
    return chain, sum((bx - ax) * (ay + by) for (ax, ay), (bx, by) in zip(chain, chain[1:]))


def newton_multiplicity(points) -> int:
    """Twice the area of the region of the positive quadrant below the
    Newton polygon of plane exponents, some on each axis: the area below the
    lower convex chain, from (0, y0) to (x0, 0), of the points up to x0."""
    points = list(points)
    if all(x for x, _ in points) or all(y for _, y in points):
        raise ValueError("the Newton polygon needs a point on each axis")
    x0 = min(x for x, y in points if y == 0)
    return lower_chain(p for p in points if p[0] <= x0)[1]


def convex_hull(points):
    """The vertices of the convex hull of plane points, counterclockwise from
    the lowest leftmost one, and twice its area.  The upper chain is the lower
    chain of the points reflected in the x-axis."""
    points = list(points)
    lower, below = lower_chain(points)
    upper, above = lower_chain((x, -y) for x, y in points)
    top = [(x, -y) for x, y in reversed(upper) if (x, -y) not in (lower[0], lower[-1])]
    return lower + top, -above - below
