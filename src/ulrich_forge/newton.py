"""Normalised lattice volumes, the one exact kernel of every monomial
multiplicity: e(I) of a monomial ideal of k[x1..xd] primary to the origin is
d! times the volume of the orthant below its Newton polyhedron (Kouchnirenko
1976), and so is e(R) = e(m_R * S) of a finite-colength monomial subring with
those generators; generators of one degree give the normalised volume of their
hull (Bruns-Gubeladze, Polytopes, Rings, and K-Theory, 6).  Both are cone sums."""
import itertools
from fractions import Fraction
from operator import mul

from .linalg import mat_rank


def det(rows) -> int:
    """The determinant of a square integer matrix, expanded along its first row."""
    return sum((-1) ** j * a * det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, a in enumerate(rows[0]) if a) if rows else 1


def facets(points, compact=False) -> dict:
    """The facets of conv(points) in Z^d, as {the points on F: (w, c)} with
    w.q >= c at every point q, equal exactly on F; w is the cofactor normal
    of d points of F.  With `compact`, only those with w > 0 in every entry:
    the compact facets of the Newton polyhedron conv(points) + R^d_+."""
    points = sorted(set(points))
    found = {}
    for subset in itertools.combinations(points, len(points[0])):
        if any(on.issuperset(subset) for on in found):
            continue  # a known facet
        rows = [[a - b for a, b in zip(p, subset[0])] for p in subset[1:]]
        w = [(-1) ** j * det([r[:j] + r[j + 1:] for r in rows]) for j in range(len(subset))]
        if not any(w):  # the d points span no hyperplane
            continue
        c = sum(map(mul, w, subset[0]))
        values = [sum(map(mul, w, q)) - c for q in points]
        for s in (1, -1):
            if min(s * v for v in values) >= 0 and not (compact and min(s * a for a in w) <= 0):
                found.setdefault(frozenset(q for q, v in zip(points, values) if not v),
                                 ([s * a for a in w], s * c))
    return found


def _cones(faces, apex):
    """d! vol of the cones from apex over the faces, and the faces' vertices:
    each face's height over apex times the normalised volume of its image
    along a coordinate j with w_j != 0, over |w_j|, found one dimension lower."""
    total, vertices = Fraction(0), set()
    for on, (w, c) in faces.items():
        j = next(j for j, a in enumerate(w) if a)
        image = {q[:j] + q[j + 1:]: q for q in on}
        volume, corners = hull(image)
        total += Fraction(abs(sum(map(mul, w, apex)) - c) * volume, abs(w[j]))
        vertices.update(image[v] for v in corners)
    if total.denominator != 1:
        raise AssertionError(f"the cone sum {total} of a lattice polytope is not an integer")
    return int(total), vertices


def hull(points):
    """(d! vol(conv(points)), its vertices) for points of Z^d: the cones from
    the least point over the facets, whose vertices are the hull's; 1 and the
    point for d = 0.  When no d points span a hyperplane, the volume is 0 and
    the vertices are those of the image along a coordinate whose removal keeps
    the rank of the differences, so the projection is one-to-one on their span.
    The vertices ascend, but run counterclockwise from the least in the plane."""
    points = sorted(set(points))
    if not points[0]:
        return 1, points
    faces = facets(points)
    if not faces:
        diffs = [[a - b for a, b in zip(q, points[0])] for q in points[1:]]
        rank = mat_rank(diffs)
        j = next(j for j in range(len(points[0]))
                 if mat_rank([r[:j] + r[j + 1:] for r in diffs]) == rank)
        image = {q[:j] + q[j + 1:]: q for q in points}
        return 0, sorted(image[v] for v in hull(image)[1])
    total, vertices = _cones(faces, points[0])
    vertices = sorted(vertices)
    if len(points[0]) == 2:  # by slope from the least vertex, a vertical side last
        (x, y), rest = vertices[0], vertices[1:]
        vertices[1:] = sorted(rest, key=lambda v: (v[0] == x, Fraction(v[1] - y, v[0] - x or 1)))
    return total, vertices


def newton_multiplicity(points) -> int:
    """d! times the volume of the positive orthant below the Newton polyhedron
    of exponents, some on each axis: the cones from the origin over the
    compact facets, on which no point dominating another lies."""
    points = set(points)
    d = len(next(iter(points)))
    if not all(any(sum(p) == p[i] for p in points) for i in range(d)):
        raise ValueError("the Newton polyhedron needs a point on each axis")
    return _cones(newton_facets(points), (0,) * d)[0]


def newton_facets(points) -> dict:
    """The compact facets of the Newton polyhedron conv(points) + R^d_+, as
    `facets` gives them; only points that dominate no other can lie on one."""
    points = set(points)
    minimal = [p for p in points if not any(q != p and all(map(int.__le__, q, p)) for q in points)]
    return facets(minimal, compact=True)
