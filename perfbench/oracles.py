"""Independent oracles for the benchmark's output checks.

None of these calls into ulrich_forge: semigroup membership is a memoized
top-down recursion (the package uses a bottom-up table), multiplicities come
from Newton-polygon areas (Kouchnirenko 1976) instead of finite differences,
and orders are recomputed by recursion.
"""
from __future__ import annotations

from fractions import Fraction


class Mismatch(AssertionError):
    """A program output disagrees with an oracle."""


def expect(condition: bool, message: str):
    if not condition:
        raise Mismatch(message)


class NaiveSemigroup:
    """Membership and max-ideal order in a semigroup of N^d by recursion."""

    def __init__(self, gens):
        self.gens = tuple(sorted({tuple(g) for g in gens}))
        self.dim = len(self.gens[0])
        self._member = {(0,) * self.dim: True}
        self._ord = {(0,) * self.dim: 0}

    def member(self, v) -> bool:
        v = tuple(v)
        if any(e < 0 for e in v):
            return False
        stack = [v]
        while stack:
            w = stack[-1]
            if w in self._member:
                stack.pop()
                continue
            pending = None
            found = False
            for g in self.gens:
                rest = tuple(a - b for a, b in zip(w, g))
                if any(e < 0 for e in rest):
                    continue
                known = self._member.get(rest)
                if known is None:
                    pending = rest
                    break
                if known:
                    found = True
                    break
            if pending is not None and not found:
                stack.append(pending)
                continue
            self._member[w] = found
            stack.pop()
        return self._member[v]

    def order(self, v) -> int:
        """Largest number of generators summing to the member v."""
        v = tuple(v)
        if v in self._ord:
            return self._ord[v]
        best = 0
        for g in self.gens:
            rest = tuple(a - b for a, b in zip(v, g))
            if self.member(rest):
                best = max(best, 1 + self.order(rest))
        self._ord[v] = best
        return best

    def points_up_to(self, degree):
        for s in range(degree + 1):
            for x in range(s + 1):
                yield (x, s - x)

    def gaps(self, max_gap_degree: int):
        """Gap set of a plane semigroup, certified finite: every point of the
        shell (max_gap_degree, max_gap_degree + maxgen] is a member."""
        maxgen = max(sum(g) for g in self.gens)
        top = max_gap_degree + maxgen
        gaps = set()
        for v in self.points_up_to(top):
            if not self.member(v):
                gaps.add(v)
        expect(all(sum(g) <= max_gap_degree for g in gaps),
               f"gap above the claimed top degree {max_gap_degree}")
        return gaps

    def hilbert_samuel(self, t: int) -> int:
        """Members of order below t; they all have degree below t * maxgen."""
        maxgen = max(sum(g) for g in self.gens)
        return sum(1 for v in self.points_up_to(t * maxgen - 1)
                   if self.member(v) and self.order(v) < t)

    def irreducible_generators(self) -> int:
        count = 0
        for g in self.gens:
            split = any(h != g and self.member(tuple(a - b for a, b in zip(g, h)))
                        for h in self.gens)
            count += not split
        return count


def newton_twice_area(points) -> int:
    """2 * area of the part of the positive quadrant below the Newton
    polygon of the given exponents; both axes must carry a point."""
    x0 = min(p[0] for p in points if p[1] == 0)
    y0 = min(p[1] for p in points if p[0] == 0)
    # points dominated by an axis point cannot lie on the lower chain
    pts = sorted({tuple(p) for p in points
                  if p[0] <= x0 and p[1] <= y0
                  and not (p[0] == x0 and p[1] > 0)
                  and not (p[1] == y0 and p[0] > 0)})
    chain: list = []
    for p in pts:  # lower convex hull from (0, y0) to (x0, 0)
        while len(chain) >= 2:
            (ax, ay), (bx, by) = chain[-2], chain[-1]
            if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) > 0:
                break
            chain.pop()
        chain.append(p)
    polygon = [(0, 0)] + chain[::-1]
    twice = 0
    for (ax, ay), (bx, by) in zip(polygon, polygon[1:] + polygon[:1]):
        twice += ax * by - bx * ay
    return abs(twice)


def above_newton(points, v) -> bool:
    """Whether v lies in the Newton polyhedron conv(points) + R^2_+."""
    pts = sorted({tuple(p) for p in points})
    for p in pts:
        if v[0] >= p[0] and v[1] >= p[1]:
            return True
    # v is in the hull iff it is above some segment joining two points
    for p in pts:
        for q in pts:
            if p[0] < v[0] < q[0]:
                lam = Fraction(v[0] - p[0], q[0] - p[0])
                if v[1] >= p[1] + lam * (q[1] - p[1]):
                    return True
    return False
