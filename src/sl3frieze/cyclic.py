"""Cyclic order on [n] = {1,..,n}: ordered tuples, intervals and the order <_x.

Points are 1-based throughout; modular arithmetic always lands back in 1..n.
Whether a tuple of distinct points is cyclically ordered does not depend on n,
so the unvalidated predicates below take no ground set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInputError

MIN_GROUND = 6


@dataclass(frozen=True)
class GroundSet:
    """The cyclically arranged point set {1,..,n}, n >= 6."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < MIN_GROUND:
            raise InvalidInputError(f"ground set needs n >= {MIN_GROUND}, got {self.n!r}")

    def wrap(self, i: int) -> int:
        """Map any integer to its representative in 1..n."""
        return (i - 1) % self.n + 1

    def contains(self, i) -> bool:
        return isinstance(i, int) and not isinstance(i, bool) and 1 <= i <= self.n

    def points(self) -> range:
        return range(1, self.n + 1)


def is_cyclic(points) -> bool:
    """Cyclic-order test for a tuple already known to be pairwise distinct.

    A distinct tuple is cyclically ordered iff scanning it circularly shows
    exactly one descent.
    """
    descents = 0
    prev = points[-1]
    for p in points:
        if prev > p:
            descents += 1
            if descents > 1:
                return False
        prev = p
    return descents == 1


def cyclically_ordered(points, ground: GroundSet) -> bool:
    """True iff `points` is ascending or a single rotation of an ascending tuple."""
    if len(points) < 3:
        raise InvalidInputError("need at least 3 points")
    if len(set(points)) != len(points):
        raise InvalidInputError(f"points must be pairwise distinct: {points}")
    for p in points:
        if not ground.contains(p):
            raise InvalidInputError(f"point {p!r} outside 1..{ground.n}")
    return is_cyclic(points)


def interval(a: int, b: int, ground: GroundSet,
             closed_left: bool = False, closed_right: bool = False) -> list:
    """The points strictly between a and b in cyclic order, listed starting
    after a; endpoints are included when the corresponding flag is set."""
    if not ground.contains(a) or not ground.contains(b):
        raise InvalidInputError(f"interval endpoints must lie in 1..{ground.n}")
    if a == b:
        raise InvalidInputError("interval endpoints must differ")
    out = [a] if closed_left else []
    p = ground.wrap(a + 1)
    while p != b:
        out.append(p)
        p = ground.wrap(p + 1)
    if closed_right:
        out.append(b)
    return out


def less_x(x: int, a: int, b: int) -> bool:
    """a <_x b, i.e. (x,a,b) is cyclically ordered; a total order on [n] \\ {x}."""
    if x == a or x == b or a == b:
        raise InvalidInputError(f"points must be pairwise distinct: {(x, a, b)}")
    return is_cyclic((x, a, b))


def position_from(x: int, p: int, n: int) -> int:
    """Rank of p in the <_x order: 1 for x+1 up to n-1 for x-1 (0 for p=x)."""
    return (p - x) % n


def sorted_from(x: int, points, n: int) -> list:
    """Sort points by the <_x order."""
    return sorted(points, key=lambda p: (p - x) % n)

