"""Cyclic order on [n] = {1,..,n}: ordered tuples and the order <_x.

Points are 1-based throughout; modular arithmetic always lands back in 1..n.
Whether a tuple of distinct points is cyclically ordered does not depend on n,
so ``is_cyclic`` takes no ground set. For a point x, a <_x b iff (x, a, b) is
cyclically ordered: a total order on [n] \\ {x} that ``position_from`` ranks and
``sorted_from`` sorts by.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInputError

MIN_GROUND = 6

# The largest ground size accepted. Every family, star graph, trace and
# frieze input, and `gen --n`, is over some n, and the work on it grows with
# n: 3n-8 triangles per family, n(n-4) frieze entries. A larger n is refused
# as an InvalidInputError (exit 2 on the command line) before anything is built.
MAX_N = 512


@dataclass(frozen=True)
class GroundSet:
    """The cyclically arranged point set {1,..,n}, 6 <= n <= MAX_N."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < MIN_GROUND:
            raise InvalidInputError(f"ground set needs n >= {MIN_GROUND}, got {self.n!r}")
        if self.n > MAX_N:
            raise InvalidInputError(f"ground set needs n <= {MAX_N}, got {self.n!r}")

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


def position_from(x: int, p: int, n: int) -> int:
    """Rank of p in the <_x order: 1 for x+1 up to n-1 for x-1 (0 for p=x)."""
    return (p - x) % n


def sorted_from(x: int, points, n: int) -> list:
    """Sort points by the <_x order."""
    return sorted(points, key=lambda p: (p - x) % n)

