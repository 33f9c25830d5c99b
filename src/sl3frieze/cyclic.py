"""Cyclic order on [n] = {1,..,n}: ordered tuples and the order <_x.

Points are 1-based throughout; modular arithmetic always lands back in 1..n.
Whether a tuple of distinct points is cyclically ordered does not depend on n,
so ``is_cyclic`` takes no ground set. For a point x, a <_x b iff (x, a, b) is
cyclically ordered: a total order on [n] \\ {x}, in which p's rank is
(p - x) mod n.

``Record``, the base of every value class in the package, lives here because
this is the bottom layer.
"""

from __future__ import annotations

from .errors import InvalidInputError

MIN_GROUND = 6

# The largest ground size accepted. Every family, star graph, trace and
# frieze input, and `gen --n`, is over some n, and the work on it grows with
# n: 3n-8 triangles per family, n(n-4) frieze entries. A larger n is refused
# as an InvalidInputError (exit 2 on the command line) before anything is built.
MAX_N = 512


class Record:
    """Base of the package's immutable value classes.

    A subclass names its fields in ``__slots__`` and sets them in its
    ``__init__`` with ``object.__setattr__``; after that, assigning or deleting
    an attribute raises AttributeError. Two records are equal when they are of
    the same class and their compared fields are equal, and a record's hash is
    the hash of the tuple of those fields. The compared fields (``_compared``)
    and the fields ``repr`` shows (``_shown``) default to every field, in
    ``__slots__`` order; ``repr`` reads ``Name(field=value!r, ...)``. A record
    pickles and copies as its class called on its fields in ``__slots__``
    order, so ``__init__`` takes them in that order.

    Writing the methods out keeps the import cheap: generating them, as the
    standard library's class decorator does, would load ``inspect`` and
    compile code per class in every fresh interpreter, which costs a short
    command-line run more than its work on a small input.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._compared = vars(cls).get("_compared", cls.__slots__)
        cls._shown = vars(cls).get("_shown", cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self._compared) == other._fields(other._compared)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self._compared))

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields(self.__slots__)

    @classmethod
    def _unchecked(cls, *fields):
        """The record with these fields, in ``__slots__`` order, built
        without ``__init__`` and its checks, for fields known to pass them."""
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            object.__setattr__(self, name, value)
        return self

    def _fields(self, names) -> tuple:
        return tuple(getattr(self, f) for f in names)


class GroundSet(Record):
    """The cyclically arranged point set {1,..,n}, 6 <= n <= MAX_N."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        object.__setattr__(self, "n", n)
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
