"""Shared fixtures and test-only helpers.

INTRO_ROWS is a known-good tame integral SL3-frieze used to pin down the
diamond conventions. It is not unitary: exhaustive enumeration of all 2136
maximal weakly separated triangle families over [8] (flip search and clique
search agree on the count) shows none of them specializes to these rows, in
any of the 16 dihedral relabelings. Family-pipeline tests therefore use the
canonical families instead.

Test modules import the helpers with ``from conftest import ...``.
"""

from fractions import Fraction

import pytest

from sl3frieze.cyclic import GroundSet
from sl3frieze.errors import InvalidInputError
from sl3frieze.frieze import FriezeGrid
from sl3frieze.mutation import random_maximal_family

INTRO_ROWS = (
    (4, 3, 2, 5, 1, 4, 5, 1),
    (6, 5, 4, 3, 3, 7, 4, 2),
    (9, 8, 1, 8, 3, 4, 7, 1),
    (13, 1, 2, 6, 1, 6, 2, 1),
)


def intro_frieze() -> FriezeGrid:
    """The width-4, period-8 display example as a grid."""
    return FriezeGrid(8, tuple(tuple(Fraction(v) for v in row) for row in INTRO_ROWS))


def plucker_triple(n: int, k: int, i: int) -> tuple:
    """Index triple occupying grid row k at position i: {i, i+1, i+k+2} mod n,
    sorted, possibly with a repeat for the zero border rows (k in {-2,-1} and
    {w+2, w+3} give repeated indices, k=0 and k=w+1 the continuous triples)."""
    return tuple(sorted(((i - 1) % n + 1, i % n + 1, (i + k + 1) % n + 1)))


def build_plucker_frieze_map(n: int) -> dict:
    """(k, i) -> triple for the bordered grid, k = -2 .. w+3."""
    if n < 6:
        raise InvalidInputError(f"need n >= 6, got n={n}")
    w = n - 4
    return {(k, i): plucker_triple(n, k, i)
            for k in range(-2, w + 4) for i in range(1, n + 1)}


@pytest.fixture(scope="session")
def small_corpus():
    """A shared pool of random maximal families keyed by n."""
    corpus = {}
    for n in (6, 7, 8):
        corpus[n] = [random_maximal_family(GroundSet(n), steps=25, seed=s) for s in range(10)]
    return corpus
