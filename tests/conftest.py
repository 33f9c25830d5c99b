"""Shared fixtures and test-only helpers.

INTRO_ROWS is a known-good tame integral SL3-frieze used to pin down the
diamond conventions. It is not unitary: exhaustive enumeration of all 2136
maximal weakly separated triangle families over [8] (flip search and clique
search agree on the count) shows none of them specializes to these rows, in
any of the 16 dihedral relabelings. Family-pipeline tests therefore use the
canonical families instead. ``maximal_families`` is the flip search: it
enumerates every maximal family at small n.

Test modules import the helpers with ``from conftest import ...``.
"""

import os
import subprocess
import sys
from fractions import Fraction
from functools import cache
from itertools import combinations
from pathlib import Path

import pytest

import sl3frieze

from sl3frieze.cyclic import GroundSet
from sl3frieze.errors import InvalidInputError
from sl3frieze.family import Family, canonical_family
from sl3frieze.frieze import FriezeGrid
from sl3frieze.mutation import family_moves, random_maximal_family
from sl3frieze.separation import masks_cross, triangle_mask

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


def position_from(x: int, p: int, n: int) -> int:
    """Rank of p in the <_x order: 1 for x+1 up to n-1 for x-1 (0 for p=x)."""
    return (p - x) % n


def sorted_from(x: int, points, n: int) -> list:
    """Sort points by the <_x order."""
    return sorted(points, key=lambda p: (p - x) % n)


def parse_decimal(text: str) -> int:
    """int(text) for a decimal string of any length, read 4,000 digits at a
    time to stay under Python's 4,300-digit conversion limit."""
    sign, digits = (-1, text[1:]) if text.startswith("-") else (1, text)
    value = 0
    for i in range(0, len(digits), 4000):
        chunk = digits[i:i + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


def run_fresh(code: str) -> tuple:
    """Run code in a fresh interpreter that imports this checkout's
    sl3frieze; (its stdout lines, the sorted names of the sl3frieze modules it
    held at exit)."""
    src = str(Path(sl3frieze.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    probe = code + "\nimport sys\nprint(' '.join(sorted(m for m in sys.modules if m.startswith('sl3frieze'))))\n"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=True)
    *lines, modules = proc.stdout.splitlines()
    return lines, modules.split()


def mask_pair_scan(fam):
    """(True, None), or (False, first crossing pair) in lex order of the sorted
    triangle list, by testing every pair with ``masks_cross``: the reference
    for ``is_weakly_separated_family`` at any n."""
    ts = fam.sorted_triangles()
    masks = [triangle_mask(t) for t in ts]
    for i, j in combinations(range(len(ts)), 2):
        if masks_cross(masks[i], masks[j]):
            return False, (ts[i], ts[j])
    return True, None


@cache
def maximal_families(n: int) -> tuple:
    """Every maximal weakly separated family over [n], in breadth-first order
    by exchange moves from the canonical family. Moves connect any two
    maximal families (Oh, Postnikov and Speyer, "Weak separation and plabic
    graphs", 2015), so the search reaches all of them."""
    queue = [canonical_family(n)]
    seen = {queue[0].triangles}
    for fam in queue:
        for move in family_moves(fam):
            triangles = fam.triangles - {move.removed} | {move.added}
            if triangles not in seen:
                seen.add(triangles)
                # marked validated, as a move keeps weak separation; the
                # exhaustive check asserts it again
                queue.append(Family(fam.ground, triangles, validated=True))
    return tuple(queue)


@pytest.fixture(scope="session")
def small_corpus():
    """A shared pool of random maximal families keyed by n."""
    corpus = {}
    for n in (6, 7, 8):
        corpus[n] = [random_maximal_family(GroundSet(n), steps=25, seed=s) for s in range(10)]
    return corpus
