"""Shared fixtures: the width-4 display example and canonical families.

INTRO_ROWS is a known-good tame integral SL3-frieze used to pin down the
diamond conventions. It is not unitary: exhaustive enumeration of all 2136
maximal weakly separated triangle families over [8] (flip search and clique
search agree on the count) shows none of them specializes to these rows, in
any of the 16 dihedral relabelings. Family-pipeline tests therefore use the
canonical families (``canonical_family``, re-exported here) instead.
"""

from __future__ import annotations

from fractions import Fraction

from .family import canonical_family  # re-exported
from .frieze import FriezeGrid

INTRO_ROWS = (
    (4, 3, 2, 5, 1, 4, 5, 1),
    (6, 5, 4, 3, 3, 7, 4, 2),
    (9, 8, 1, 8, 3, 4, 7, 1),
    (13, 1, 2, 6, 1, 6, 2, 1),
)


def intro_frieze() -> FriezeGrid:
    """The width-4, period-8 display example as a grid."""
    return FriezeGrid(8, tuple(tuple(Fraction(v) for v in row) for row in INTRO_ROWS))
