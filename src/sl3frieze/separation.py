"""Crossing / weak separation of triangles: one formula, two encodings.

A triangle A = (a1 < a2 < a3) cuts [n] into three gaps: g1 = (a1, a2),
g2 = (a2, a3) and g3 = [1, a1) u (a3, n]. A triangle B crosses A iff it is
disjoint from A and meets two gaps, or it shares exactly one point a_i and
meets both arcs that {a_j, a_k} = A \\ {a_i} cut the circle into (for a1 these
are g2 and g1 u g3; for a2, g3 and g1 u g2; for a3, g1 and g2 u g3). Sharing
two points never crosses. Two triangles are weakly separated iff they do not
cross (Oh, Postnikov and Speyer, "Weak separation and plabic graphs", 2015).

``_crosses`` is that formula, on masks c_i (B holds a_i) and g_j (B meets
g_j). The two encodings differ only in what a bit stands for:

* ``crossing`` tests one pair: each mask is a single bit, read off B's points.
* ``crossing_index`` tests one triangle against a whole list: bit j of each
  mask stands for the j-th triangle of the list. With one bitmask of list
  positions per point and a sparse table of ORs over points, every gap is at
  most two lookups, so all crossers of A cost O(1) big-int operations on
  m-bit masks after an O(n log n) build, where m is the length of the list.

The definitional search for interleaved witnesses, which the formula is tested
against, lives with the tests, in ``tests/reference.py``.
"""

from __future__ import annotations


def _crosses(c1: int, c2: int, c3: int, g1: int, g2: int, g3: int) -> int:
    """The gap formula: the bits whose triangle crosses A, from the masks of
    the triangles holding a1, a2, a3 and of those meeting g1, g2, g3."""
    return (~(c1 | c2 | c3) & (g1 & g2 | g3 & (g1 | g2))
            | c1 & ~(c2 | c3) & g2 & (g1 | g3)
            | c2 & ~(c1 | c3) & g3 & (g1 | g2)
            | c3 & ~(c1 | c2) & g1 & (g2 | g3))


def crossing(A, B) -> bool:
    """Whether triangles A and B cross, each given as three distinct points in
    any order: the gap formula of sorted A, on one-bit masks of B's points.
    The answer does not depend on the order of the arguments."""
    a1, a2, a3 = sorted(A)
    b1, b2, b3 = B
    m = 1 << b1 | 1 << b2 | 1 << b3
    return bool(_crosses(m >> a1 & 1, m >> a2 & 1, m >> a3 & 1,
                         m & (1 << a2) - (2 << a1) != 0,
                         m & (1 << a3) - (2 << a2) != 0,
                         m & ~((2 << a3) - (1 << a1)) != 0))


def crossing_index(triangles, n: int):
    """Crossing query over a fixed list of ascending triangles on [n].

    Returns ``crossers``: for an ascending triangle A, the bitmask with bit j
    set iff ``triangles[j]`` crosses A (see the module docstring for the gap
    formula). Building costs O(n log n) ORs of len(triangles)-bit masks; each
    query costs a few table lookups and a dozen mask operations."""
    col = [0] * (n + 2)  # col[p]: positions of the triangles containing p
    for j, (a, b, c) in enumerate(triangles):
        bit = 1 << j
        col[a] |= bit
        col[b] |= bit
        col[c] |= bit
    # before[p] = OR of col[1 .. p-1], after[p] = OR of col[p+1 .. n]
    before = [0] * (n + 2)
    after = [0] * (n + 2)
    for p in range(2, n + 1):
        before[p] = before[p - 1] | col[p - 1]
        after[n + 1 - p] = after[n + 2 - p] | col[n + 2 - p]
    # table[k][p] = OR of col[p .. p + 2^k - 1]
    table = [col]
    span = 1
    while 2 * span <= n - 3:  # the widest gap, a1 = 1 to a2 = n - 1, holds n - 3 points
        prev = table[-1]
        table.append([prev[p] | prev[p + span] for p in range(len(prev) - span)])
        span *= 2

    def crossers(t) -> int:
        a1, a2, a3 = t
        g1 = g2 = 0
        if a2 - a1 > 1:  # points a1+1 .. a2-1, two table entries of 2^k points
            k = (a2 - a1 - 1).bit_length() - 1
            g1 = table[k][a1 + 1] | table[k][a2 - (1 << k)]
        if a3 - a2 > 1:
            k = (a3 - a2 - 1).bit_length() - 1
            g2 = table[k][a2 + 1] | table[k][a3 - (1 << k)]
        return _crosses(col[a1], col[a2], col[a3], g1, g2, before[a1] | after[a3])

    return crossers
