"""Crossing / weak separation of triangles.

Two routes are provided and kept independent on purpose:

* ``crossing_definition`` searches for interleaved witnesses a,c in A\\B and
  b,d in B\\A directly.
* ``crossing`` evaluates the closed form for equal-size sets
  (Leclerc-Zelevinsky; Oh-Postnikov-Speyer) on point bitmasks.

Single pairs go through ``crossing``, or through ``masks_cross`` on masks
precomputed with ``triangle_mask``; whole families go through
``crossing_index`` below. The definitional search stays around as the oracle
the closed form is tested against. Two triangles are weakly separated iff
they do not cross.

To test one triangle against a whole list at once, ``crossing_index`` reads
the closed form off the points instead of the pairs. A triangle
A = (a1 < a2 < a3) cuts [n] into three gaps: g1 = (a1, a2), g2 = (a2, a3) and
g3 = [1, a1) u (a3, n]. A triangle B crosses A iff it is disjoint from A and
meets two gaps, or it shares exactly one point a_i and meets both arcs that
{a_j, a_k} = A \\ {a_i} cut the circle into (for a1 these are g2 and g1 u g3;
for a2, g3 and g1 u g2; for a3, g1 and g2 u g3). Sharing two points never
crosses. With one bitmask of list positions per point and a sparse table of
ORs over points, every gap is at most two lookups, so all crossers of A cost
O(1) big-int operations on m-bit masks after an O(n log n) build, where m is
the length of the list.
"""

from __future__ import annotations

from .cyclic import is_cyclic


def crossing_definition(A, B) -> bool:
    """Interleaving-witness search: some a,c in A\\B and b,d in B\\A with
    (a,b,c,d) cyclically ordered."""
    only_a = [p for p in A if p not in B]
    only_b = [p for p in B if p not in A]
    if len(only_a) < 2 or len(only_b) < 2:
        return False
    for a in only_a:
        for c in only_a:
            if a == c:
                continue
            for b in only_b:
                for d in only_b:
                    if b != d and is_cyclic((a, b, c, d)):
                        return True
    return False


def triangle_mask(t) -> int:
    """The distinct points of t as a bitmask: bit p is set for each point p."""
    return sum(1 << p for p in t)


def masks_cross(m: int, k: int) -> bool:
    """Crossing of two equal-size point sets given as bitmasks.

    With a = A\\B and b = B\\A, the sets cross iff |a| >= 2, some point of b
    lies between min a and max a, and some point of a lies between min b and
    max b (linear order on 1..n)."""
    a = m & ~k
    if not a & (a - 1):
        return False
    b = k & ~m
    return bool(b & ((1 << a.bit_length()) - (a & -a))
                and a & ((1 << b.bit_length()) - (b & -b)))


def crossing(A, B) -> bool:
    """Closed-form crossing test of two triangles; see masks_cross."""
    return masks_cross(triangle_mask(A), triangle_mask(B))


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
        c1, c2, c3 = col[a1], col[a2], col[a3]
        g1 = g2 = 0
        if a2 - a1 > 1:  # points a1+1 .. a2-1, two table entries of 2^k points
            k = (a2 - a1 - 1).bit_length() - 1
            g1 = table[k][a1 + 1] | table[k][a2 - (1 << k)]
        if a3 - a2 > 1:
            k = (a3 - a2 - 1).bit_length() - 1
            g2 = table[k][a2 + 1] | table[k][a3 - (1 << k)]
        g3 = before[a1] | after[a3]
        return (~(c1 | c2 | c3) & (g1 & g2 | g3 & (g1 | g2))
                | c1 & ~(c2 | c3) & g2 & (g1 | g3)
                | c2 & ~(c1 | c3) & g3 & (g1 | g2)
                | c3 & ~(c1 | c2) & g1 & (g2 | g3))

    return crossers
