"""Definition-level references that the library is checked against.

``sl3frieze.separation`` decides crossing by one gap formula. The tests compare
it with the independent routes kept here:

* ``crossing_definition`` searches for interleaved witnesses a, c in A \\ B and
  b, d in B \\ A directly: the definition itself.
* ``masks_cross`` is the min/max closed form for equal-size point sets
  (Leclerc-Zelevinsky; Oh-Postnikov-Speyer) on bitmasks from
  ``triangle_mask``.
* ``chords_cross`` decides whether two chords of a circle cross, by endpoint
  interleaving; two triangles through x cross iff their chords without x do.

``sl3frieze.frieze`` contracts each star straight off one star index of the
family. ``_reference_almost_continuous_at`` is the per-x contraction it is
compared with: it builds the star graph and reads neighbours and leaves by
scanning every edge (``_scan_neighbours``, ``_scan_leaves_at``), and
``_reference_quiddity_rows`` runs it at every x.

``sl3frieze.frieze`` builds the grid by the lower row recursion.
``_gale_minors`` is the determinant reference it is compared with: every
entry as the Gale minor w_i . v_{i+k+2} of the closed vectors, with
``_wedges`` giving each w_i = v_i x v_{i+1}, three products per entry, as the
library computed the grid before.

``sl3frieze.mutation`` walks by keeping each point's move list and drawing
an index into them. ``_reference_walk`` is the walk it is compared with: at
every step it rebuilds the whole lexicographic move list from
``_moves_of_triangles``, draws from that list with ``rng.choice`` and builds
each move as a checked ``MutationMove``.

Test modules import them with ``from reference import ...``.
"""

import random
from fractions import Fraction

from sl3frieze.cyclic import is_cyclic
from sl3frieze.errors import InternalConsistencyError, PreconditionError
from sl3frieze.frieze import QuiddityRows
from sl3frieze.mutation import MutationMove, ValuedFamily, _moves_of_triangles
from sl3frieze.stargraph import build_star_graph


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


def chords_cross(e1, e2) -> bool:
    """Two chords with endpoints on a circle cross iff their endpoint pairs
    interleave; chords sharing an endpoint never cross."""
    a, b = e1
    c, d = e2
    return len({a, b, c, d}) == 4 and (a < c < b) != (a < d < b)


def _scan_neighbours(g, v):
    return sorted(b if a == v else a for a, b in g.edges if v in (a, b))


def _scan_leaves_at(g, p):
    n = g.ground.n
    return sorted((l for l, att in g.leaves.items() if att == p), key=lambda l: (l - g.x) % n)


def _reference_almost_continuous_at(vf: ValuedFamily, x: int):
    """The per-x contraction that quiddity_rows ran before the single-pass
    star index: it reads the star graph's neighbours and leaves by scanning
    every edge, and sums the labels as Fractions."""
    ground = vf.family.ground
    wrap = ground.wrap
    for t in vf.family.triangles:
        if x in t and vf.values[t] != 1:
            raise PreconditionError(f"triangles through x={x} must all have value 1, {t} has {vf.values[t]}")
    g = build_star_graph(vf.family, x)
    xp, xm = wrap(x + 1), wrap(x - 1)
    xp2, xm2 = wrap(x + 2), wrap(x - 2)

    def star_value(a, b, c):
        t = tuple(sorted((a, b, c)))
        if t not in vf.values:
            raise InternalConsistencyError(f"border triangle {t} unexpectedly missing from family")
        return vf.values[t]

    adj = {v: set(_scan_neighbours(g, v)) for v in g.masks}
    tp = list(g.triangulation_points)
    labels = {}
    for i, p in enumerate(tp):
        seq = [tp[i - 1]] + _scan_leaves_at(g, p) + [tp[(i + 1) % len(tp)]]
        pinned = None
        if i == 0:
            if xp2 not in g.leaves:
                continue
            seq, pinned = seq[1:], xp2
        elif i == len(tp) - 1:
            if xm2 not in g.leaves:
                continue
            seq, pinned = seq[:-1], xm2
        labels[p] = sum((star_value(p, a, b) for a, b in zip(seq, seq[1:])), start=Fraction(0))
        for leaf in _scan_leaves_at(g, p):
            if leaf != pinned:
                adj[p].discard(leaf)
                del adj[leaf]

    current = [p for p in tp if p in adj and len(adj[p]) >= 2]
    edge_count = sum(len(nb) for nb in adj.values()) // 2

    def bump(point, delta):
        if point not in labels:
            raise InternalConsistencyError(f"missing label at {point} during contraction at x={x}")
        labels[point] += delta

    while edge_count > 3:
        p = next((q for q in current if q not in (xp, xm) and len(adj[q]) == 2), None)
        if p is None:
            raise InternalConsistencyError(
                f"no contractible degree-2 point left with {edge_count} edges at x={x}")
        if p in (xp2, xm2):
            anchor = xp if p == xp2 else xm
            (other,) = adj[p] - {anchor}
            labels[anchor] = labels[p]
            bump(other, labels[p])
            del labels[p]
            adj[p].discard(other)
            adj[other].discard(p)
            edge_count -= 1
        else:
            u, v = adj[p]
            bump(u, labels[p])
            bump(v, labels[p])
            del labels[p]
            adj[u].discard(p)
            adj[v].discard(p)
            del adj[p]
            edge_count -= 2
        current.remove(p)

    if xm not in labels or xp not in labels:
        raise InternalConsistencyError(f"contraction finished without labels at x+-1 (x={x})")
    return labels[xm], labels[xp]


def _reference_quiddity_rows(vf: ValuedFamily) -> QuiddityRows:
    if any(v != 1 for v in vf.values.values()):
        raise PreconditionError("quiddity rows need the all-ones specialization")
    n = vf.family.ground.n
    wrap = vf.family.ground.wrap
    low, high = {}, {}
    for x in vf.family.ground.points():
        low[wrap(x - 2)], high[wrap(x - 1)] = _reference_almost_continuous_at(vf, x)
    return QuiddityRows(n, tuple(low[i] for i in range(1, n + 1)), tuple(high[i] for i in range(1, n + 1)))


def _wedges(vs):
    """w_j = v_j x v_{j+1} for every two consecutive vectors of vs."""
    return [(y1 * z2 - y2 * z1, y2 * z0 - y0 * z2, y0 * z1 - y1 * z0)
            for (y0, y1, y2), (z0, z1, z2) in zip(vs, vs[1:])]


def _gale_minors(vs):
    """Yield the rows D_k(i) = det(v_i, v_{i+1}, v_{i+k+2}) = w_i . v_{i+k+2},
    k = 1..n-4, each a list over i = 1..n, of closed Gale vectors
    vs = [v_1..v_n] (indices mod n). w_i is computed once per i, so each
    entry costs three products; a caller that compares row by row can stop
    at the first row that differs."""
    n = len(vs)
    w0, w1, w2 = zip(*_wedges(vs + vs[:1]))
    # the coordinates of v_1..v_n twice over, so that i + k + 2 needs no
    # reduction mod n
    c0, c1, c2 = (c * 2 for c in zip(*vs))
    for s in range(3, n - 1):
        yield [p * x + q * y + r * z for p, q, r, x, y, z in
               zip(w0, w1, w2, c0[s:], c1[s:], c2[s:])]


def _reference_walk(fam, steps: int, seed: int):
    """The seeded walk from fam, drawing each move with ``rng.choice`` from the
    whole move list of the current family, rebuilt at every step; yields
    checked MutationMoves."""
    rng = random.Random(seed)
    triangles, n = set(fam.triangles), fam.ground.n
    for _ in range(steps):
        move = MutationMove(*rng.choice(_moves_of_triangles(triangles, n)))
        triangles.remove(move.removed)
        triangles.add(move.added)
        yield move
