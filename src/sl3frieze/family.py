"""Triangles over a ground set and weakly separated families of them.

A triangle is stored as a strictly ascending 3-tuple of points. A family keeps
its ground set, a frozenset of triangles and a ``validated`` flag meaning the
weak-separation check (one crossing-index query per triangle) has been run on
construction.

Beside the ``crossing_index`` queries lives the other index over a triangle
set: ``star_index``, the star graph of every point at once, which
``link_triangle`` and ``unlink_triangle`` keep current across an exchange.
``mutation`` enumerates moves from it and ``stargraph`` classifies its stars,
so ``mutation`` does not load ``stargraph``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

from .cyclic import GroundSet
from .errors import InvalidInputError, MalformedFileError
from .separation import crossing_index, masks_cross, triangle_mask

Triangle = tuple  # ascending (a, b, c)

FAMILY_SCHEMA_VERSION = 1


def make_triangle(a: int, b: int, c: int, ground: GroundSet) -> Triangle:
    """Sort and validate a point triple."""
    t = (a, b, c)
    for p in t:
        if not ground.contains(p):
            raise InvalidInputError(f"triangle point {p!r} outside 1..{ground.n}")
    if len(set(t)) != 3:
        raise InvalidInputError(f"triangle points must be distinct: {t}")
    return tuple(sorted(t))


def all_triangles(ground: GroundSet):
    """All 3-subsets of the ground set, ascending tuples in lex order."""
    return combinations(ground.points(), 3)


@dataclass(frozen=True)
class Family:
    """A set of triangles over a ground set.

    ``validated`` records that weak separation was checked; operations
    whose guarantees need it refuse unvalidated input.
    """

    ground: GroundSet
    triangles: frozenset
    validated: bool = False

    def __len__(self):
        return len(self.triangles)

    def __contains__(self, t):
        return t in self.triangles

    def sorted_triangles(self) -> list:
        return sorted(self.triangles)

    def with_exchange(self, removed: Triangle, added: Triangle) -> "Family":
        """Replace one triangle by another; validation status is preserved by
        callers that know the exchange is separation-safe."""
        if removed not in self.triangles or added in self.triangles:
            raise InvalidInputError("exchange does not apply to this family")
        return Family(self.ground, self.triangles - {removed} | {added}, self.validated)


def make_family(ground: GroundSet, triangles, validate: bool = True) -> Family:
    """Build a family from point triples; with validate=True the result is
    checked to be weakly separated (raising otherwise) and marked validated."""
    tris = [make_triangle(*t, ground=ground) for t in triangles]
    ts = frozenset(tris)
    if len(ts) != len(tris):
        raise InvalidInputError("duplicate triangles in family")
    fam = Family(ground, ts, validated=False)
    if validate:
        _require_weakly_separated(fam)
        fam = Family(ground, ts, validated=True)
    return fam


def continuous_triangles(n: int) -> list:
    """The n continuous triangles {i, i+1, i+2} (mod n) as ascending tuples."""
    return [(i, i + 1, i + 2) for i in range(1, n - 1)] + [(1, n - 1, n), (1, 2, n)]


def frozen_triangles(ground: GroundSet) -> Family:
    """The n continuous triangles {i, i+1, i+2}; they cross nothing, so they lie
    in every maximal family."""
    return Family(ground, frozenset(continuous_triangles(ground.n)), validated=True)


def canonical_family(n: int) -> Family:
    """The rectangles seed: the frozen triangles, {1,2,j} for 4 <= j <= n-1 and
    {1,j,j+1} for 3 <= j <= n-2. It equals the greedy completion of the frozen
    triangles and is the deterministic base point of all generators."""
    ts = continuous_triangles(n) + [(1, 2, j) for j in range(4, n)] + [(1, j, j + 1) for j in range(3, n - 1)]
    return Family(GroundSet(n), frozenset(ts), validated=True)


def is_weakly_separated_family(fam: Family):
    """(True, None) if all pairs are non-crossing, else (False, first bad pair)
    in lex order of the sorted triangle list.

    One ``crossing_index`` over the sorted list answers, for each triangle
    A = (a1 < a2 < a3), which triangles cross it, instead of a test per pair.
    A cuts [n] into the gaps g1 = (a1, a2), g2 = (a2, a3) and
    g3 = [1, a1) u (a3, n]; B crosses A iff B is disjoint from A and meets two
    gaps, or B shares only a1 and meets g2 and g1 u g3 (only a2: g3 and
    g1 u g2; only a3: g1 and g2 u g3). The first i whose crossers include a
    later position, and the lowest such position j, give the same witness as
    a scan of the pairs (i, j) in lex order. The cost is O(m) operations on
    m-bit masks for m triangles, after an O(n log n) build of the index."""
    ts = fam.sorted_triangles()
    crossers = crossing_index(ts, fam.ground.n)
    for i, t in enumerate(ts):
        later = crossers(t) >> (i + 1)
        if later:
            return False, (t, ts[i + (later & -later).bit_length()])
    return True, None


def star_index(triangles) -> dict:
    """{x: {a: set of b}}: for every point x, the neighbour map of its star
    graph, one edge {a,b} per triangle {x,a,b}; one pass over the triangles."""
    index = {}
    for t in triangles:
        link_triangle(index, t)
    return index


def link_triangle(index: dict, t) -> None:
    """Add the triangle's edge to the star of each of its three points."""
    p, q, r = t
    for x, a, b in ((p, q, r), (q, p, r), (r, p, q)):
        star = index.setdefault(x, {})
        star.setdefault(a, set()).add(b)
        star.setdefault(b, set()).add(a)


def unlink_triangle(index: dict, t) -> None:
    """Remove the triangle's edge from the star of each of its three points;
    a vertex left without neighbours leaves the star."""
    p, q, r = t
    for x, a, b in ((p, q, r), (q, p, r), (r, p, q)):
        star = index[x]
        for u, v in ((a, b), (b, a)):
            nb = star[u]
            nb.discard(v)
            if not nb:
                del star[u]


def _require_weakly_separated(fam: Family) -> None:
    ok, pair = is_weakly_separated_family(fam)
    if not ok:
        raise InvalidInputError(f"family is not weakly separated: {pair[0]} crosses {pair[1]}")


def maximal_size(ground: GroundSet) -> int:
    return 3 * ground.n - 8


def addable_triangles(fam: Family) -> list:
    """Triangles outside the family that are weakly separated from all of it."""
    crossers = crossing_index(fam.triangles, fam.ground.n)
    return [t for t in all_triangles(fam.ground) if t not in fam.triangles and not crossers(t)]


def is_maximal_family(fam: Family) -> bool:
    """Maximality via the cardinality 3n-8: a weakly separated family of that
    size admits no addable triangle."""
    if not fam.validated:
        _require_weakly_separated(fam)
    return len(fam) == maximal_size(fam.ground)


def greedy_complete(fam: Family) -> Family:
    """Extend to a maximal weakly separated family, repeatedly adding the
    lexicographically smallest compatible triangle; star-graph realization
    completes its base family this way."""
    if not fam.validated:
        _require_weakly_separated(fam)
    current = set(fam.triangles)
    candidates = [(t, triangle_mask(t)) for t in addable_triangles(fam)]
    while candidates:
        chosen, chosen_mask = candidates[0]  # lex smallest by construction order
        current.add(chosen)
        candidates = [(t, m) for t, m in candidates[1:] if not masks_cross(m, chosen_mask)]
    return Family(fam.ground, frozenset(current), validated=True)


# -- JSON format --------------------------------------------------------------
#
# {"n": 8, "triangles": [[1,2,3], [1,2,4], ...]}  (triples sorted ascending;
# an optional "schema_version" key is accepted; anything else is rejected)

def family_to_dict(fam: Family) -> dict:
    return {
        "schema_version": FAMILY_SCHEMA_VERSION,
        "n": fam.ground.n,
        "triangles": [list(t) for t in fam.sorted_triangles()],
    }


def family_from_dict(data, validate: bool = True) -> Family:
    if not isinstance(data, dict):
        raise MalformedFileError("family file must be a JSON object")
    unknown = set(data) - {"n", "triangles", "schema_version"}
    if unknown:
        raise MalformedFileError(f"unknown keys in family file: {sorted(unknown)}")
    if "n" not in data or "triangles" not in data:
        raise MalformedFileError('family file needs keys "n" and "triangles"')
    try:
        ground = GroundSet(data["n"])
    except InvalidInputError as e:
        raise MalformedFileError(str(e)) from e
    triples = data["triangles"]
    if not isinstance(triples, list):
        raise MalformedFileError('"triangles" must be a list of 3-point lists')
    triangles = []
    for raw in triples:
        if (not isinstance(raw, list) or len(raw) != 3
                or any(not ground.contains(p) for p in raw)):
            raise MalformedFileError(f"bad triangle entry: {raw!r}")
        if raw != sorted(raw):
            raise MalformedFileError(f"triangle not sorted ascending: {raw!r}")
        triangles.append(tuple(raw))
    try:
        return make_family(ground, triangles, validate=validate)
    except InvalidInputError as e:
        if validate:
            raise
        raise MalformedFileError(str(e)) from e


def dump_family(fam: Family) -> str:
    return json.dumps(family_to_dict(fam), indent=2) + "\n"


def load_family(text: str, validate: bool = True) -> Family:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as e:  # bad JSON, a number past the digit limit, too deep
        raise MalformedFileError(f"invalid JSON: {e}") from e
    return family_from_dict(data, validate=validate)
