"""Triangles over a ground set and weakly separated families of them.

A triangle is stored as a strictly ascending 3-tuple of points. A family keeps
its ground set, a frozenset of triangles and a ``validated`` flag meaning the
weak-separation check has been run. ``Family`` holds the invariant:
construction refuses a ground that is not a ``GroundSet`` and any triangle
that is not an ascending triple of points of 1..n, so nothing downstream
checks one again. ``with_exchange`` tests only the triangle it adds, and
its result is not marked validated; the reader, ``make_family`` and the
families built here from valid triangles skip the test (``Record._unchecked``).

Beside ``crossing_index``, ``star_index`` holds the star graph of every point
as neighbour bitmasks, for ``frieze``; ``stargraph`` builds its own star, and
``mutation`` keeps dense rows for its walk. The three builders stay apart on
purpose, each shaped for its caller: one whole ``star_index`` per point cost
3.5-14x ``stargraph._star_at`` (n = 7..32), dict rows made ``mutation._moves``
7-71% slower, mostly 15-30% (n = 7..512), and dense rows with a sparse view
cost 1.2-1.5x ``star_index`` at n <= 32 and 5.4x at n = 512 (best of 5,
Python 3.11.7, shared 2-core VM).
"""

from __future__ import annotations

import json
from itertools import combinations

from .cyclic import GroundSet, Record
from .errors import InvalidInputError, MalformedFileError
from .separation import crossing_index

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


def _check_triangles(triangles, ground: GroundSet) -> None:
    """InvalidInputError, naming the point or the triangle, unless each
    triangle is an ascending triple of points of 1..n. A triangle that fails
    the reader's strict test is looked at again to name the fault; int
    subclasses other than bool pass."""
    n = ground.n
    for t in triangles:
        if type(t) is tuple and len(t) == 3:
            a, b, c = t
            if type(a) is int and type(b) is int and type(c) is int and 0 < a < b < c <= n:
                continue
        if not isinstance(t, tuple) or len(t) != 3:
            raise InvalidInputError(f"triangle {t!r} needs three distinct points")
        for p in t:
            if not ground.contains(p):
                raise InvalidInputError(f"triangle point {p!r} outside 1..{n}")
        if len(set(t)) != 3:
            raise InvalidInputError(f"triangle {t!r} needs three distinct points")
        if not t[0] < t[1] < t[2]:
            raise InvalidInputError(f"triangle {t!r} not sorted ascending")


class Family(Record):
    """A set of ascending triangles over a ground set, refused otherwise (see
    the module docstring). ``validated`` records that weak separation was
    checked; ``is_maximal_family`` and ``greedy_complete`` run the check on
    unvalidated input. The mark shows in the repr, but equality and the hash
    read the ground and the triangles only, so one family built two ways is
    one value."""

    __slots__ = ("ground", "triangles", "validated")
    _compared = ("ground", "triangles")

    def __init__(self, ground: GroundSet, triangles: frozenset, validated: bool = False):
        if not isinstance(ground, GroundSet):
            raise InvalidInputError(f"ground must be a GroundSet, got {ground!r}")
        _check_triangles(triangles, ground)
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "triangles", triangles)
        object.__setattr__(self, "validated", validated)

    def __len__(self):
        return len(self.triangles)

    def __contains__(self, t):
        return t in self.triangles

    def sorted_triangles(self) -> list:
        return sorted(self.triangles)

    def with_exchange(self, removed: Triangle, added: Triangle) -> "Family":
        """Replace one triangle by another. Only the added triangle is
        tested, as Family tests it: the others passed when the family was
        built. The result is not marked validated, since an arbitrary exchange
        can make two triangles cross; ``mutate`` builds the family of a move,
        which keeps weak separation, itself."""
        _check_triangles((added,), self.ground)
        try:
            applies = removed in self.triangles and added not in self.triangles
        except TypeError:  # unhashable
            raise InvalidInputError(f"removed triangle {removed!r} is not a triangle") from None
        if not applies:
            raise InvalidInputError("exchange does not apply to this family")
        return Family._unchecked(self.ground, self.triangles - {removed} | {added}, False)


def make_family(ground: GroundSet, triangles) -> Family:
    """The validated family of point triples, each sorted and checked by
    make_triangle; InvalidInputError unless weakly separated."""
    tris = [make_triangle(*t, ground=ground) for t in triangles]
    ts = frozenset(tris)
    if len(ts) != len(tris):
        raise InvalidInputError("duplicate triangles in family")
    return _validated(Family._unchecked(ground, ts, False))


def continuous_triangles(n: int) -> list:
    """The n continuous triangles {i, i+1, i+2} (mod n) as ascending tuples."""
    return [(i, i + 1, i + 2) for i in range(1, n - 1)] + [(1, n - 1, n), (1, 2, n)]


def frozen_triangles(ground: GroundSet) -> Family:
    """The n continuous triangles {i, i+1, i+2}; they cross nothing, so they lie
    in every maximal family."""
    return Family._unchecked(ground, frozenset(continuous_triangles(ground.n)), True)


def canonical_family(n: int) -> Family:
    """The rectangles seed: the frozen triangles, {1,2,j} for 4 <= j <= n-1 and
    {1,j,j+1} for 3 <= j <= n-2. It equals the greedy completion of the frozen
    triangles and is the deterministic base point of all generators."""
    ts = continuous_triangles(n) + [(1, 2, j) for j in range(4, n)] + [(1, j, j + 1) for j in range(3, n - 1)]
    return Family._unchecked(GroundSet(n), frozenset(ts), True)


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
    """{x: {a: mask}}, bit b of index[x][a] set iff {x,a,b} is a triangle (as
    mutation._toggle sets it): the star graph at every x, in one pass."""
    index = {}
    for p, q, r in triangles:
        bp, bq, br = 1 << p, 1 << q, 1 << r
        star = index.setdefault(p, {})
        star[q] = star.get(q, 0) | br
        star[r] = star.get(r, 0) | bq
        star = index.setdefault(q, {})
        star[p] = star.get(p, 0) | br
        star[r] = star.get(r, 0) | bp
        star = index.setdefault(r, {})
        star[p] = star.get(p, 0) | bq
        star[q] = star.get(q, 0) | bp
    return index


def _validated(fam: Family) -> Family:
    """fam marked validated, once weak separation holds; InvalidInputError
    naming the first crossing pair otherwise."""
    ok, pair = is_weakly_separated_family(fam)
    if not ok:
        raise InvalidInputError(f"family is not weakly separated: {pair[0]} crosses {pair[1]}")
    return Family._unchecked(fam.ground, fam.triangles, True)


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
        fam = _validated(fam)
    return len(fam) == maximal_size(fam.ground)


def greedy_complete(fam: Family) -> Family:
    """Extend to a maximal weakly separated family, repeatedly adding the
    lexicographically smallest compatible triangle.

    The addable triangles are in lex order, and one ``crossing_index`` over
    them gives, per chosen triangle, the candidates it rules out; the live
    candidates are a bitmask, so the next choice is its lowest bit."""
    if not fam.validated:
        fam = _validated(fam)
    current = set(fam.triangles)
    candidates = addable_triangles(fam)
    crossers = crossing_index(candidates, fam.ground.n)
    live = (1 << len(candidates)) - 1
    while live:
        lowest = live & -live
        chosen = candidates[lowest.bit_length() - 1]
        current.add(chosen)
        live &= ~(lowest | crossers(chosen))
    return Family._unchecked(fam.ground, frozenset(current), True)


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
    n = ground.n
    triangles = []
    repeated = None  # the first entry with a repeated point
    for raw in triples:
        # Family's strict triangle test, so the family is built unchecked
        if type(raw) is list and len(raw) == 3:
            a, b, c = raw
            if type(a) is int and type(b) is int and type(c) is int and 0 < a < b < c <= n:
                triangles.append((a, b, c))
                continue
        if (not isinstance(raw, list) or len(raw) != 3
                or any(not ground.contains(p) for p in raw)):
            raise MalformedFileError(f"bad triangle entry: {raw!r}")
        if raw != sorted(raw):
            raise MalformedFileError(f"triangle not sorted ascending: {raw!r}")
        t = tuple(raw)
        if repeated is None and len(set(t)) != 3:
            repeated = t
        triangles.append(t)
    # every entry is an ascending triple of points; a repeated point is named
    # before a duplicate triangle
    if repeated is not None:
        raise MalformedFileError(f"triangle points must be distinct: {repeated}")
    ts = frozenset(triangles)
    if len(ts) != len(triangles):
        raise MalformedFileError("duplicate triangles in family")
    fam = Family._unchecked(ground, ts, False)
    return _validated(fam) if validate else fam


def dump_family(fam: Family) -> str:
    return json.dumps(family_to_dict(fam), indent=2) + "\n"


def load_family(text: str, validate: bool = True) -> Family:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as e:  # bad JSON, a number past the digit limit, too deep
        raise MalformedFileError(f"invalid JSON: {e}") from e
    return family_from_dict(data, validate=validate)
