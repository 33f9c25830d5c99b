"""The star graph of a family at a point x and its structural classification.

For a family F and a point x, the graph has one vertex per point co-occurring
with x and one edge {a,b} per triangle {x,a,b}. For maximal weakly separated
families the vertices of degree >= 2 (triangulation points) induce a polygon
triangulation, everything else is a leaf hanging off a triangulation point, and
the graph can be realized back into a maximal family.

A star is defined by x's own neighbour masks: bit b of mask[a] is set iff
{a,b} is an edge. ``build_star_graph`` fills them in one pass over the
triangles through x, and a ``StarGraph`` is built from them alone: its edges,
triangulation points and leaves are read off the masks, so no two of them can
disagree. The structure check reads the same masks and classification.
``_classify`` is the one place that groups a star's leaves: its triangulation
points in <_x order, and each point's leaves by attachment. ``frieze``
contracts each star of one ``family.star_index`` on that classification,
walking each point's border sequence in place; ``_border_candidates`` walks the
same sequences for ``border_triangles`` and realization.
"""

from __future__ import annotations

from bisect import bisect

from .cyclic import GroundSet, Record
from .errors import (
    ConditionViolationError,
    InternalConsistencyError,
    InvalidInputError,
    MalformedFileError,
)
from .family import Family, _validated, greedy_complete, is_maximal_family
from .separation import crossing

STAR_GRAPH_SCHEMA_VERSION = 1

STRUCTURE_RULES = {
    "polygon.endpoints": "triangulation points must run from x+1 to x-1",
    "polygon.boundary": "consecutive triangulation points must be adjacent",
    "polygon.noncrossing": "chords between triangulation points must not cross",
    "polygon.faces": "inner faces of the triangulation must all be triangles",
    "leaf.attachment": "non-triangulation vertices must have degree 1 into a triangulation point",
    "leaf.location": "a leaf must lie between the neighbours of its triangulation point",
    "leaf.order": "leaves in <_x order must attach to triangulation points in <_x order",
    "frozen.edges": "the frozen edges {x+1,x+2} and {x-2,x-1} must be present",
}

# The realizability condition (i)-(v) each rule belongs to; (ii) holds by
# construction, since the triangulation points are the vertices of degree >= 2.
RULE_CONDITIONS = {
    "polygon.endpoints": "i", "polygon.boundary": "i", "polygon.noncrossing": "i", "polygon.faces": "i",
    "leaf.attachment": "iii", "leaf.location": "iii",
    "leaf.order": "iv",
    "frozen.edges": "v",
}


class StarGraph(Record):
    """The star graph at x, defined by x's neighbour masks (vertex -> its
    neighbour mask, bit b of masks[a] set iff {a,b} is an edge; symmetric,
    with no bit or key for x). The other fields are read off the masks when
    the graph is built: ``edges``, a frozenset of ascending pairs;
    ``triangulation_points``, the vertices of degree >= 2 in <_x order; and
    ``leaves``, {leaf: its sole neighbour}. Two graphs are equal when x, the
    ground set, the edges and the triangulation points are; repr also shows
    the leaves. A graph pickles and copies as StarGraph(x, ground, masks)."""

    __slots__ = ("x", "ground", "edges", "triangulation_points", "leaves", "masks")
    _compared = __slots__[:4]  # leaves and masks follow from the edges
    _shown = __slots__[:5]

    def __init__(self, x: int, ground: GroundSet, masks: dict):
        # each edge read once, at its lower end
        edges = frozenset((a, b) for a, mask in masks.items() for b in _bits(mask & -2 << a))
        tp, leaves_at = _classify(x, masks)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "triangulation_points", tuple(tp))
        object.__setattr__(self, "leaves", {leaf: p for p, ls in leaves_at.items() for leaf in ls})
        object.__setattr__(self, "masks", dict(masks))  # a copy: the other fields were read off these

    def __reduce__(self):
        return StarGraph, (self.x, self.ground, self.masks)


class StructureReport(Record):
    __slots__ = ("ok", "violations")
    __hash__ = None  # it holds lists

    def __init__(self, ok: bool, violations: list):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "violations", violations)  # of (rule_id, witness string)


def star_graph_from_edges(x: int, ground: GroundSet, edges) -> StarGraph:
    """Classify an explicit edge list; tolerant of graphs that violate the
    structure theorem (verification is a separate step)."""
    if not ground.contains(x):
        raise InvalidInputError(f"point {x!r} outside 1..{ground.n}")
    star = {}
    for e in edges:
        try:
            a, b = e
        except (TypeError, ValueError):  # not a pair
            raise InvalidInputError(f"bad star-graph edge {e!r}") from None
        if a == b or not ground.contains(a) or not ground.contains(b) or x in (a, b):
            raise InvalidInputError(f"bad star-graph edge {e!r}")
        star[a] = star.get(a, 0) | 1 << b
        star[b] = star.get(b, 0) | 1 << a
    return StarGraph(x, ground, star)


def _bits(mask: int):
    """The set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _star_at(triangles, x: int) -> dict:
    """x's neighbour masks, bit b of star[a] set iff {x,a,b} is one of the
    triangles: the star at x, filled in one pass."""
    star = {}
    for p, q, r in triangles:  # (p, r) becomes the pair left when x is dropped
        if p == x:
            p = q
        elif r == x:
            r = q
        elif q != x:
            continue
        star[p] = star.get(p, 0) | 1 << r
        star[r] = star.get(r, 0) | 1 << p
    return star


def _classify(x: int, star: dict):
    """The triangulation points (degree >= 2) of a star's neighbour masks in
    <_x order, and {vertex: the leaves attached to it, in <_x order}. The
    <_x order is the ascending order rotated to start past x; a leaf's mask
    has one bit, its attachment."""
    order = sorted(star)
    cut = bisect(order, x)
    tp, leaves_at = [], {}
    for v in order[cut:] + order[:cut]:
        mask = star[v]
        if mask & (mask - 1):
            tp.append(v)
        else:
            leaves_at.setdefault(mask.bit_length() - 1, []).append(v)
    return tp, leaves_at


def _require_endpoints(x: int, n: int, tp) -> None:
    """The polygon.endpoints guard on the triangulation points tp at x."""
    witness = _endpoints_violation(x, n, tp)
    if witness:
        raise InternalConsistencyError(f"maximal family at x={x}, n={n}: {witness}")


def _require_star(fam: Family, x: int) -> None:
    """InvalidInputError unless fam is maximal and x is a point of its ground
    set: what a star of fam at x needs before it is laid out."""
    if not is_maximal_family(fam):
        raise InvalidInputError("family is not maximal; star-graph classification needs maximality")
    if not fam.ground.contains(x):
        raise InvalidInputError(f"point {x!r} outside 1..{fam.ground.n}")


def build_star_graph(fam: Family, x: int) -> StarGraph:
    """Star graph of a maximal weakly separated family at x, on x's neighbour
    masks."""
    _require_star(fam, x)
    g = StarGraph(x, fam.ground, _star_at(fam.triangles, x))
    _require_endpoints(x, fam.ground.n, g.triangulation_points)
    return g


def _endpoints_violation(x: int, n: int, tp):
    """The witness of a polygon.endpoints violation, or None when the
    triangulation points tp run from x+1 to x-1."""
    xp, xm = x % n + 1, (x - 2) % n + 1
    if not tp or tp[0] != xp or tp[-1] != xm:
        return f"triangulation points must run from {xp} to {xm}, got {tp}"
    return None


def _noncrossing(chords) -> bool:
    """Whether no two chords, ascending pairs (a, b) given in (a, -b) order,
    cross: read as intervals ordered by left end and then by right end
    descending, they must nest or touch. One pass keeps the right ends of the
    open intervals on a stack; a chord crosses iff it starts inside the
    innermost open interval and ends past it."""
    ends = []
    for a, b in chords:
        while ends and ends[-1] <= a:
            ends.pop()
        if ends and b > ends[-1]:
            return False
        ends.append(b)
    return True


def verify_structure_theorem(g: StarGraph) -> StructureReport:
    """Check all realizability conditions (i)-(v) on a star graph, reporting
    violations instead of raising.

    Violations are (rule id, witness) pairs; RULE_CONDITIONS names the
    condition of each rule. The rules run in condition order, so the first
    violation names the first failed condition. The report is ok exactly when
    realize_star_graph accepts the graph.
    """
    violations = []
    x, n, masks, leaves, tp = g.x, g.ground.n, g.masks, g.leaves, g.triangulation_points
    wrap = g.ground.wrap
    rank = {p: i for i, p in enumerate(tp)}  # of the triangulation points, in <_x order
    r = len(tp)

    witness = _endpoints_violation(x, n, tp)
    if witness:
        violations.append(("polygon.endpoints", witness))
    if r < 2:
        violations.append(("polygon.faces", f"only {r} triangulation points"))
    else:
        # Ascending, the points keep their cyclic neighbours: the boundary
        # edges past a are {a, next point}, and {first, last} at the first.
        # Missing edges are named in lex order; the triangulation edges are
        # collected in (a, -b) order, each point's chords reversed.
        asc = sorted(tp)
        inside = sum(1 << p for p in asc)
        te = []  # the triangulation edges
        for i, a in enumerate(asc):
            boundary = (1 << asc[i + 1] if i + 1 < r else 0) | (1 << asc[-1] if i == 0 else 0)
            for b in _bits(boundary & ~masks[a]):
                violations.append(("polygon.boundary", f"missing edge {(a, b)}"))
            te += reversed([(a, b) for b in _bits(masks[a] & inside & -2 << a)])
        if not _noncrossing(te):  # name every crossing pair, in lex order
            # two triangles through x cross iff their chords interleave
            te.sort()
            for i, e1 in enumerate(te):
                for e2 in te[i + 1:]:
                    if crossing((x, *e1), (x, *e2)):
                        violations.append(("polygon.noncrossing", f"edges {e1} and {e2} cross"))
        if len(te) != 2 * r - 3:
            # Euler: inner faces = E - V + 1; all triangular iff E = 2V - 3.
            violations.append(("polygon.faces", f"{len(te)} edges on {r} points, expected {2 * r - 3}"))

    # every vertex outside the triangulation points has degree 1: a leaf
    ls = sorted(leaves)
    for leaf in ls:
        att = leaves[leaf]
        i = rank.get(att)
        if i is None:
            violations.append(("leaf.attachment", f"leaf {leaf} hangs off {att}, not a triangulation point"))
            continue
        lo, hi = tp[max(i - 1, 0)], tp[min(i + 1, r - 1)]
        if not ((lo - x) % n < (leaf - x) % n < (hi - x) % n):  # positions in <_x order
            violations.append(("leaf.location",
                               f"leaf {leaf} at {att} outside interval ({lo},{hi})"))

    # Sorted by <_x (ascending, rotated to start past x), the leaves must
    # attach at positions that never decrease.
    cut = bisect(ls, x)
    ls = ls[cut:] + ls[:cut]
    for l1, l2 in zip(ls, ls[1:]):
        t1, t2 = leaves[l1], leaves[l2]
        if (t2 - x) % n < (t1 - x) % n:
            violations.append(("leaf.order", f"leaves {l1} (at {t1}) and {l2} (at {t2}) out of order"))

    for a, b in (sorted((wrap(x + 1), wrap(x + 2))), sorted((wrap(x - 2), wrap(x - 1)))):
        if not masks.get(a, 0) >> b & 1:
            violations.append(("frozen.edges", f"frozen edge {(a, b)} missing"))

    return StructureReport(ok=not violations, violations=violations)


def _border_candidates(x: int, n: int, star: dict) -> list:
    """The border triangles of the star at x, given by its neighbour masks
    (bit b of star[a] set iff {a,b} is an edge, a point's degree its
    popcount), walked straight off _classify: for each triangulation point p
    in <_x order, its border sequence runs from the previous triangulation
    point through p's leaves in <_x order to the next one, and each
    consecutive pair (a, b) of it gives the border triangle {p, a, b}. The
    first and last points have no wrap-around end, so the sequence of x+1
    starts at its leaves and that of x-1 ends at them. Triangulation points
    that do not run from x+1 to x-1 are an InternalConsistencyError."""
    tp, leaves_at = _classify(x, star)
    _require_endpoints(x, n, tuple(tp))
    # the slices are empty past either end, which cuts the wrap-around
    seqs = [(p, tp[i - 1:i] + leaves_at.get(p, []) + tp[i + 1:i + 2]) for i, p in enumerate(tp)]
    return [tuple(sorted((p, a, b))) for p, seq in seqs for a, b in zip(seq, seq[1:])]


def border_triangles(fam: Family, x: int) -> list:
    """Border triangles of the family at x; each is guaranteed to already lie
    in the family, so a miss signals an upstream bug. The star is laid out as
    x's masks, with no StarGraph built."""
    _require_star(fam, x)
    return _border_triangles(fam, x, _star_at(fam.triangles, x))


def _border_triangles(fam: Family, x: int, star: dict) -> list:
    """border_triangles for a caller that holds x's neighbour masks in fam."""
    tris = _border_candidates(x, fam.ground.n, star)
    for t in tris:
        if t not in fam.triangles:
            raise InternalConsistencyError(f"border triangle {t} missing from family at x={x}")
    return tris


# -- JSON format ---------------------------------------------------------------
#
# {"x": 1, "n": 8, "edges": [[2,3], [3,4], ...]}  (optional "schema_version")

def star_graph_to_dict(g: StarGraph) -> dict:
    return {
        "schema_version": STAR_GRAPH_SCHEMA_VERSION,
        "x": g.x,
        "n": g.ground.n,
        "edges": sorted([list(e) for e in g.edges]),
    }


def star_graph_from_dict(data) -> StarGraph:
    if not isinstance(data, dict):
        raise MalformedFileError("star-graph file must be a JSON object")
    unknown = set(data) - {"x", "n", "edges", "schema_version"}
    if unknown:
        raise MalformedFileError(f"unknown keys in star-graph file: {sorted(unknown)}")
    for key in ("x", "n", "edges"):
        if key not in data:
            raise MalformedFileError(f'star-graph file needs key "{key}"')
    try:
        ground = GroundSet(data["n"])
    except InvalidInputError as e:
        raise MalformedFileError(str(e)) from e
    edges = data["edges"]
    if not isinstance(edges, list) or not all(isinstance(e, list) and len(e) == 2 for e in edges):
        raise MalformedFileError('"edges" must be a list of point pairs')
    try:
        return star_graph_from_edges(data["x"], ground, [tuple(e) for e in edges])
    except InvalidInputError as e:
        raise MalformedFileError(str(e)) from e


# -- realization of admissible graphs ------------------------------------------

def realize_star_graph(g: StarGraph) -> Family:
    """Construct a maximal weakly separated family whose star graph at g.x is
    exactly g, following the two-phase construction: star triangles plus the
    border family, then greedy completion.

    A graph that fails verify_structure_theorem raises ConditionViolationError
    with the condition (i)-(v) of the first violation and its witness.
    """
    report = verify_structure_theorem(g)
    if not report.ok:
        rule, witness = report.violations[0]
        raise ConditionViolationError(RULE_CONDITIONS[rule], witness)
    x = g.x
    base = [tuple(sorted((x, a, b))) for a, b in g.edges] + _border_candidates(x, g.ground.n, g.masks)
    try:  # ascending triples of points, so Family's own test suffices
        fam = _validated(Family(g.ground, frozenset(base)))
    except InvalidInputError as e:
        raise InternalConsistencyError(f"realization base family not weakly separated: {e}") from e
    full = greedy_complete(fam)
    if _star_at(full.triangles, x) != g.masks:
        raise InternalConsistencyError("realized family does not reproduce the candidate star graph")
    return full
