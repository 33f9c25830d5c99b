"""The star graph of a family at a point x and its structural classification.

For a family F and a point x, the graph has one vertex per point co-occurring
with x and one edge {a,b} per triangle {x,a,b}. For maximal weakly separated
families the vertices of degree >= 2 (triangulation points) induce a polygon
triangulation, everything else is a leaf hanging off a triangulation point, and
the graph can be realized back into a maximal family.

``star_graphs`` reads every star from one ``family.star_index`` of the
family; the index lives in ``family`` because ``mutation`` queries it too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cyclic import GroundSet, position_from, sorted_from
from .errors import (
    ConditionViolationError,
    InternalConsistencyError,
    InvalidInputError,
    MalformedFileError,
)
from .family import Family, greedy_complete, is_maximal_family, make_family, star_index

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


@dataclass(frozen=True)
class StarGraph:
    x: int
    ground: GroundSet
    vertices: frozenset
    edges: frozenset  # of ascending 2-tuples
    triangulation_points: tuple  # ordered by <_x
    leaves: dict = field(compare=False)  # leaf -> its sole neighbour
    adjacency: dict = field(compare=False, repr=False)  # vertex -> set of its neighbours

    def degree(self, v: int) -> int:
        return len(self.adjacency.get(v, ()))

    def neighbours(self, v: int) -> list:
        return sorted_from(self.x, self.adjacency.get(v, ()), self.ground.n)

    def leaves_at(self, p: int) -> list:
        """Leaves attached to p, in <_x order."""
        leaves = self.leaves
        return sorted_from(self.x, [l for l in self.adjacency.get(p, ()) if l in leaves], self.ground.n)

    def same_edges(self, other: "StarGraph") -> bool:
        return self.x == other.x and self.ground == other.ground and self.edges == other.edges


@dataclass
class StructureReport:
    ok: bool
    violations: list  # of (rule_id, witness string)


def star_subfamily(fam: Family, x: int) -> Family:
    """The triangles of the family containing x."""
    if not fam.ground.contains(x):
        raise InvalidInputError(f"point {x!r} outside 1..{fam.ground.n}")
    ts = frozenset(t for t in fam.triangles if x in t)
    return Family(fam.ground, ts, validated=fam.validated)


def _classify(x: int, ground: GroundSet, adjacency: dict) -> StarGraph:
    """The star graph at x with the given neighbour map: degrees, leaves and
    triangulation points read off the map in O(E)."""
    edges = frozenset((a, b) for a, nb in adjacency.items() for b in nb if a < b)
    tpoints = tuple(sorted_from(x, [v for v, nb in adjacency.items() if len(nb) >= 2], ground.n))
    leaves = {v: next(iter(nb)) for v, nb in adjacency.items() if len(nb) == 1}
    return StarGraph(x, ground, frozenset(adjacency), edges, tpoints, leaves, adjacency)


def star_graph_from_edges(x: int, ground: GroundSet, edges) -> StarGraph:
    """Classify an explicit edge list; tolerant of graphs that violate the
    structure theorem (verification is a separate step)."""
    if not ground.contains(x):
        raise InvalidInputError(f"point {x!r} outside 1..{ground.n}")
    adjacency = {}
    for e in edges:
        a, b = e
        if a == b or not ground.contains(a) or not ground.contains(b) or x in (a, b):
            raise InvalidInputError(f"bad star-graph edge {e!r}")
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    return _classify(x, ground, adjacency)


def _require_maximal(fam: Family) -> None:
    if not is_maximal_family(fam):
        raise InvalidInputError("family is not maximal; star-graph classification needs maximality")


def _require_endpoints(g: StarGraph) -> None:
    witness = _endpoints_violation(g)
    if witness:
        raise InternalConsistencyError(f"maximal family at x={g.x}, n={g.ground.n}: {witness}")


def build_star_graph(fam: Family, x: int) -> StarGraph:
    """Star graph of a maximal weakly separated family at x."""
    _require_maximal(fam)
    sub = star_subfamily(fam, x)
    edges = [tuple(p for p in t if p != x) for t in sub.sorted_triangles()]
    g = star_graph_from_edges(x, fam.ground, edges)
    _require_endpoints(g)
    return g


def star_graphs(fam: Family):
    """Yield the star graph at every point of a maximal family, x = 1..n.

    The stars come from one star_index of the family, so the triangles are
    scanned once, not once per point; maximality and the points of every
    triangle are checked once up front, the polygon.endpoints guard at each x.
    """
    _require_maximal(fam)
    ground = fam.ground
    for t in fam.triangles:
        if len(t) != 3 or len(set(t)) != 3:
            raise InvalidInputError(f"triangle {t!r} needs three distinct points")
    for p in set().union(*fam.triangles):
        if not ground.contains(p):
            raise InvalidInputError(f"point {p!r} outside 1..{ground.n}")
    index = star_index(fam.triangles)
    for x in ground.points():
        g = _classify(x, ground, index.get(x, {}))
        _require_endpoints(g)
        yield g


def _endpoints_violation(g: StarGraph):
    """The witness of a polygon.endpoints violation, or None when the
    triangulation points run from x+1 to x-1."""
    wrap = g.ground.wrap
    xp, xm = wrap(g.x + 1), wrap(g.x - 1)
    tp = g.triangulation_points
    if not tp or tp[0] != xp or tp[-1] != xm:
        return f"triangulation points must run from {xp} to {xm}, got {tp}"
    return None


def _chords_cross(e1, e2) -> bool:
    """Two chords with endpoints on a circle cross iff their endpoint pairs
    interleave; chords sharing an endpoint never cross."""
    a, b = e1
    c, d = e2
    if len({a, b, c, d}) < 4:
        return False
    c_in = (a < c < b)
    d_in = (a < d < b)
    return c_in != d_in


def verify_structure_theorem(g: StarGraph) -> StructureReport:
    """Check all realizability conditions (i)-(v) on a star graph, reporting
    violations instead of raising.

    Violations are (rule id, witness) pairs; RULE_CONDITIONS names the
    condition of each rule. The rules run in condition order, so the first
    violation names the first failed condition. The report is ok exactly when
    realize_star_graph accepts the graph.
    """
    violations = []
    x, n = g.x, g.ground.n
    wrap = g.ground.wrap
    tp = g.triangulation_points
    tset = set(tp)
    r = len(tp)
    xp, xm = wrap(x + 1), wrap(x - 1)

    witness = _endpoints_violation(g)
    if witness:
        violations.append(("polygon.endpoints", witness))
    if r < 2:
        violations.append(("polygon.faces", f"only {r} triangulation points"))
    else:
        t_edges = [e for e in g.edges if e[0] in tset and e[1] in tset]
        boundary = {tuple(sorted((tp[i], tp[(i + 1) % r]))) for i in range(r)}
        for e in sorted(boundary):
            if e not in g.edges:
                violations.append(("polygon.boundary", f"missing edge {e}"))
        te = sorted(t_edges)
        for i, e1 in enumerate(te):
            for e2 in te[i + 1:]:
                if _chords_cross(e1, e2):
                    violations.append(("polygon.noncrossing", f"edges {e1} and {e2} cross"))
        if len(t_edges) != 2 * r - 3:
            # Euler: inner faces = E - V + 1; all triangular iff E = 2V - 3.
            violations.append(("polygon.faces",
                               f"{len(t_edges)} edges on {r} points, expected {2 * r - 3}"))

    # every vertex outside the triangulation points has degree 1: a leaf
    for leaf in sorted(g.leaves):
        att = g.leaves[leaf]
        if att not in tset:
            violations.append(("leaf.attachment", f"leaf {leaf} hangs off {att}, not a triangulation point"))
            continue
        i = tp.index(att)
        if i == 0:
            lo, hi = tp[0], tp[1] if r > 1 else tp[0]
        elif i == r - 1:
            lo, hi = tp[r - 2], tp[r - 1]
        else:
            lo, hi = tp[i - 1], tp[i + 1]
        pos = position_from(x, leaf, n)
        if not (position_from(x, lo, n) < pos < position_from(x, hi, n)):
            violations.append(("leaf.location",
                               f"leaf {leaf} at {att} outside interval ({lo},{hi})"))

    # Sorted by <_x, the leaves must attach at positions that never decrease.
    leaves = sorted_from(x, g.leaves, n)
    for l1, l2 in zip(leaves, leaves[1:]):
        t1, t2 = g.leaves[l1], g.leaves[l2]
        if position_from(x, t2, n) < position_from(x, t1, n):
            violations.append(("leaf.order", f"leaves {l1} (at {t1}) and {l2} (at {t2}) out of order"))

    for e in (tuple(sorted((xp, wrap(x + 2)))), tuple(sorted((wrap(x - 2), xm)))):
        if e not in g.edges:
            violations.append(("frozen.edges", f"frozen edge {e} missing"))

    return StructureReport(ok=not violations, violations=violations)


def _incident_sequence(g: StarGraph, i: int) -> list:
    """Points incident to triangulation point tp[i], ordered: previous
    triangulation point, its leaves in <_x order, next triangulation point
    (cyclic conventions at the ends)."""
    tp = g.triangulation_points
    r = len(tp)
    prev_t = tp[(i - 1) % r]
    next_t = tp[(i + 1) % r]
    return [prev_t] + g.leaves_at(tp[i]) + [next_t]


def _border_candidates(g: StarGraph) -> list:
    """The border triangles {B, P_j, P_j+1} read off the graph, skipping the
    two wrap-around slots at the first and last triangulation point."""
    out = []
    tp = g.triangulation_points
    r = len(tp)
    for i, b in enumerate(tp):
        seq = _incident_sequence(g, i)
        for j in range(len(seq) - 1):
            if i == 0 and j == 0:
                continue
            if i == r - 1 and j == len(seq) - 2:
                continue
            tri = (b, seq[j], seq[j + 1])
            if len(set(tri)) != 3:
                raise InternalConsistencyError(f"degenerate border triangle {tri}")
            out.append(tuple(sorted(tri)))
    return out


def border_triangles(fam: Family, x: int) -> list:
    """Border triangles of the family at x; each is guaranteed to already lie
    in the family, so a miss signals an upstream bug."""
    return _border_triangles(fam, build_star_graph(fam, x))


def _border_triangles(fam: Family, g: StarGraph) -> list:
    """border_triangles for a caller that holds the star graph of fam at g.x."""
    tris = _border_candidates(g)
    for t in tris:
        if t not in fam.triangles:
            raise InternalConsistencyError(f"border triangle {t} missing from family at x={g.x}")
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
    star_triangles = [tuple(sorted((x, a, b))) for a, b in g.edges]
    base = star_triangles + _border_candidates(g)
    try:
        fam = make_family(g.ground, sorted(set(base)), validate=True)
    except InvalidInputError as e:
        raise InternalConsistencyError(f"realization base family not weakly separated: {e}") from e
    full = greedy_complete(fam)
    rebuilt = build_star_graph(full, x)
    if not rebuilt.same_edges(g):
        raise InternalConsistencyError("realized family does not reproduce the candidate star graph")
    return full
