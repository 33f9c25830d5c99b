"""Star graphs: construction, classification, border triangles, realization.

Claims covered:
    - the star graph of a maximal family classifies into a polygon
      triangulation plus leaves, with x+1 first and x-1 last; a family only
      marked maximal that breaks this is an internal error naming the rule's
      witness
    - the classification read off the neighbour map agrees with scans over
      every edge, and the stars of all points built from one star index equal
      the stars built one point at a time
    - border triangles read off the graph always already lie in the family
    - the nesting-order facts hold: empty interval forces a shared pair, and
      nested pairs force an intermediate point splitting them
    - realizable candidate graphs round-trip through a maximal family, and the
      admissibility conditions are reported by name
    - the structure check covers all of conditions (i)-(v): it passes exactly
      the graphs that realization accepts, and its first violation names the
      condition that realization reports
"""

import random
from itertools import combinations

import pytest

from sl3frieze.cyclic import GroundSet, position_from
from sl3frieze.errors import (
    ConditionViolationError,
    InternalConsistencyError,
    InvalidInputError,
    MalformedFileError,
)
from sl3frieze import canonical_family
from sl3frieze.family import Family, frozen_triangles, link_triangle, star_index, unlink_triangle
from sl3frieze.mutation import family_moves, random_maximal_family
from sl3frieze.stargraph import (
    RULE_CONDITIONS,
    border_triangles,
    build_star_graph,
    realize_star_graph,
    star_graph_from_dict,
    star_graph_from_edges,
    star_graph_to_dict,
    star_graphs,
    star_subfamily,
    verify_structure_theorem,
)

G8 = GroundSet(8)

# x=1, n=8: triangulation {2,5,8} with leaves 3->2, 4->5, 6->5, 7->8.
ADMISSIBLE_EDGES = [(2, 5), (5, 8), (2, 8), (2, 3), (4, 5), (5, 6), (7, 8)]


def test_star_subfamily_filters_membership():
    fam = frozen_triangles(GroundSet(6))
    sub = star_subfamily(fam, 1)
    assert sub.sorted_triangles() == [(1, 2, 3), (1, 2, 6), (1, 5, 6)]


def test_star_subfamily_of_maximal_has_at_least_three(small_corpus):
    for n, fams in small_corpus.items():
        for fam in fams[:3]:
            for x in fam.ground.points():
                assert len(star_subfamily(fam, x)) >= 3


def test_build_star_graph_canonical_n6():
    fam = canonical_family(6)
    g = build_star_graph(fam, 1)
    for e in ((2, 3), (2, 6), (5, 6)):
        assert e in g.edges
    assert g.triangulation_points[0] == 2
    assert g.triangulation_points[-1] == 6
    assert {3, 5} <= g.vertices  # x+2 and x-2


def test_build_star_graph_endpoints_all_x(small_corpus):
    for n, fams in small_corpus.items():
        g = GroundSet(n)
        for fam in fams[:3]:
            for x in g.points():
                sg = build_star_graph(fam, x)
                assert sg.triangulation_points[0] == g.wrap(x + 1)
                assert sg.triangulation_points[-1] == g.wrap(x - 1)
                assert g.wrap(x + 2) in sg.vertices
                assert g.wrap(x - 2) in sg.vertices


def _scanned(g):
    """Degree, neighbours and leaves of every vertex read by scanning every
    edge, plus the triangulation points and the leaf map."""
    n = g.ground.n
    by_x = lambda p: (p - g.x) % n
    per_vertex = {}
    for v in g.vertices:
        nb = sorted((b if a == v else a for a, b in g.edges if v in (a, b)), key=by_x)
        per_vertex[v] = (len(nb), nb)
    leaves = {v: nb[0] for v, (d, nb) in per_vertex.items() if d == 1}
    leaves_at = {v: sorted((l for l, att in leaves.items() if att == v), key=by_x) for v in g.vertices}
    tp = tuple(sorted((v for v, (d, _) in per_vertex.items() if d >= 2), key=by_x))
    return per_vertex, leaves, leaves_at, tp


def _classified(g):
    per_vertex = {v: (g.degree(v), g.neighbours(v)) for v in g.vertices}
    return per_vertex, g.leaves, {v: g.leaves_at(v) for v in g.vertices}, g.triangulation_points


def test_classification_matches_edge_scans(small_corpus):
    rng = random.Random(4)
    graphs = [build_star_graph(fam, x) for fams in small_corpus.values() for fam in fams[:4]
              for x in fam.ground.points()]
    for _ in range(300):  # arbitrary edge lists, repeated edges included
        n = rng.randint(6, 10)
        x = rng.randint(1, n)
        others = [p for p in range(1, n + 1) if p != x]
        edges = [tuple(rng.sample(others, 2)) for _ in range(rng.randint(0, 2 * n))]
        graphs.append(star_graph_from_edges(x, GroundSet(n), edges))
    for g in graphs:
        assert _classified(g) == _scanned(g)
        assert g.degree(g.x) == 0 and g.neighbours(g.x) == [] and g.leaves_at(g.x) == []


def test_star_graphs_equal_build_star_graph_at_every_x():
    for n in range(6, 17):
        fam = random_maximal_family(GroundSet(n), 3 * n, n)
        graphs = list(star_graphs(fam))
        assert [g.x for g in graphs] == list(fam.ground.points())
        for g in graphs:
            single = build_star_graph(fam, g.x)
            assert g == single
            assert g.leaves == single.leaves and g.adjacency == single.adjacency


def test_star_graphs_check_maximality_points_and_endpoints():
    with pytest.raises(InvalidInputError, match="not maximal"):
        next(star_graphs(frozen_triangles(G8)))
    tris = canonical_family(8).triangles
    for bad, message in (((1, 2, 9), "point 9 outside 1..8"), ((1, 1, 2), r"triangle \(1, 1, 2\) needs")):
        forged = Family(G8, tris - {(1, 2, 4)} | {bad}, validated=True)
        with pytest.raises(InvalidInputError, match=message):
            next(star_graphs(forged))
    # the endpoints guard of build_star_graph runs at every x
    avoiding_1 = Family(GroundSet(6), frozenset(combinations(range(2, 7), 3)), validated=True)
    with pytest.raises(InternalConsistencyError, match=r"x=1, n=6: triangulation points must run from 2 to 6"):
        list(star_graphs(avoiding_1))


def test_star_index_link_and_unlink_follow_an_exchange():
    fam = canonical_family(9)
    index = star_index(fam.triangles)
    for move in family_moves(fam):
        after = star_index(fam.triangles - {move.removed} | {move.added})
        unlink_triangle(index, move.removed)
        link_triangle(index, move.added)
        assert index == after
        unlink_triangle(index, move.added)
        link_triangle(index, move.removed)
        assert index == star_index(fam.triangles)


def test_build_star_graph_rejects_non_maximal():
    with pytest.raises(InvalidInputError):
        build_star_graph(frozen_triangles(G8), 1)


def test_build_star_graph_guards_endpoints_with_the_structure_rule():
    # all C(5,3) = 3n-8 triangles avoiding x=1, marked validated: maximal by
    # count, but the star graph at 1 is empty
    g6 = GroundSet(6)
    fam = Family(g6, frozenset(combinations(range(2, 7), 3)), validated=True)
    with pytest.raises(InternalConsistencyError, match=r"triangulation points must run from 2 to 6, got \(\)"):
        build_star_graph(fam, 1)
    empty = star_graph_from_edges(1, g6, [])
    assert verify_structure_theorem(empty).violations[0] == (
        "polygon.endpoints", "triangulation points must run from 2 to 6, got ()")


def test_structure_theorem_on_corpus(small_corpus):
    for n, fams in small_corpus.items():
        for fam in fams:
            for x in fam.ground.points():
                rep = verify_structure_theorem(build_star_graph(fam, x))
                assert rep.ok, (n, x, rep.violations)


def test_structure_detects_adjacent_leaves():
    g = star_graph_from_edges(1, G8, [(2, 8), (2, 3), (7, 8), (5, 6)])
    rep = verify_structure_theorem(g)
    assert not rep.ok
    assert any(rule == "leaf.attachment" for rule, _ in rep.violations)


def test_structure_detects_crossing_chords():
    edges = [(2, 4), (4, 6), (6, 8), (2, 8), (2, 6), (4, 8)]
    rep = verify_structure_theorem(star_graph_from_edges(1, G8, edges))
    assert not rep.ok
    assert any(rule == "polygon.noncrossing" for rule, _ in rep.violations)


def test_structure_detects_missing_boundary_edge():
    # consecutive triangulation points 6 and 8 without an edge between them
    edges = [(2, 4), (4, 6), (2, 8), (2, 6), (4, 8)]
    rep = verify_structure_theorem(star_graph_from_edges(1, G8, edges))
    assert not rep.ok
    assert any(rule == "polygon.boundary" for rule, _ in rep.violations)


def test_structure_detects_misplaced_leaf():
    # leaf 6 hangs off 2 although it lies beyond the next triangulation point
    edges = [(2, 5), (5, 8), (2, 8), (2, 6), (2, 3), (7, 8)]
    rep = verify_structure_theorem(star_graph_from_edges(1, G8, edges))
    assert not rep.ok
    assert any(rule == "leaf.location" for rule, _ in rep.violations)


def test_border_triangles_subset_of_family(small_corpus):
    for n, fams in small_corpus.items():
        for fam in fams[:4]:
            for x in fam.ground.points():
                for t in border_triangles(fam, x):
                    assert t in fam.triangles


def test_border_triangles_without_leaves_are_consecutive_triples():
    fam = canonical_family(8)
    g = build_star_graph(fam, 1)
    assert not g.leaves
    tp = g.triangulation_points
    expected = [tuple(sorted((tp[i - 1], tp[i], tp[i + 1]))) for i in range(1, len(tp) - 1)]
    assert border_triangles(fam, 1) == expected


# -- the nesting order on triangles through x ------------------------------------

def star_precedes(A, B, x: int, n: int) -> bool:
    """A <= B in the nesting order on triangles through x: writing A={x,a,b},
    B={x,c,d} with a <_x b and c <_x d, this is a <=_x c and d <=_x b."""
    if x not in A or x not in B:
        raise InvalidInputError("both triangles must contain x")
    a, b = sorted((p for p in A if p != x), key=lambda p: position_from(x, p, n))
    c, d = sorted((p for p in B if p != x), key=lambda p: position_from(x, p, n))
    return (position_from(x, a, n) <= position_from(x, c, n)
            and position_from(x, d, n) <= position_from(x, b, n))


def star_open_interval(fam: Family, A, B, x: int) -> list:
    """Triangles of the family strictly between A and B in the nesting order."""
    n = fam.ground.n
    out = []
    for C in star_subfamily(fam, x).sorted_triangles():
        if C in (A, B):
            continue
        if star_precedes(A, C, x, n) and star_precedes(C, B, x, n):
            out.append(C)
    return out


def _nesting_pairs(fam, x):
    n = fam.ground.n
    sub = star_subfamily(fam, x).sorted_triangles()
    for A in sub:
        for B in sub:
            if A != B and star_precedes(A, B, x, n):
                yield A, B


def test_empty_interval_forces_shared_pair(small_corpus):
    for n, fams in small_corpus.items():
        for fam in fams[:4]:
            for x in fam.ground.points():
                for A, B in _nesting_pairs(fam, x):
                    if not star_open_interval(fam, A, B, x):
                        assert len(set(A) & set(B)) >= 2, (n, x, A, B)


def test_nested_pair_splits_at_some_point(small_corpus):
    for n, fams in small_corpus.items():
        for fam in fams[:4]:
            for x in fam.ground.points():
                for A, B in _nesting_pairs(fam, x):
                    a, b = sorted((p for p in A if p != x), key=lambda p: position_from(x, p, n))
                    c, d = sorted((p for p in B if p != x), key=lambda p: position_from(x, p, n))
                    if a == c or d == b:
                        continue
                    splits = [y for y in fam.ground.points()
                              if y not in (x, a, b)
                              and tuple(sorted((x, a, y))) in fam.triangles
                              and tuple(sorted((x, y, b))) in fam.triangles]
                    assert splits, (n, x, A, B)


def test_realize_round_trip_on_corpus(small_corpus):
    for n, fams in small_corpus.items():
        for fam in fams[:3]:
            for x in (1, 2):
                g = build_star_graph(fam, x)
                realized = realize_star_graph(g)
                assert build_star_graph(realized, x).same_edges(g)


def test_realize_admissible_hand_graph():
    g = star_graph_from_edges(1, G8, ADMISSIBLE_EDGES)
    fam = realize_star_graph(g)
    assert build_star_graph(fam, 1).same_edges(g)


def test_realize_rejects_missing_frozen_edge():
    edges = [e for e in ADMISSIBLE_EDGES if e != (2, 3)]  # drop x+2 entirely
    with pytest.raises(ConditionViolationError) as exc:
        realize_star_graph(star_graph_from_edges(1, G8, edges))
    assert exc.value.condition == "v"


def test_realize_rejects_path_shaped_core():
    edges = [(2, 5), (5, 8), (2, 3), (7, 8)]  # {2,5,8} induce a path
    with pytest.raises(ConditionViolationError) as exc:
        realize_star_graph(star_graph_from_edges(1, G8, edges))
    assert exc.value.condition == "i"


def test_realize_rejects_far_leaf():
    # leaf 6 attached to 2 skips the nearer triangulation points
    edges = [(2, 5), (5, 8), (2, 8), (2, 3), (2, 6), (7, 8)]
    with pytest.raises(ConditionViolationError) as exc:
        realize_star_graph(star_graph_from_edges(1, G8, edges))
    assert exc.value.condition == "iii"


def test_realize_rejects_leaf_order_violation():
    # leaves 4 (at 5) and 6 (at 5) are fine, but 7 at 5 vs 6 at 8 inverts (iv)
    edges = [(2, 5), (5, 8), (2, 8), (2, 3), (5, 7), (6, 8)]
    with pytest.raises(ConditionViolationError) as exc:
        realize_star_graph(star_graph_from_edges(1, G8, edges))
    assert exc.value.condition == "iv"


def test_star_graph_json_round_trip():
    g = build_star_graph(canonical_family(8), 3)
    again = star_graph_from_dict(star_graph_to_dict(g))
    assert again.same_edges(g)


def test_star_graph_json_rejects_unknown_keys():
    data = star_graph_to_dict(build_star_graph(canonical_family(8), 3))
    data["extra"] = 1
    with pytest.raises(MalformedFileError):
        star_graph_from_dict(data)


# n=7 graphs that pass the polygon boundary, crossing, face, attachment and
# location rules, yet break a further condition of realizability
UNREALIZABLE_N7 = [
    (4, [(2, 3), (3, 6), (6, 7)], "polygon.endpoints"),  # x+1 = 5 is not a vertex
    (6, [(1, 7), (2, 5), (3, 7), (4, 5), (5, 7)], "leaf.order"),  # leaf 3 at 7 follows leaf 2 at 5
    (2, [(1, 3), (1, 5), (3, 4)], "frozen.edges"),  # {7,1} missing
]


@pytest.mark.parametrize("x, edges, rule", UNREALIZABLE_N7)
def test_structure_covers_every_condition(x, edges, rule):
    g = star_graph_from_edges(x, GroundSet(7), edges)
    rep = verify_structure_theorem(g)
    assert not rep.ok
    assert rule in [r for r, _ in rep.violations]
    with pytest.raises(ConditionViolationError) as exc:
        realize_star_graph(g)
    assert exc.value.condition == RULE_CONDITIONS[rule]


def _perturbed_star_graphs(count, seed):
    """Star graphs of random maximal families (n = 7..10), each with one or
    two edits: an edge dropped, an edge added, or an edge end moved."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(7, 10)
        ground = GroundSet(n)
        fam = random_maximal_family(ground, 3 * n, rng.randrange(2**32))
        x = rng.randint(1, n)
        edges = sorted(build_star_graph(fam, x).edges)
        others = [p for p in ground.points() if p != x]
        for _ in range(rng.randint(1, 2)):
            kind = rng.randrange(3)
            if kind == 0 and len(edges) > 1:
                edges.pop(rng.randrange(len(edges)))
            elif kind == 1:
                edges.append(tuple(sorted(rng.sample(others, 2))))
            else:
                a, b = edges.pop(rng.randrange(len(edges)))
                edges.append(tuple(sorted((a, rng.choice([p for p in others if p not in (a, b)])))))
            edges = sorted(set(edges))
        yield star_graph_from_edges(x, ground, edges)


def test_structure_check_decides_realizability():
    seen = set()
    for g in _perturbed_star_graphs(400, seed=3):
        rep = verify_structure_theorem(g)
        try:
            realize_star_graph(g)
        except ConditionViolationError as e:
            assert not rep.ok, (g.x, sorted(g.edges), e)
            assert e.condition == RULE_CONDITIONS[rep.violations[0][0]]
            seen.add(e.condition)
        else:
            assert rep.ok, (g.x, sorted(g.edges), rep.violations)
            seen.add("ok")
    assert seen == {"ok", "i", "iii", "iv", "v"}
