"""Star graphs: construction, classification, border triangles, realization.

Claims covered:
    - the star graph of a maximal family classifies into a polygon
      triangulation plus leaves, with x+1 first and x-1 last; a family only
      marked maximal that breaks this is an internal error naming the rule's
      witness
    - the classification read off the neighbour masks, and the border
      triangles walked straight off it, agree with scans over every edge
    - border triangles read off the graph always already lie in the family;
      laid out straight from x's masks, they are the graph's border
      triangles, and refuse a family or point as build_star_graph does
    - an explicit edge that is not a pair of points of 1..n other than x is
      refused as a bad star-graph edge
    - the nesting-order facts hold: empty interval forces a shared pair, and
      nested pairs force an intermediate point splitting them
    - realizable candidate graphs round-trip through a maximal family, and the
      admissibility conditions are reported by name
    - the non-crossing check in one pass over nested intervals decides what
      the scan of every chord pair decides, and a crossing is reported pair
      by pair as that scan finds them; the structure check scans chord pairs
      on no star of a maximal family
    - the structure check covers all of conditions (i)-(v): it passes exactly
      the graphs that realization accepts, and its first violation names the
      condition that realization reports
    - the structure check, read off the masks, gives the report of the check
      that scans the edge set (rule ids, witnesses and their order) on every
      star of every maximal family at n = 6, 7 and 8, on perturbed stars, on
      random chord sets and on hand-made unrealizable graphs; past a machine
      word (every star of walk families at n = 16, 64 and 128, and perturbed
      stars at n = 16..64) the structure check, the classification and the
      border walk give what the edge scans give
    - build_star_graph, border_triangles, verify_structure_theorem and
      realize_star_graph refuse an argument of another type with
      InvalidInputError
"""

import random
import re
from itertools import combinations

import pytest

from conftest import maximal_families, position_from, sorted_from
from reference import chords_cross
from sl3frieze.cyclic import GroundSet
from sl3frieze.errors import (
    ConditionViolationError,
    InternalConsistencyError,
    InvalidInputError,
    MalformedFileError,
)
from sl3frieze import canonical_family
from sl3frieze.family import Family, frozen_triangles
from sl3frieze.mutation import random_maximal_family
from sl3frieze.stargraph import (
    STRUCTURE_RULES,
    StructureReport,
    _border_candidates,
    _endpoints_violation,
    _noncrossing,
    border_triangles,
    build_star_graph,
    realize_star_graph,
    star_graph_from_dict,
    star_graph_from_edges,
    star_graph_to_dict,
    verify_structure_theorem,
)
import sl3frieze.stargraph as stargraph_module

G8 = GroundSet(8)

# x=1, n=8: triangulation {2,5,8} with leaves 3->2, 4->5, 6->5, 7->8.
ADMISSIBLE_EDGES = [(2, 5), (5, 8), (2, 8), (2, 3), (4, 5), (5, 6), (7, 8)]


def test_star_subfamily_of_maximal_has_at_least_three(small_corpus):
    for n, fams in small_corpus.items():
        for fam in fams[:3]:
            for x in fam.ground.points():
                assert sum(x in t for t in fam.triangles) >= 3


def test_build_star_graph_canonical_n6():
    fam = canonical_family(6)
    g = build_star_graph(fam, 1)
    for e in ((2, 3), (2, 6), (5, 6)):
        assert e in g.edges
    assert g.triangulation_points[0] == 2
    assert g.triangulation_points[-1] == 6
    assert {3, 5} <= set(g.masks)  # x+2 and x-2


def test_build_star_graph_endpoints_all_x(small_corpus):
    for n, fams in small_corpus.items():
        g = GroundSet(n)
        for fam in fams[:3]:
            for x in g.points():
                sg = build_star_graph(fam, x)
                assert sg.triangulation_points[0] == g.wrap(x + 1)
                assert sg.triangulation_points[-1] == g.wrap(x - 1)
                assert g.wrap(x + 2) in sg.masks
                assert g.wrap(x - 2) in sg.masks


def _scanned(g):
    """Degree, neighbours and leaves of every vertex read by scanning every
    edge, plus the leaf map and the triangulation points."""
    n = g.ground.n
    by_x = lambda p: (p - g.x) % n
    per_vertex = {}
    for v in g.masks:
        nb = sorted((b if a == v else a for a, b in g.edges if v in (a, b)), key=by_x)
        per_vertex[v] = (len(nb), nb)
    leaves = {v: nb[0] for v, (d, nb) in per_vertex.items() if d == 1}
    leaves_at = {v: sorted((l for l, att in leaves.items() if att == v), key=by_x) for v in g.masks}
    tp = tuple(sorted((v for v, (d, _) in per_vertex.items() if d >= 2), key=by_x))
    return per_vertex, leaves, leaves_at, tp


def _classified(g):
    """The same, read off the graph's neighbour masks and classification: a
    degree is a popcount, the neighbours are the set bits."""
    n = g.ground.n
    by_x = lambda p: (p - g.x) % n
    nbs = {v: [b for b in range(n + 1) if mask >> b & 1] for v, mask in g.masks.items()}
    per_vertex = {v: (g.masks[v].bit_count(), sorted(nbs[v], key=by_x)) for v in g.masks}
    leaves_at = {v: sorted((l for l in nbs[v] if l in g.leaves), key=by_x) for v in g.masks}
    return per_vertex, g.leaves, leaves_at, g.triangulation_points


def _scanned_border_triangles(g):
    """The border triangles rebuilt from the edge scans: for each
    triangulation point p, each consecutive pair (a, b) of its border
    sequence, the previous triangulation point, the leaves, the next one,
    cut at both ends, gives {p, a, b}."""
    _, _, leaves_at, tp = _scanned(g)
    out = []
    for i, p in enumerate(tp):
        before = [tp[i - 1]] if i > 0 else []
        after = [tp[i + 1]] if i < len(tp) - 1 else []
        seq = before + leaves_at[p] + after
        out += [tuple(sorted((p, a, b))) for a, b in zip(seq, seq[1:])]
    return out


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
    laid_out = 0
    for g in graphs:
        assert _classified(g) == _scanned(g)
        assert g.x not in g.masks
        tp = _scanned(g)[3]
        x, n = g.x, g.ground.n
        if tp and tp[0] == x % n + 1 and tp[-1] == (x - 2) % n + 1:
            assert _border_candidates(x, n, g.masks) == _scanned_border_triangles(g)
            laid_out += 1
        else:
            with pytest.raises(InternalConsistencyError, match=f"x={x}, n={n}: triangulation points must run"):
                _border_candidates(x, n, g.masks)
    assert laid_out > len(graphs) - 300  # every corpus star, and some random ones


def test_build_star_graph_rejects_non_maximal():
    with pytest.raises(InvalidInputError):
        build_star_graph(frozen_triangles(G8), 1)


def test_build_star_graph_rejects_points_outside_the_ground_set():
    # maximality is checked before the point
    with pytest.raises(InvalidInputError, match="^family is not maximal; star-graph classification needs maximality$"):
        build_star_graph(frozen_triangles(G8), 9)
    for x in (0, 9, True, "1"):
        with pytest.raises(InvalidInputError, match=re.escape(f"point {x!r} outside 1..8")):
            build_star_graph(canonical_family(8), x)


@pytest.mark.parametrize("edge", [(2, 3, 4), (2,), 5, (2, 2), (1, 3), (2, 9), (True, 3)],
                         ids=["three-points", "one-point", "not-a-pair", "loop", "through-x", "point-past-n",
                              "bool-point"])
def test_star_graph_from_edges_refuses_bad_edges(edge):
    with pytest.raises(InvalidInputError, match=f"^bad star-graph edge {re.escape(repr(edge))}$"):
        star_graph_from_edges(1, G8, [(2, 3), edge])


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


def _random_chord_sets(count, seed):
    """(ground, chords) pairs: random sets of chords between points 2..n,
    sorted, at random n in 6..12."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(6, 13)
        pool = list(combinations(range(2, n + 1), 2))
        yield GroundSet(n), sorted(rng.sample(pool, rng.randrange(1, min(2 * n, len(pool)))))


def test_noncrossing_pass_agrees_with_the_pairwise_scan():
    # the one-pass check decides what the scan of every pair decides, and the
    # report names every crossing pair in lex order, as the scan finds them
    crossing = 0
    for ground, chords in _random_chord_sets(2000, seed=5):
        pairs = [(e1, e2) for e1, e2 in combinations(chords, 2) if chords_cross(e1, e2)]
        assert _noncrossing(sorted(chords, key=lambda e: (e[0], -e[1]))) == (not pairs), chords
        rep = verify_structure_theorem(star_graph_from_edges(1, ground, chords))
        named = [w for rule, w in rep.violations if rule == "polygon.noncrossing"]
        tp = set(star_graph_from_edges(1, ground, chords).triangulation_points)
        te = [e for e in chords if e[0] in tp and e[1] in tp]
        assert named == [f"edges {e1} and {e2} cross" for e1, e2 in combinations(te, 2) if chords_cross(e1, e2)]
        crossing += bool(named)
    assert crossing > 500


def test_structure_check_scans_chord_pairs_only_when_two_cross(monkeypatch, small_corpus):
    # the chords reach _noncrossing in (a, -b) order, so nested chords pass
    # in one pass; the pairwise scan, which names crossing pairs, runs on no
    # star of a maximal family
    def scan(*args):
        raise AssertionError("pairwise chord scan on a star whose chords do not cross")

    monkeypatch.setattr(stargraph_module, "crossing", scan)
    for fam in _star_families(small_corpus):
        for x in fam.ground.points():
            assert verify_structure_theorem(build_star_graph(fam, x)).ok


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


def _star_families(small_corpus):
    """Every small_corpus family, and walk families at n = 12, 16 and 32."""
    walks = [random_maximal_family(GroundSet(n), 4 * n, seed) for n in (12, 16, 32) for seed in (1, 2)]
    return [fam for fams in small_corpus.values() for fam in fams] + walks


def test_border_triangles_on_masks_equal_those_of_the_graph(small_corpus):
    # border_triangles lays out x's masks with no StarGraph; it gives what
    # the graph's edge scans give, and every star realizes back to itself
    for fam in _star_families(small_corpus):
        for x in fam.ground.points():
            g = build_star_graph(fam, x)
            borders = border_triangles(fam, x)
            assert borders == _scanned_border_triangles(g)
            realized = build_star_graph(realize_star_graph(g), x)
            assert realized.edges == g.edges and realized.masks == g.masks


def test_border_triangles_refuses_what_build_star_graph_refuses():
    # a non-maximal family, a point outside 1..n, and the endpoint guard
    g6 = GroundSet(6)
    guarded = Family(g6, frozenset(combinations(range(2, 7), 3)), validated=True)
    cases = [(frozen_triangles(G8), 1, InvalidInputError), (canonical_family(8), 9, InvalidInputError),
             (canonical_family(8), 0, InvalidInputError), (guarded, 1, InternalConsistencyError)]
    for fam, x, error in cases:
        raised = []
        for f in (build_star_graph, border_triangles):
            with pytest.raises(error) as exc:
                f(fam, x)
            raised.append((type(exc.value), str(exc.value)))
        assert raised[0] == raised[1], (x, raised)



@pytest.mark.parametrize("entry, args, message", [
    (build_star_graph, (None, 1), "family must be a Family, got None"),
    (border_triangles, (None, 1), "family must be a Family, got None"),
    (verify_structure_theorem, (None,), "star graph must be a StarGraph, got None"),
    (realize_star_graph, (None,), "star graph must be a StarGraph, got None"),
], ids=["build_star_graph", "border_triangles", "verify_structure_theorem", "realize_star_graph"])
def test_star_entry_points_refuse_an_argument_of_another_type(entry, args, message):
    # a bare AttributeError before; the wording of Family's refusal of a
    # ground that is not a GroundSet
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        entry(*args)


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
    for C in sorted(t for t in fam.triangles if x in t):
        if C in (A, B):
            continue
        if star_precedes(A, C, x, n) and star_precedes(C, B, x, n):
            out.append(C)
    return out


def _nesting_pairs(fam, x):
    n = fam.ground.n
    sub = sorted(t for t in fam.triangles if x in t)
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
                assert build_star_graph(realized, x).edges == g.edges


def test_realize_admissible_hand_graph():
    g = star_graph_from_edges(1, G8, ADMISSIBLE_EDGES)
    fam = realize_star_graph(g)
    assert build_star_graph(fam, 1).edges == g.edges


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
    assert again.edges == g.edges


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
    assert exc.value.condition == STRUCTURE_RULES[rule][0]


def _perturbed_star_graphs(count, seed, sizes=(7, 10), per_family=1):
    """count star graphs of random maximal families (n drawn from sizes, both
    ends included; per_family stars of each family), each with one or two
    edits: an edge dropped, an edge added, or an edge end moved."""
    rng = random.Random(seed)
    for i in range(count):
        if i % per_family == 0:
            n = rng.randint(*sizes)
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
            assert e.condition == STRUCTURE_RULES[rep.violations[0][0]][0]
            seen.add(e.condition)
        else:
            assert rep.ok, (g.x, sorted(g.edges), rep.violations)
            seen.add("ok")
    assert seen == {"ok", "i", "iii", "iv", "v"}


def _edge_scan_report(g):
    """The structure check read off the edge set, with sorted edge lists, a
    set of boundary pairs and a search of the triangulation points for each
    leaf: the reference for verify_structure_theorem, which reads the masks."""
    violations = []
    x, n = g.x, g.ground.n
    wrap = g.ground.wrap
    tp = g.triangulation_points
    tset = set(tp)
    r = len(tp)

    witness = _endpoints_violation(x, n, tp)
    if witness:
        violations.append(("polygon.endpoints", witness))
    if r < 2:
        violations.append(("polygon.faces", f"only {r} triangulation points"))
    else:
        te = sorted(e for e in g.edges if e[0] in tset and e[1] in tset)
        boundary = {tuple(sorted((tp[i], tp[(i + 1) % r]))) for i in range(r)}
        for e in sorted(boundary):
            if e not in g.edges:
                violations.append(("polygon.boundary", f"missing edge {e}"))
        for i, e1 in enumerate(te):  # every crossing pair, in lex order
            for e2 in te[i + 1:]:
                if chords_cross(e1, e2):
                    violations.append(("polygon.noncrossing", f"edges {e1} and {e2} cross"))
        if len(te) != 2 * r - 3:
            violations.append(("polygon.faces", f"{len(te)} edges on {r} points, expected {2 * r - 3}"))

    for leaf in sorted(g.leaves):
        att = g.leaves[leaf]
        if att not in tset:
            violations.append(("leaf.attachment", f"leaf {leaf} hangs off {att}, not a triangulation point"))
            continue
        i = tp.index(att)
        lo, hi = tp[max(i - 1, 0)], tp[min(i + 1, r - 1)]
        pos = position_from(x, leaf, n)
        if not (position_from(x, lo, n) < pos < position_from(x, hi, n)):
            violations.append(("leaf.location", f"leaf {leaf} at {att} outside interval ({lo},{hi})"))

    leaves = sorted_from(x, g.leaves, n)
    for l1, l2 in zip(leaves, leaves[1:]):
        t1, t2 = g.leaves[l1], g.leaves[l2]
        if position_from(x, t2, n) < position_from(x, t1, n):
            violations.append(("leaf.order", f"leaves {l1} (at {t1}) and {l2} (at {t2}) out of order"))

    for e in (tuple(sorted((wrap(x + 1), wrap(x + 2)))), tuple(sorted((wrap(x - 2), wrap(x - 1))))):
        if e not in g.edges:
            violations.append(("frozen.edges", f"frozen edge {e} missing"))

    return StructureReport(ok=not violations, violations=violations)


def test_structure_check_on_masks_equals_the_edge_scan():
    stars = [build_star_graph(fam, x) for n in (6, 7, 8) for fam in maximal_families(n)
             for x in fam.ground.points()]
    perturbed = [*_perturbed_star_graphs(400, seed=3), *_perturbed_star_graphs(400, seed=4)]
    chords = [star_graph_from_edges(1, ground, cs) for ground, cs in _random_chord_sets(2000, seed=5)]
    hand = [star_graph_from_edges(x, GroundSet(7), edges) for x, edges, _ in UNREALIZABLE_N7]
    hand += [star_graph_from_edges(1, G8, []), star_graph_from_edges(1, G8, [(2, 8), (2, 3), (7, 8), (5, 6)])]
    rules = set()
    for g in stars + perturbed + chords + hand:
        rep = verify_structure_theorem(g)
        assert rep == _edge_scan_report(g), (g.x, g.ground.n, sorted(g.edges))
        rules.update(rule for rule, _ in rep.violations)
    assert len(stars) == 8 * 2136 + 7 * 259 + 6 * 34
    assert rules == set(STRUCTURE_RULES)  # every rule fires somewhere


def test_mask_loops_on_masks_wider_than_a_machine_word_equal_the_edge_scans():
    # the structure check, the classification and the border walk read the
    # masks bit by bit; past n = 63 a mask is wider than a machine word. On
    # every star of walk families at n = 16, 64 and 128, and on perturbed
    # stars of walk families at n = 16..64, they give what the edge scans give
    stars = [build_star_graph(fam, x) for n in (16, 64, 128) for seed in (1, 2)
             for fam in [random_maximal_family(GroundSet(n), 4 * n, seed)] for x in fam.ground.points()]
    perturbed = list(_perturbed_star_graphs(400, seed=8, sizes=(16, 64), per_family=10))
    rules, laid_out = set(), 0
    for g in stars + perturbed:
        x, n = g.x, g.ground.n
        rep = verify_structure_theorem(g)
        assert rep == _edge_scan_report(g), (x, n, sorted(g.edges))
        rules.update(rule for rule, _ in rep.violations)
        assert _classified(g) == _scanned(g)
        tp = g.triangulation_points
        if tp and tp[0] == x % n + 1 and tp[-1] == (x - 2) % n + 1:
            assert _border_candidates(x, n, g.masks) == _scanned_border_triangles(g)
            laid_out += 1
        else:
            with pytest.raises(InternalConsistencyError, match=f"x={x}, n={n}: triangulation points must run"):
                _border_candidates(x, n, g.masks)
    assert len(stars) == 2 * (16 + 64 + 128)
    assert all(verify_structure_theorem(g).ok for g in stars)
    assert max(mask.bit_length() for g in perturbed for mask in g.masks.values()) > 64
    assert laid_out > len(stars) and rules == set(STRUCTURE_RULES), rules
