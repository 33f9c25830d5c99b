"""Mutations, exchange values, guided moves and the breadth-first oracle.

Claims covered:
    - the exchange value implements (zab*zcd + zad*zbc)/zac exactly
    - a move followed by its inverse restores the family and all values
    - leaf removal and degree-2 contraction keep unitarity at x and produce the
      two-term sums the border values dictate
    - the oracle returns stored values with zero expansions, is tie-break
      independent, and enforces its budget
    - values are exact: floats and bools are refused, and a zero pivot is a
      ZeroPivotError on every path that exchanges
    - valued families must contain every continuous triangle
    - move enumeration by neighbour-set intersection lists the same moves, in
      the same order, as a scan over every vertex of the star graph, and the
      walk that updates only the stars a move touches draws the same moves
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from sl3frieze.cyclic import GroundSet, is_cyclic
from sl3frieze.errors import (
    BudgetExceededError,
    FrozenLeafError,
    InvalidInputError,
    InvalidMoveError,
    PreconditionError,
    ZeroPivotError,
)
from sl3frieze.family import is_maximal_family, is_weakly_separated_family, make_family
from sl3frieze.fixtures import canonical_family
from sl3frieze.mutation import (
    MutationMove,
    ValuedFamily,
    _moves_of_triangles,
    contract_degree2,
    exchange_value,
    family_moves,
    format_trace_line,
    mutate,
    oracle_value,
    oracle_values,
    parse_trace_line,
    random_maximal_family,
    remove_leaf,
    seeded_walk,
    unit_specialization,
    unitary_value_at,
)
from sl3frieze.stargraph import build_star_graph, realize_star_graph, star_graph_from_edges

G8 = GroundSet(8)

# x=1, n=8: triangulation {2,5,8}, leaves 3->2, 4->5, 6->5, 7->8.
LEAFY_EDGES = [(2, 5), (5, 8), (2, 8), (2, 3), (4, 5), (5, 6), (7, 8)]


def leafy_family():
    return realize_star_graph(star_graph_from_edges(1, G8, LEAFY_EDGES))


def test_move_validation():
    with pytest.raises(InvalidInputError):
        MutationMove(1, 2, 2, 4, 6)
    with pytest.raises(InvalidInputError):
        MutationMove(1, 2, 6, 4, 8)  # (2,6,4,8) not cyclically ordered
    m = MutationMove(1, 2, 4, 6, 8)
    assert m.removed == (1, 2, 6)
    assert m.added == (1, 4, 8)
    assert m.inverse().removed == (1, 4, 8)
    assert m.inverse().added == (1, 2, 6)


def test_exchange_value_examples():
    assert exchange_value(1, 1, 1, 1, 1) == 2
    assert exchange_value(2, 1, 3, 1, 1) == 2
    assert exchange_value(1, 1, 1, 2, 1) == 3
    assert exchange_value(Fraction(2), 1, 1, 1, 1) == 1
    with pytest.raises(ZeroPivotError):
        exchange_value(0, 1, 1, 1, 1)


def test_float_values_are_refused():
    with pytest.raises(InvalidInputError):
        exchange_value(0.1, 1, 1, 1, 1)
    with pytest.raises(InvalidInputError):
        exchange_value(Fraction(1), Fraction(1), 0.5, Fraction(1), Fraction(1))
    fam = canonical_family(6)
    values = {t: Fraction(1) for t in fam.triangles}
    values[(1, 2, 4)] = 0.5
    with pytest.raises(InvalidInputError):
        ValuedFamily(fam, values)


def test_bool_values_are_refused():
    with pytest.raises(InvalidInputError):
        exchange_value(True, 1, 1, 1, 1)
    fam = canonical_family(6)
    values = {t: Fraction(1) for t in fam.triangles}
    values[(1, 2, 4)] = True
    with pytest.raises(InvalidInputError):
        ValuedFamily(fam, values)


def test_oracle_zero_pivot_is_zero_pivot_error():
    # with one value -1 an exchange reaches 1 + (-1) = 0, and a later one divides by it
    fam = canonical_family(6)
    values = {t: Fraction(1) for t in fam.triangles}
    values[(1, 2, 4)] = Fraction(-1)
    with pytest.raises(ZeroPivotError):
        oracle_values(ValuedFamily(fam, values), list(combinations(range(1, 7), 3)))


def test_mutate_all_ones_gives_two():
    vf = unit_specialization(canonical_family(6))
    for move in family_moves(vf.family):
        out = mutate(vf, move, validate=True)
        assert out.values[move.added] == 2
        assert is_maximal_family(out.family)


def test_mutate_involution_restores_values():
    vf = unit_specialization(canonical_family(8))
    for move in family_moves(vf.family)[:3]:
        there = mutate(vf, move, validate=True)
        back = mutate(there, move.inverse(), validate=True)
        assert back.family.triangles == vf.family.triangles
        assert back.values == vf.values


def test_mutate_rejects_missing_triangles():
    vf = unit_specialization(canonical_family(8))
    present = {m.key() for m in family_moves(vf.family)}
    bad = MutationMove(5, 1, 2, 3, 4)
    assert bad.key() not in present
    with pytest.raises(InvalidMoveError):
        mutate(vf, bad)


def test_valued_family_rejects_zero_and_partial_values():
    fam = canonical_family(6)
    values = {t: Fraction(1) for t in fam.triangles}
    some = next(iter(values))
    values[some] = Fraction(0)
    with pytest.raises(InvalidInputError):
        ValuedFamily(fam, values)
    values.pop(some)
    with pytest.raises(InvalidInputError):
        ValuedFamily(fam, values)


def test_valued_family_requires_continuous_triangles():
    # ten triangles, as many as a maximal family at n=6, without {1,2,3}
    tris = sorted(canonical_family(6).triangles - {(1, 2, 3)}) + [(1, 3, 5)]
    fam = make_family(GroundSet(6), tris, validate=False)
    with pytest.raises(InvalidInputError, match="^family must contain all continuous triangles$"):
        ValuedFamily(fam, {t: 1 for t in tris})


def test_remove_leaf_sums_border_values():
    vf = unit_specialization(leafy_family())
    # leaf 6 at 5, flanked by 4 and 8: borders are both 1
    out = remove_leaf(vf, 1, 5, 4, 6, 8)
    assert out.values[(4, 5, 8)] == 2
    assert unitary_value_at(out, 1) == 1
    assert is_maximal_family(out.family, thorough=True)
    # now leaf 4 at 5 flanked by 2 and 8: borders 1 and 2
    out2 = remove_leaf(out, 1, 5, 2, 4, 8)
    assert out2.values[(2, 5, 8)] == 3
    assert unitary_value_at(out2, 1) == 1


def test_remove_leaf_matches_oracle():
    vf = unit_specialization(leafy_family())
    expect = oracle_value(vf, (4, 5, 8))
    out = remove_leaf(vf, 1, 5, 4, 6, 8)
    assert out.values[(4, 5, 8)] == expect


def test_remove_leaf_refuses_frozen_leaves():
    vf = unit_specialization(leafy_family())
    with pytest.raises(FrozenLeafError):
        remove_leaf(vf, 1, 2, 8, 3, 5)  # 3 = x+2
    with pytest.raises(FrozenLeafError):
        remove_leaf(vf, 1, 8, 5, 7, 2)  # 7 = x-2


def test_remove_leaf_requires_unitarity():
    vf = unit_specialization(leafy_family())
    skew = dict(vf.values)
    skew[(1, 2, 5)] = Fraction(2)
    with pytest.raises(PreconditionError):
        remove_leaf(ValuedFamily(vf.family, skew), 1, 5, 4, 6, 8)


def test_remove_leaf_rejects_non_leaf():
    vf = unit_specialization(leafy_family())
    with pytest.raises(InvalidMoveError):
        remove_leaf(vf, 1, 5, 4, 8, 2)  # 8 is a triangulation point


def test_contract_degree2_sums_and_preserves_unitarity():
    vf = unit_specialization(leafy_family())
    # remove both leaves of 5 first so it has degree 2
    vf = remove_leaf(vf, 1, 5, 4, 6, 8)
    vf = remove_leaf(vf, 1, 5, 2, 4, 8)
    g = build_star_graph(vf.family, 1)
    assert g.degree(5) == 2
    # border values next to 5 now read v({2,3,5})=1 and v({2,5,8})=3
    left = contract_degree2(vf, 1, 5, "left")
    assert unitary_value_at(left, 1) == 1
    assert is_maximal_family(left.family, thorough=True)
    assert left.values[(2, 3, 8)] == 1 + 3
    right = contract_degree2(vf, 1, 5, "right")
    assert unitary_value_at(right, 1) == 1
    assert right.values[(2, 7, 8)] == 1 + 3  # v({5,7,8}) + v({2,5,8})


def test_contract_degree2_unit_borders_merge_to_two():
    # canonical n=6 at x=1: the fan leaves 3 = x+2 with degree 2; only the
    # right contraction is allowed there, and both border values are 1
    vf = unit_specialization(canonical_family(6))
    g = build_star_graph(vf.family, 1)
    assert g.degree(3) == 2
    with pytest.raises(InvalidMoveError):
        contract_degree2(vf, 1, 3, "left")
    out = contract_degree2(vf, 1, 3, "right")
    assert out.values[(2, 4, 5)] == 2
    assert is_maximal_family(out.family, thorough=True)


def test_contract_degree2_guards():
    vf = unit_specialization(leafy_family())
    with pytest.raises(InvalidMoveError):
        contract_degree2(vf, 1, 5, "left")  # degree 4, not 2
    with pytest.raises(InvalidMoveError):
        contract_degree2(vf, 1, 2, "left")  # x+1 is never contractible
    with pytest.raises(InvalidInputError):
        contract_degree2(vf, 1, 5, "sideways")


def test_contract_degree2_respects_frozen_sides():
    # x=1, n=8: triangulation {2,3,8} with 3 = x+2 of degree 2
    edges = [(2, 3), (3, 8), (2, 8), (4, 8), (5, 8), (6, 8), (7, 8)]
    fam = realize_star_graph(star_graph_from_edges(1, G8, edges))
    vf = unit_specialization(fam)
    with pytest.raises(InvalidMoveError):
        contract_degree2(vf, 1, 3, "left")
    out = contract_degree2(vf, 1, 3, "right")
    assert unitary_value_at(out, 1) == 1
    g = build_star_graph(out.family, 1)
    assert 3 in g.leaves and g.leaves[3] == 2


def test_oracle_returns_stored_value_without_search():
    vf = unit_specialization(canonical_family(8))
    t = vf.family.sorted_triangles()[4]
    assert oracle_value(vf, t, budget=0) == 1


def test_oracle_tie_break_independence(small_corpus):
    for fam in small_corpus[7][:3]:
        vf = unit_specialization(fam)
        g = fam.ground
        target = (g.wrap(6), g.wrap(1), g.wrap(3))
        lex = oracle_value(vf, target, tie_break="lex")
        rev = oracle_value(vf, target, tie_break="revlex")
        assert lex == rev


def test_oracle_budget_exhaustion():
    vf = unit_specialization(canonical_family(8))
    target = next(t for t in combinations(range(1, 9), 3) if t not in vf.family.triangles)
    with pytest.raises(BudgetExceededError):
        oracle_values(vf, [target], budget=0)


def test_oracle_rejects_bad_targets():
    vf = unit_specialization(canonical_family(8))
    with pytest.raises(InvalidInputError):
        oracle_values(vf, [(1, 1, 2)])
    with pytest.raises(InvalidInputError):
        oracle_values(vf, [(0, 1, 2)])


def test_trace_line_round_trip():
    m = MutationMove(1, 2, 4, 6, 8)
    line = format_trace_line(m, Fraction(7, 3))
    m2, v = parse_trace_line(line)
    assert m2 == m and v == Fraction(7, 3)
    with pytest.raises(InvalidInputError):
        parse_trace_line("garbage")
    with pytest.raises(InvalidInputError):
        parse_trace_line("1:(2,4,6,8) removed={1,2,4} added={1,4,8} value=2")


def _moment_minor(ts, triple):
    """3x3 minor of the matrix with columns (1, t_i, t_i^2), exact."""
    i, j, k = triple
    a, b, c = ts[i - 1], ts[j - 1], ts[k - 1]
    # Vandermonde: positive for increasing parameters
    return (b - a) * (c - a) * (c - b)


def test_exchange_propagation_reproduces_determinants():
    # seed a family with the true minors of an explicit rational matrix; every
    # mutation and every oracle answer must then agree with direct determinant
    # evaluation, which exercises the three-term relation and the sorted-triple
    # sign convention against an independent computation
    n = 8
    ts = [Fraction(i * i + 1, i + 1) for i in range(1, n + 1)]
    assert ts == sorted(ts)
    fam = canonical_family(n)
    vf = ValuedFamily(fam, {t: _moment_minor(ts, t) for t in fam.triangles})

    rng = random.Random(13)
    for _ in range(25):
        move = rng.choice(family_moves(vf.family))
        vf = mutate(vf, move, validate=True)
        assert vf.values[move.added] == _moment_minor(ts, move.added)

    probe = [(1, 4, 7), (2, 5, 8), (1, 3, 6), (3, 5, 8)]
    got = oracle_values(ValuedFamily(fam, {t: _moment_minor(ts, t) for t in fam.triangles}), probe)
    for t in probe:
        assert got[tuple(sorted(t))] == _moment_minor(ts, t)


def _reference_moves(triangles) -> list:
    """Move enumeration scanning every vertex of the star graph at z for the
    common neighbours of a chord {a,c}."""
    adjacency = {}
    for t in triangles:
        p, q, r = t
        adjacency.setdefault(p, {}).setdefault(q, set()).add(r)
        adjacency.setdefault(p, {}).setdefault(r, set()).add(q)
        adjacency.setdefault(q, {}).setdefault(p, set()).add(r)
        adjacency.setdefault(q, {}).setdefault(r, set()).add(p)
        adjacency.setdefault(r, {}).setdefault(p, set()).add(q)
        adjacency.setdefault(r, {}).setdefault(q, set()).add(p)
    moves = []
    for z in sorted(adjacency):
        star = adjacency[z]
        for a in sorted(star):
            for c in sorted(star[a]):
                if c < a:
                    continue
                shared = [p for p in star if p != a and p != c
                          and c in star.get(p, ()) and a in star.get(p, ())]
                inner = [b for b in shared if is_cyclic((a, b, c))]
                outer = [d for d in shared if is_cyclic((c, d, a))]
                for b in inner:
                    for d in outer:
                        moves.append((z, a, b, c, d))
    moves.sort()
    return moves


def test_moves_match_reference_on_walk_families():
    for n in range(6, 33):
        fam = canonical_family(n)
        assert _moves_of_triangles(fam.triangles) == _reference_moves(fam.triangles)
        for _, fam in seeded_walk(fam, 8, seed=n):
            assert _moves_of_triangles(fam.triangles) == _reference_moves(fam.triangles), n


def _reference_walk(fam, steps, seed):
    """The seeded walk drawing from the whole reference move list at every step."""
    rng = random.Random(seed)
    for _ in range(steps):
        move = MutationMove(*rng.choice(_reference_moves(fam.triangles)))
        fam = fam.with_exchange(move.removed, move.added)
        yield move, fam


def test_walk_matches_reference_walk():
    # the walk keeps its star index and per-point move lists across steps;
    # it must draw the same moves and reach the same families
    for n in range(6, 33):
        for seed in range(1, 6):
            fam = canonical_family(n)
            assert list(seeded_walk(fam, 20, seed)) == list(_reference_walk(fam, 20, seed)), (n, seed)


def test_random_walk_stays_maximal():
    fam = random_maximal_family(G8, steps=40, seed=11)
    ok, pair = is_weakly_separated_family(fam)
    assert ok, pair
    assert is_maximal_family(fam, thorough=True)


def test_walk_values_stay_positive_integers():
    # from the all-ones start, every exchanged value is a positive integer
    vf = unit_specialization(canonical_family(8))
    rng = random.Random(5)
    for _ in range(40):
        move = rng.choice(family_moves(vf.family))
        vf = mutate(vf, move)
        assert all(v > 0 and v.denominator == 1 for v in vf.values.values())
