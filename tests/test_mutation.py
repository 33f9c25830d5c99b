"""Mutations, exchange values and the breadth-first oracle.

Claims covered:
    - the exchange value implements (zab*zcd + zad*zbc)/zac exactly
    - a move followed by its inverse restores the family and all values, and
      every result stays maximal weakly separated
    - leaf removal and degree-2 contraction at x, the steps of the label
      contraction, are exchanges: they keep unitarity at x and produce the
      two-term sums the border values dictate
    - the oracle returns stored values with zero expansions, enforces its
      budget and refuses a negative one
    - values are exact: floats and bools are refused in every argument of an
      exchange, a zero pivot is a ZeroPivotError on every path that exchanges,
      and mutate refuses an exchange whose value is zero
    - five ints exchange to an int exactly when the division is exact, so the
      unit specialization walks and searches in plain ints, with the values
      the Fraction(1) specialization gives
    - a trace value loads as an int when it is integral and as a Fraction
      otherwise
    - valued families must contain every continuous triangle
    - move enumeration on neighbour bitmasks lists the same moves, in the same
      order, as a scan over every vertex of the star graph, up to n = 512; the
      walk's masks and per-point triangles, updated across a move, equal the
      ones built from scratch, and the walk that re-enumerates only the points
      a move touches draws the same moves
    - the oracle's values and budget messages are pinned on walk families at
      n = 8, so the order moves are enumerated in cannot drift
    - random_maximal_family gives the pinned family of each seed at n = 8, 10
      and 24, the one a step-by-step with_exchange walk reaches
    - a family with a point outside 1..n (past n, negative, 0, a bool, a
      float) never reaches family_moves or the walk: Family refuses it with
      the InvalidInputError the move kernel gave, naming the point
    - a triangle with two moves, which no weakly separated family has, is an
      InvalidInputError naming it
    - the oracle refuses a target that is not three distinct points of 1..n,
      and a trace line accepts only the digits 0-9
    - every value a walk adds, and every value of the family it ends at, is
      a Gale minor of the family it started from, at n up to 512, and
      mutate --replay accepts the walk's trace
"""

import hashlib
import random
import re
from fractions import Fraction
from itertools import combinations, count, permutations

import pytest
from hypothesis import given, settings, strategies as st

from sl3frieze import canonical_family
from sl3frieze.cli import main
from sl3frieze.cyclic import GroundSet, is_cyclic
from sl3frieze.errors import (
    BudgetExceededError,
    InternalConsistencyError,
    InvalidInputError,
    InvalidMoveError,
    ZeroPivotError,
)
from sl3frieze.family import (
    Family,
    addable_triangles,
    continuous_triangles,
    dump_family,
    is_maximal_family,
    is_weakly_separated_family,
    make_family,
)
from sl3frieze.frieze import minor_values
from sl3frieze.mutation import (
    MutationMove,
    ValuedFamily,
    _ascending,
    _flip,
    _moves_of_triangles,
    _walk_state,
    exchange_value,
    family_moves,
    format_trace_line,
    mutate,
    oracle_values,
    parse_trace_line,
    random_maximal_family,
    seeded_walk,
    unit_specialization,
)
from sl3frieze.stargraph import build_star_graph, realize_star_graph, star_graph_from_edges
import sl3frieze.mutation as mutation_module

G8 = GroundSet(8)

# x=1, n=8: triangulation {2,5,8}, leaves 3->2, 4->5, 6->5, 7->8.
LEAFY_EDGES = [(2, 5), (5, 8), (2, 8), (2, 3), (4, 5), (5, 6), (7, 8)]


def leafy_family():
    return realize_star_graph(star_graph_from_edges(1, G8, LEAFY_EDGES))


def walk_families(fam, steps, seed):
    """The family after each move of the seeded walk from fam."""
    for move in seeded_walk(fam, steps, seed):
        fam = fam.with_exchange(move.removed, move.added)
        yield fam


def checked_mutate(vf, move):
    """mutate, then assert that the result is maximal weakly separated and
    passes every check of a directly constructed ValuedFamily."""
    out = mutate(vf, move)
    assert ValuedFamily(out.family, out.values) == out, move
    assert is_weakly_separated_family(out.family) == (True, None), move
    assert is_maximal_family(out.family), move
    return out


def unitary_at(vf, x) -> bool:
    """Every triangle through x has value 1."""
    return all(v == 1 for t, v in vf.values.items() if x in t)


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
    with pytest.raises(ZeroPivotError):
        exchange_value(Fraction(0), 1, 1, 1, 1)


nonzero_ints = st.one_of(st.integers(-12, 12), st.integers(-10**30, 10**30)).filter(bool)


@settings(max_examples=400, deadline=None)
@given(st.tuples(nonzero_ints, nonzero_ints, nonzero_ints, nonzero_ints, nonzero_ints))
def test_exchange_value_is_an_int_exactly_when_the_division_is_exact(args):
    v_zac, v_zab, v_zcd, v_zad, v_zbc = args
    expected = Fraction(v_zab * v_zcd + v_zad * v_zbc, v_zac)
    got = exchange_value(*args)
    assert got == expected
    assert type(got) is (int if expected.denominator == 1 else Fraction)
    # a Fraction argument keeps the Fraction path
    got = exchange_value(Fraction(v_zac), v_zab, v_zcd, v_zad, v_zbc)
    assert got == expected and type(got) is Fraction


def test_float_values_are_refused():
    for i in range(5):
        args = [1] * 5
        args[i] = 1.0
        with pytest.raises(InvalidInputError):
            exchange_value(*args)
    with pytest.raises(InvalidInputError):
        exchange_value(Fraction(1), Fraction(1), 0.5, Fraction(1), Fraction(1))
    fam = canonical_family(6)
    values = {t: Fraction(1) for t in fam.triangles}
    values[(1, 2, 4)] = 0.5
    with pytest.raises(InvalidInputError):
        ValuedFamily(fam, values)


def test_bool_values_are_refused():
    # in each of the five positions, among ints, which would otherwise take
    # the int path
    for i in range(5):
        args = [1] * 5
        args[i] = True
        with pytest.raises(InvalidInputError, match="^exchange entry True is not an int or a Fraction$"):
            exchange_value(*args)
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
        out = checked_mutate(vf, move)
        assert out.values[move.added] == 2


def test_mutate_involution_restores_values():
    vf = unit_specialization(canonical_family(8))
    for move in family_moves(vf.family)[:3]:
        there = checked_mutate(vf, move)
        back = checked_mutate(there, move.inverse())
        assert back.family.triangles == vf.family.triangles
        assert back.values == vf.values


def test_mutate_refuses_an_exchange_to_zero():
    # signed values: v_zab v_zcd + v_zad v_zbc = 1 + (-1) = 0
    fam = canonical_family(6)
    move = family_moves(fam)[0]
    z, a, b, c, d = move.key()
    values = {t: Fraction(1) for t in fam.triangles}
    values[tuple(sorted((z, a, d)))] = Fraction(-1)
    with pytest.raises(InvalidInputError, match=f"^value of {re.escape(str(move.added))} must be nonzero$"):
        mutate(ValuedFamily(fam, values), move)


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
    fam = Family(GroundSet(6), frozenset(tris))
    with pytest.raises(InvalidInputError, match="^family must contain all continuous triangles$"):
        ValuedFamily(fam, {t: 1 for t in tris})


# Leaf removal at x: the leaf q2 of the triangulation point p, flanked by q1
# and q3, leaves with the move (p, x, q1, q2, q3), which trades {x,p,q2} for
# {p,q1,q3}. Degree-2 contraction of p, between the triangulation points prev
# and next, is the move (prev, x, q1, p, next) on the left or
# (next, p, q2, x, prev) on the right, with q1 and q2 the flank points beyond
# prev and next.

def test_remove_leaf_sums_border_values():
    vf = unit_specialization(leafy_family())
    # leaf 6 at 5, flanked by 4 and 8: borders are both 1
    out = checked_mutate(vf, MutationMove(5, 1, 4, 6, 8))
    assert out.values[(4, 5, 8)] == 2
    assert unitary_at(out, 1)
    assert not addable_triangles(out.family)
    # now leaf 4 at 5 flanked by 2 and 8: borders 1 and 2
    out2 = checked_mutate(out, MutationMove(5, 1, 2, 4, 8))
    assert out2.values[(2, 5, 8)] == 3
    assert unitary_at(out2, 1)


def test_remove_leaf_matches_oracle():
    vf = unit_specialization(leafy_family())
    expect = oracle_values(vf, [(4, 5, 8)])[(4, 5, 8)]
    out = mutate(vf, MutationMove(5, 1, 4, 6, 8))
    assert out.values[(4, 5, 8)] == expect


def test_remove_leaf_refuses_frozen_leaves():
    # the leaves x+2 and x-2 stand for the frozen triangles {x,x+1,x+2} and
    # {x-2,x-1,x}, which no move removes, here or after any walk step
    frozen = set(continuous_triangles(8))
    start = leafy_family()
    for fam in [start, *walk_families(start, 30, seed=8)]:
        moves = family_moves(fam)
        assert moves and not any(m.removed in frozen for m in moves)


def test_contract_degree2_sums_and_preserves_unitarity():
    vf = unit_specialization(leafy_family())
    # remove both leaves of 5 first so it has degree 2
    vf = mutate(vf, MutationMove(5, 1, 4, 6, 8))
    vf = mutate(vf, MutationMove(5, 1, 2, 4, 8))
    g = build_star_graph(vf.family, 1)
    assert g.masks[5].bit_count() == 2
    # border values next to 5 now read v({2,3,5})=1 and v({2,5,8})=3
    left = checked_mutate(vf, MutationMove(2, 1, 3, 5, 8))
    assert unitary_at(left, 1)
    assert not addable_triangles(left.family)
    assert left.values[(2, 3, 8)] == 1 + 3
    right = checked_mutate(vf, MutationMove(8, 5, 7, 1, 2))
    assert unitary_at(right, 1)
    assert right.values[(2, 7, 8)] == 1 + 3  # v({5,7,8}) + v({2,5,8})


def test_contract_degree2_unit_borders_merge_to_two():
    # canonical n=6 at x=1: the fan leaves 3 = x+2 with degree 2, and both
    # border values of its right contraction are 1
    vf = unit_specialization(canonical_family(6))
    g = build_star_graph(vf.family, 1)
    assert g.masks[3].bit_count() == 2
    out = checked_mutate(vf, MutationMove(4, 3, 5, 1, 2))
    assert out.values[(2, 4, 5)] == 2
    assert not addable_triangles(out.family)


def test_contract_degree2_respects_frozen_sides():
    # x=1, n=8: triangulation {2,3,8} with 3 = x+2 of degree 2; the right
    # contraction keeps the frozen triangle {1,2,3} and leaves 3 a leaf of 2
    edges = [(2, 3), (3, 8), (2, 8), (4, 8), (5, 8), (6, 8), (7, 8)]
    fam = realize_star_graph(star_graph_from_edges(1, G8, edges))
    vf = unit_specialization(fam)
    out = checked_mutate(vf, MutationMove(8, 3, 4, 1, 2))
    assert unitary_at(out, 1)
    assert (1, 2, 3) in out.family
    g = build_star_graph(out.family, 1)
    assert 3 in g.leaves and g.leaves[3] == 2


def test_oracle_returns_stored_value_without_search():
    vf = unit_specialization(canonical_family(8))
    t = vf.family.sorted_triangles()[4]
    assert oracle_values(vf, [t], budget=0)[t] == 1


def test_oracle_tie_break_independence(small_corpus):
    # relabeling by a rotation or a reflection of [n] changes the order in
    # which the search tries moves, but not the value it finds
    for fam in small_corpus[7][:3]:
        g = fam.ground
        # targets in any order, as tuples or lists, are answered ascending
        target = (g.wrap(6), g.wrap(1), g.wrap(3))
        value = oracle_values(unit_specialization(fam), [target])[tuple(sorted(target))]
        for relabel in (lambda p: g.wrap(p + 3), lambda p: g.n + 1 - p):
            image = make_family(g, [[relabel(p) for p in t] for t in fam.triangles])
            moved = [relabel(p) for p in target]
            assert oracle_values(unit_specialization(image), [moved])[tuple(sorted(moved))] == value


def test_oracle_budget_exhaustion():
    vf = unit_specialization(canonical_family(8))
    target = next(t for t in combinations(range(1, 9), 3) if t not in vf.family.triangles)
    with pytest.raises(BudgetExceededError):
        oracle_values(vf, [target], budget=0)


# The grid row k = 1 of n = 8, the triangles {i, i+1, i+3}; per walk seed,
# the messages at budgets 0, 1, 5 and 50 (missing targets and expanded count
# both follow the order the moves are enumerated in) and the values found at
# the default budget, under the unit values and under the signed Fraction
# values (-1)^j (j+1)/(j+2) of the j-th sorted triangle.
ORACLE_ROW = [(1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (5, 6, 8), (1, 6, 7), (2, 7, 8), (1, 3, 8)]
ORACLE_PINS = {
    0: ({0: [(1, 3, 8), (2, 3, 5), (2, 7, 8), (3, 4, 6), (4, 5, 7), (5, 6, 8)],
         1: [(1, 3, 8), (2, 7, 8), (3, 4, 6), (5, 6, 8)],
         5: [(1, 3, 8), (2, 7, 8), (3, 4, 6), (5, 6, 8)],
         50: [(2, 7, 8)]},
        [1, 2, 5, 2, 4, 1, 5, 5],
        ["-2/3", "-141/416", "229931/90720", "197/6615", "-3202585/1723392", "9/10", "-455045/445536",
         "-505/199584"]),
    1: ({0: [(1, 2, 4), (2, 3, 5), (2, 7, 8), (3, 4, 6), (4, 5, 7), (5, 6, 8)],
         1: [(2, 3, 5), (2, 7, 8), (4, 5, 7), (5, 6, 8)],
         5: [(2, 3, 5), (2, 7, 8), (5, 6, 8)],
         50: [(2, 3, 5), (2, 7, 8)]},
        [2, 5, 2, 3, 3, 1, 12, 1],
        ["5/64", "-64843/14976", "3249/1820", "16946/18711", "191661/213248", "-8/9", "-1185895/6432426",
         "-4/5"]),
    2: ({0: [(1, 2, 4), (1, 3, 8), (1, 6, 7), (2, 7, 8), (3, 4, 6), (5, 6, 8)],
         1: [(1, 3, 8), (2, 7, 8), (3, 4, 6), (5, 6, 8)],
         5: [(1, 3, 8), (2, 7, 8), (3, 4, 6)],
         50: [(3, 4, 6)]},
        [2, 1, 13, 1, 3, 2, 4, 3],
        ["410/2673", "9/10", "-12431878657/4188834000", "13/14", "7881/8450", "-6532/3825", "2467/1408",
         "-28123/28000"]),
}


@pytest.mark.parametrize("seed", sorted(ORACLE_PINS))
def test_oracle_pins_values_and_budget_messages(seed):
    missing, unit_values, signed_values = ORACLE_PINS[seed]
    fam = random_maximal_family(G8, 20, seed)
    signed = ValuedFamily(fam, {t: Fraction((-1) ** j * (j + 1), j + 2)
                                for j, t in enumerate(fam.sorted_triangles())})
    for vf, values in ((unit_specialization(fam), unit_values), (signed, [Fraction(v) for v in signed_values])):
        for budget, targets in missing.items():
            with pytest.raises(BudgetExceededError) as e:
                oracle_values(vf, ORACLE_ROW, budget)
            assert str(e.value) == f"targets not reached: {targets} (budget={budget}, expanded={budget})"
        found = oracle_values(vf, ORACLE_ROW)
        assert [found[t] for t in ORACLE_ROW] == values
        assert all(type(found[t]) is type(v) for t, v in zip(ORACLE_ROW, values))


def test_oracle_rejects_negative_budget():
    # refused before any lookup, even for a target the family holds
    vf = unit_specialization(canonical_family(8))
    with pytest.raises(InvalidInputError, match="^oracle budget must be >= 0, got -1$"):
        oracle_values(vf, [(1, 2, 3)], budget=-1)


@pytest.mark.parametrize("rigged, message", [
    ((2, 4, 6), "path-dependent value for (2, 4, 6): 100 vs 101"),
    ((1, 3, 5), "path-dependent family values after move (1, 3, 4, 5, 2)"),
])
def test_oracle_names_path_dependence(monkeypatch, rigged, message):
    # a rigged exchange gives one triangle a new value, 100, 101, ..., each
    # time a move adds it: the search must name the first disagreement, on a
    # target's value or on a family reached twice, whichever it meets first
    counter = count(100)
    exchange = mutation_module._exchange

    def rigged_exchange(values, m):
        child = exchange(values, m)
        z, _, b, _, d = m
        if tuple(sorted((z, b, d))) == rigged:
            child[rigged] = next(counter)
        return child

    monkeypatch.setattr(mutation_module, "_exchange", rigged_exchange)
    with pytest.raises(InternalConsistencyError, match=f"^{re.escape(message)}$"):
        oracle_values(unit_specialization(canonical_family(7)), combinations(range(1, 8), 3))


def test_oracle_rejects_bad_targets():
    vf = unit_specialization(canonical_family(8))
    with pytest.raises(InvalidInputError):
        oracle_values(vf, [(1, 1, 2)])
    with pytest.raises(InvalidInputError):
        oracle_values(vf, [(0, 1, 2)])
    # checked before they are sorted, so neither is a bare TypeError
    for bad in (5, (1, "a", 3)):
        with pytest.raises(InvalidInputError, match=f"^bad target triangle {re.escape(repr(bad))}$"):
            oracle_values(vf, [bad])


def test_trace_line_round_trip():
    m = MutationMove(1, 2, 4, 6, 8)
    line = format_trace_line(m, Fraction(7, 3))
    m2, v = parse_trace_line(line)
    assert m2 == m and v == Fraction(7, 3) and type(v) is Fraction
    m2, v = parse_trace_line(format_trace_line(m, 5))
    assert m2 == m and v == 5 and type(v) is int
    _, v = parse_trace_line("1:(2,4,6,8) removed={1,2,6} added={1,4,8} value=-10/2")
    assert v == -5 and type(v) is int
    with pytest.raises(InvalidInputError):
        parse_trace_line("garbage")
    with pytest.raises(InvalidInputError):
        parse_trace_line("1:(2,4,6,8) removed={1,2,4} added={1,4,8} value=2")
    with pytest.raises(InvalidInputError, match="zero denominator"):
        parse_trace_line("1:(2,4,6,8) removed={1,2,6} added={1,4,8} value=1/0")
    # only 0-9 are digits: an Arabic-Indic two and three are not 2 and 3
    with pytest.raises(InvalidInputError, match="^malformed trace line"):
        parse_trace_line("1:(\u0662,3,4,5) removed={1,2,4} added={1,3,5} value=\u0663")
    # past Python's 4,300-digit int string-conversion limit
    with pytest.raises(InvalidInputError, match="bad number"):
        parse_trace_line("1:(2,4,6,8) removed={1,2,6} added={1,4,8} value=" + "1" * 5000)


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
        vf = checked_mutate(vf, move)
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
        assert _moves_of_triangles(fam.triangles, n) == _reference_moves(fam.triangles)
        for fam in walk_families(fam, 8, seed=n):
            assert _moves_of_triangles(fam.triangles, n) == _reference_moves(fam.triangles), n


def test_moves_match_reference_at_scale():
    for n in (128, 512):
        ground = GroundSet(n)
        for fam in (canonical_family(n), random_maximal_family(ground, 200, seed=n)):
            assert _moves_of_triangles(fam.triangles, n) == _reference_moves(fam.triangles), n


def test_walk_state_follows_every_move():
    # the masks and the pivoted triangles per point that the walk keeps, after
    # a move and after its inverse, equal the ones built from scratch
    for fam in (canonical_family(9), random_maximal_family(GroundSet(9), 30, seed=4)):
        n = fam.ground.n
        state = _walk_state(fam.triangles, n)
        for move in family_moves(fam):
            nb, around = state
            _flip(nb, around, move.removed)
            _flip(nb, around, move.added)
            assert state == _walk_state(fam.triangles - {move.removed} | {move.added}, n), move
            _flip(nb, around, move.added)
            _flip(nb, around, move.removed)
            assert state == _walk_state(fam.triangles, n), move


def test_ascending_sorts_every_order():
    for t in ((1, 2, 3), (2, 5, 9), (3, 7, 8)):
        for p in permutations(t):
            assert _ascending(*p) == t


def _reference_walk(fam, steps, seed):
    """The seeded walk drawing from the whole reference move list at every step."""
    rng = random.Random(seed)
    for _ in range(steps):
        move = MutationMove(*rng.choice(_reference_moves(fam.triangles)))
        fam = fam.with_exchange(move.removed, move.added)
        yield move


def test_walk_matches_reference_walk():
    # the walk keeps its star index and per-point move lists across steps;
    # it must draw the same moves, so that from the same start it reaches
    # the same families
    for n in range(6, 33):
        for seed in range(1, 6):
            fam = canonical_family(n)
            assert list(seeded_walk(fam, 20, seed)) == list(_reference_walk(fam, 20, seed)), (n, seed)


def test_random_maximal_family_refuses_a_ground_that_is_not_a_ground_set():
    for ground in (None, 8):
        with pytest.raises(InvalidInputError, match=f"^ground must be a GroundSet, got {ground!r}$"):
            random_maximal_family(ground, 3, 1)
    with pytest.raises(InvalidInputError, match="^steps must be >= 0$"):  # steps are checked first
        random_maximal_family(None, -1, 1)


# sha256 of dump_family(random_maximal_family(GroundSet(n), 3n, seed)), first
# 16 hex digits, as the walk gave them when each step built a new Family
WALK_FAMILY_DIGESTS = {
    (8, 0): "a2dd5dcc09aa6755", (8, 1): "b6c1e945f1e24c17", (8, 7): "97aa426732cedf2d",
    (8, 2024): "a369cd9ab374ac4e", (10, 0): "b26bcb968cdb0ca5", (10, 1): "6e25c44c6a913133",
    (10, 7): "a3596653a5f750cc", (10, 2024): "6e2e935a2d707ce7", (24, 0): "977cf959b754aebd",
    (24, 1): "8f524e9a5ec30b40", (24, 7): "424b157941137dde", (24, 2024): "e6ef95b3c6fa157f",
}


def test_random_maximal_family_is_pinned_per_seed():
    for (n, seed), digest in WALK_FAMILY_DIGESTS.items():
        fam = random_maximal_family(GroundSet(n), 3 * n, seed)
        assert fam.validated and len(fam) == 3 * n - 8
        assert hashlib.sha256(dump_family(fam).encode()).hexdigest()[:16] == digest, (n, seed)
    assert random_maximal_family(G8, 40, 3).sorted_triangles() == [
        (1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 2, 8), (1, 4, 5), (1, 5, 6), (1, 5, 8), (1, 6, 7), (1, 6, 8),
        (1, 7, 8), (2, 3, 4), (2, 4, 5), (3, 4, 5), (4, 5, 6), (5, 6, 7), (6, 7, 8)]
    # the same family as exchanging move by move, each step a checked
    # Family (which with_exchange leaves unvalidated, a mark equality ignores)
    for n, seed in ((8, 5), (10, 6), (24, 7)):
        fam = canonical_family(n)
        for move in seeded_walk(fam, 3 * n, seed):
            fam = fam.with_exchange(move.removed, move.added)
        assert random_maximal_family(GroundSet(n), 3 * n, seed) == fam


@pytest.mark.parametrize("bad, point", [((1, 2, 9), "9"), ((-1, 2, 3), "-1"), ((0, 2, 3), "0"),
                                        ((False, 2, 3), "False"), ((1, 2, 3.5), "3.5"),
                                        ((1, 2, True), "True")])
def test_moves_of_a_family_with_a_point_outside_the_ground_set_are_refused(bad, point):
    # the family never reaches family_moves or the walk: Family refuses it,
    # naming the point as the move kernel did, and so does with_exchange
    message = f"^triangle point {point} outside 1..8$"
    with pytest.raises(InvalidInputError, match=message):
        Family(G8, canonical_family(8).triangles | {bad})
    with pytest.raises(InvalidInputError, match=message):
        canonical_family(8).with_exchange((1, 2, 4), bad)


def test_a_triangle_with_two_moves_is_refused():
    # {1,2,5} has two b's, 3 and 4, so {1,2,4} and {1,3,5} are both in the
    # family, and they cross; the move kernel names {1,2,5}
    fam = Family(GroundSet(6), frozenset({(1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 2, 6),
                                          (1, 3, 5), (1, 4, 5), (1, 5, 6)}))
    assert not is_weakly_separated_family(fam)[0]
    message = r"^triangle \(1, 2, 5\) has more than one move: the family is not weakly separated$"
    with pytest.raises(InvalidInputError, match=message):
        family_moves(fam)
    with pytest.raises(InvalidInputError, match=message):
        next(seeded_walk(fam, 1, 1))


def test_random_walk_stays_maximal():
    fam = random_maximal_family(G8, steps=40, seed=11)
    ok, pair = is_weakly_separated_family(fam)
    assert ok, pair
    assert is_maximal_family(fam) and not addable_triangles(fam)


def test_walk_values_stay_positive_integers():
    # from the all-ones start, every exchanged value is a positive integer
    vf = unit_specialization(canonical_family(8))
    rng = random.Random(5)
    for _ in range(40):
        move = rng.choice(family_moves(vf.family))
        vf = mutate(vf, move)
        assert all(v > 0 and v.denominator == 1 for v in vf.values.values())


def fraction_specialization(fam):
    """All triangle values set to Fraction(1): the unit specialization in the
    Fraction path of exchange_value."""
    return ValuedFamily(fam, {t: Fraction(1) for t in fam.triangles})


def test_unit_walk_values_are_ints_equal_to_the_fraction_walk():
    for n in range(6, 13):
        fam = canonical_family(n)
        ints, fracs = unit_specialization(fam), fraction_specialization(fam)
        for move in seeded_walk(fam, 40, seed=n):
            ints, fracs = mutate(ints, move), mutate(fracs, move)
            assert all(type(v) is int for v in ints.values.values()), (n, move)
            assert all(type(v) is Fraction for v in fracs.values.values()), (n, move)
            assert ints.values == fracs.values, (n, move)


def test_oracle_values_agree_on_int_and_fraction_specializations(small_corpus):
    for fam in small_corpus[7][:3]:
        targets = list(combinations(range(1, 8), 3))
        ints = oracle_values(unit_specialization(fam), targets)
        fracs = oracle_values(fraction_specialization(fam), targets)
        assert ints == fracs
        assert all(type(v) is int for v in ints.values())


@pytest.mark.parametrize("n, steps", [(8, 0), (16, 0), (64, 0), (512, 0), (32, 100)])
def test_every_walk_value_is_a_minor_of_the_start_family(tmp_path, n, steps):
    # a move changes the cluster, not the point of Gr(3, n): from the unit
    # specialization of F_0 (the canonical family, or a walk family), a
    # 300-step walk reaches only values det(v_a, v_b, v_c) of F_0's Gale
    # vectors. mutate --replay re-runs the exchanges from a trace of the
    # walk, so it must accept it and end at the same family
    start = random_maximal_family(GroundSet(n), steps, 1)
    vf = first = unit_specialization(start)
    added, lines = [], []
    for move in seeded_walk(start, 300, 5):
        vf = mutate(vf, move)
        added.append((move.added, vf.values[move.added]))
        lines.append(format_trace_line(move, vf.values[move.added]) + "\n")
    minors = minor_values(first, [t for t, _ in added] + list(vf.values))
    assert len(added) == 300 and added == [(t, minors[t]) for t, _ in added]
    assert vf.values == {t: minors[t] for t in vf.values}
    family, trace, out = tmp_path / "family.json", tmp_path / "trace.txt", tmp_path / "out.json"
    family.write_text(dump_family(start))
    trace.write_text("".join(lines))
    assert main(["mutate", str(family), "--replay", str(trace), "--out", str(out)]) == 0
    assert out.read_text() == dump_family(vf.family)
