"""Families: frozen triangles, validation, maximality, greedy completion, JSON.

Claims covered:
    - the n continuous triangles are pairwise weakly separated and lie in every
      maximal family
    - maximal families have exactly 3n-8 triangles and admit no addition
    - greedy completion is deterministic, a fixpoint on maximal input, and
      the same as filtering the candidates by a mask test per addition
    - the closed-form canonical family equals the greedy completion of the
      frozen triangles
    - the weak-separation check reports the same first crossing pair as a lex
      scan of the pairs with the definitional crossing search (random sets,
      n = 6..14) and with the min/max mask test (walk families,
      n = 128..512), both from tests/reference.py
    - the addable triangles are those that cross no member, by the
      definitional search
    - the family file is json.dumps(payload, indent=2) + "\n" byte for byte
      (random sets, no triangle, one triangle, n = 512), and the format
      round-trips and rejects unknown keys / unsorted triples;
      a malformed file raises MalformedFileError whether or not the load
      checks weak separation
    - every bad triangle entry keeps its message (not a list, a wrong
      length, a bool, a float, 0 or n + 1, unsorted, a repeated point, a
      duplicate triangle), and of two bad entries the same one is named
    - Family itself, and with_exchange for the triangle it adds, refuses a
      triangle that is not an ascending triple of points of 1..n, naming the
      point or the triangle, and accepts the int subclasses the reader does
    - with_exchange leaves its result unvalidated, so an exchange that makes
      two triangles cross is named by the separation check; mutate keeps the
      mark, since a move keeps weak separation
    - equality and the hash ignore the validated mark, which the repr shows
"""

import json
import random
import re
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import mask_pair_scan
from reference import crossing_definition, masks_cross, triangle_mask
from sl3frieze.cyclic import GroundSet
from sl3frieze.errors import InvalidInputError, MalformedFileError
from sl3frieze.family import (
    Family,
    addable_triangles,
    canonical_family,
    dump_family,
    family_from_dict,
    frozen_triangles,
    greedy_complete,
    is_maximal_family,
    is_weakly_separated_family,
    load_family,
    make_family,
    make_triangle,
    maximal_size,
)
from sl3frieze.mutation import family_moves, mutate, random_maximal_family, unit_specialization

G6 = GroundSet(6)
G8 = GroundSet(8)
G8_CANONICAL = canonical_family(8)


def test_make_triangle_sorts_and_validates():
    assert make_triangle(5, 1, 3, G6) == (1, 3, 5)
    with pytest.raises(InvalidInputError):
        make_triangle(1, 1, 3, G6)
    with pytest.raises(InvalidInputError):
        make_triangle(0, 1, 3, G6)
    with pytest.raises(InvalidInputError):
        make_triangle(1, 3, 7, G6)


def test_frozen_triangles_n6():
    fam = frozen_triangles(G6)
    assert fam.sorted_triangles() == [
        (1, 2, 3), (1, 2, 6), (1, 5, 6), (2, 3, 4), (3, 4, 5), (4, 5, 6)]


def test_frozen_triangles_n8_count():
    assert len(frozen_triangles(G8)) == 8


def test_frozen_triangles_pairwise_weakly_separated():
    for n in (6, 8, 10):
        ok, pair = is_weakly_separated_family(frozen_triangles(GroundSet(n)))
        assert ok, pair


def test_weak_separation_reports_first_offending_pair():
    fam = Family(G6, frozen_triangles(G6).triangles | {(1, 3, 5), (2, 4, 6)})
    ok, pair = is_weakly_separated_family(fam)
    assert not ok
    assert pair == ((1, 3, 5), (2, 4, 6))


def test_empty_family_is_weakly_separated():
    ok, pair = is_weakly_separated_family(Family(G6, frozenset(), validated=False))
    assert ok and pair is None


def test_maximal_family_size_n6():
    fam = greedy_complete(frozen_triangles(G6))
    assert len(fam) == 10 == maximal_size(G6)
    assert is_maximal_family(fam)
    assert not addable_triangles(fam)


def test_frozen_alone_not_maximal():
    assert not is_maximal_family(frozen_triangles(G6))


def test_greedy_complete_n8():
    fam = greedy_complete(frozen_triangles(G8))
    assert len(fam) == 16
    assert is_maximal_family(fam) and not addable_triangles(fam)
    ok, _ = is_weakly_separated_family(fam)
    assert ok


def test_greedy_complete_fixpoint():
    fam = greedy_complete(frozen_triangles(G6))
    assert greedy_complete(fam).triangles == fam.triangles


def test_maximality_admits_no_addition_up_to_n10():
    for n in range(6, 11):
        g = GroundSet(n)
        fam = greedy_complete(frozen_triangles(g))
        assert len(fam) == maximal_size(g)
        assert is_maximal_family(fam) and not addable_triangles(fam)
        walked = random_maximal_family(g, steps=15, seed=n)
        assert is_maximal_family(walked) and not addable_triangles(walked)


def test_canonical_family_is_the_greedy_completion():
    for n in range(6, 25):
        fam = canonical_family(n)
        assert fam.validated and fam.ground == GroundSet(n)
        assert fam.triangles == greedy_complete(frozen_triangles(GroundSet(n))).triangles, n


def _reference_greedy_complete(fam):
    """The completion by filtering: take the lex-smallest candidate, then drop
    every candidate that crosses it, by a mask test per candidate."""
    current = set(fam.triangles)
    candidates = [(t, triangle_mask(t)) for t in addable_triangles(fam)]
    while candidates:
        chosen, chosen_mask = candidates[0]
        current.add(chosen)
        candidates = [(t, m) for t, m in candidates[1:] if not masks_cross(m, chosen_mask)]
    return current


def test_greedy_complete_matches_filter_reference():
    rng = random.Random(5)
    for n in range(6, 15):
        walked = random_maximal_family(GroundSet(n), steps=20, seed=n).sorted_triangles()
        for keep in (0.0, 0.3, 0.7):
            fam = make_family(GroundSet(n), [t for t in walked if rng.random() < keep])
            assert greedy_complete(fam).triangles == _reference_greedy_complete(fam), (n, keep)


def test_canonical_family_rejects_small_n():
    with pytest.raises(InvalidInputError):
        canonical_family(5)


def _definitional_scan(fam):
    """(ok, first crossing pair) with every pair of the sorted triangle list
    tested by crossing_definition, in lex order."""
    ts = fam.sorted_triangles()
    return next(((False, (A, B)) for A, B in combinations(ts, 2) if crossing_definition(A, B)),
                (True, None))


@st.composite
def triangle_sets(draw):
    """A family over n = 6..14, unvalidated: either any triangles, which mostly
    cross, or part of a maximal walk family plus up to two triangles."""
    n = draw(st.integers(6, 14))
    tris = list(combinations(range(1, n + 1), 3))
    if draw(st.booleans()):
        walk = random_maximal_family(GroundSet(n), steps=draw(st.integers(0, 20)),
                                     seed=draw(st.integers(0, 99)))
        kept = draw(st.sets(st.sampled_from(walk.sorted_triangles())))
        picked = kept | draw(st.sets(st.sampled_from(tris), max_size=2))
    else:
        picked = draw(st.sets(st.sampled_from(tris), max_size=3 * n))
    return Family(GroundSet(n), frozenset(picked))


@settings(max_examples=300, deadline=None)
@given(triangle_sets())
def test_first_bad_pair_matches_definitional_scan(fam):
    assert is_weakly_separated_family(fam) == _definitional_scan(fam)


@settings(max_examples=100, deadline=None)
@given(triangle_sets())
def test_addable_triangles_match_the_definitional_filter(fam):
    expected = [t for t in combinations(fam.ground.points(), 3)
                if t not in fam.triangles
                and not any(crossing_definition(t, s) for s in fam.triangles)]
    assert addable_triangles(fam) == expected


@pytest.mark.parametrize("n", [128, 256, 512])
def test_crossing_index_matches_the_mask_pair_scan_at_scale(n):
    walk = random_maximal_family(GroundSet(n), steps=200, seed=n)
    unchecked = Family(walk.ground, walk.triangles)
    assert is_weakly_separated_family(unchecked) == mask_pair_scan(unchecked) == (True, None)
    rng = random.Random(n)
    ts = walk.sorted_triangles()
    outside = [t for t in (tuple(sorted(rng.sample(range(1, n + 1), 3))) for _ in range(5))
               if t not in walk.triangles]
    for added in outside:
        swapped = Family(walk.ground, walk.triangles - {ts[rng.randrange(len(ts))]} | {added})
        ok, pair = is_weakly_separated_family(swapped)
        assert not ok
        assert (ok, pair) == mask_pair_scan(swapped)


def test_greedy_complete_rejects_crossing_input():
    bad = Family(G6, frozenset({(1, 3, 5), (2, 4, 6)}))
    with pytest.raises(InvalidInputError):
        greedy_complete(bad)


def test_is_maximal_rejects_crossing_input():
    bad = Family(G6, frozenset({(1, 3, 5), (2, 4, 6)}))
    with pytest.raises(InvalidInputError):
        is_maximal_family(bad)


def test_random_maximal_family_contract(small_corpus):
    for n, fams in small_corpus.items():
        g = GroundSet(n)
        frozen = frozen_triangles(g).triangles
        for fam in fams:
            assert len(fam) == maximal_size(g)
            ok, pair = is_weakly_separated_family(fam)
            assert ok, pair
            assert frozen <= fam.triangles
        # no addable triangle on a sample
        assert addable_triangles(fams[0]) == []


def test_random_maximal_family_determinism():
    a = random_maximal_family(G8, steps=12, seed=7)
    b = random_maximal_family(G8, steps=12, seed=7)
    assert a.triangles == b.triangles
    zero = random_maximal_family(G8, steps=0, seed=3)
    assert zero.triangles == greedy_complete(frozen_triangles(G8)).triangles


def test_family_json_round_trip():
    fam = greedy_complete(frozen_triangles(G8))
    again = load_family(dump_family(fam))
    assert again.ground == fam.ground
    assert again.triangles == fam.triangles


@settings(max_examples=100, deadline=None)
@given(triangle_sets())
@example(Family(G6, frozenset()))
@example(Family(GroundSet(7), frozenset({(2, 4, 7)})))
@example(canonical_family(512))
def test_dump_family_is_the_standard_library_encoding(fam):
    data = {"schema_version": 1, "n": fam.ground.n, "triangles": [list(t) for t in sorted(fam.triangles)]}
    text = dump_family(fam)
    assert text == json.dumps(data, indent=2) + "\n"
    assert load_family(text, validate=False) == fam


def test_family_json_rejects_unknown_keys():
    data = json.loads(dump_family(frozen_triangles(G6)))
    data["comment"] = "nope"
    with pytest.raises(MalformedFileError):
        family_from_dict(data)


def test_family_json_rejects_unsorted_triple():
    with pytest.raises(MalformedFileError):
        family_from_dict({"n": 6, "triangles": [[3, 2, 1]]})


def test_family_json_rejects_duplicates_and_small_n():
    with pytest.raises(MalformedFileError):
        family_from_dict({"n": 6, "triangles": [[1, 2, 3], [1, 2, 3]]}, validate=False)
    with pytest.raises(MalformedFileError):
        family_from_dict({"n": 5, "triangles": []})
    with pytest.raises(MalformedFileError):
        load_family("{not json")


def test_family_file_errors_keep_their_type_whatever_validate_is():
    # a malformed file is a MalformedFileError with or without the separation
    # check; a crossing pair is the plain InvalidInputError of the check
    for triples, message in (([[1, 2, 3], [1, 2, 3]], "duplicate triangles in family"),
                             ([[1, 1, 2]], r"triangle points must be distinct: \(1, 1, 2\)")):
        text = json.dumps({"n": 6, "triangles": triples})
        for validate in (True, False):
            with pytest.raises(MalformedFileError, match=f"^{message}$"):
                load_family(text, validate=validate)
    crossing = json.dumps({"n": 6, "triangles": [[1, 3, 5], [2, 4, 6]]})
    message = r"^family is not weakly separated: \(1, 3, 5\) crosses \(2, 4, 6\)$"
    with pytest.raises(InvalidInputError, match=message) as info:
        load_family(crossing)
    assert not isinstance(info.value, MalformedFileError)
    assert not load_family(crossing, validate=False).validated


@pytest.mark.parametrize("entries, message", [
    ([5], "bad triangle entry: 5"),
    ([(1, 2, 3)], "bad triangle entry: (1, 2, 3)"),
    ([[1, 2]], "bad triangle entry: [1, 2]"),
    ([[1, 2, 3, 4]], "bad triangle entry: [1, 2, 3, 4]"),
    ([[True, 2, 3]], "bad triangle entry: [True, 2, 3]"),
    ([[1, 2, 3.0]], "bad triangle entry: [1, 2, 3.0]"),
    ([[1, "2", 3]], "bad triangle entry: [1, '2', 3]"),
    ([[0, 2, 3]], "bad triangle entry: [0, 2, 3]"),
    ([[1, 2, 9]], "bad triangle entry: [1, 2, 9]"),
    ([[3, 2, 1]], "triangle not sorted ascending: [3, 2, 1]"),
    ([[1, 3, 2]], "triangle not sorted ascending: [1, 3, 2]"),
    ([[1, 1, 2]], "triangle points must be distinct: (1, 1, 2)"),
    ([[1, 2, 2]], "triangle points must be distinct: (1, 2, 2)"),
    ([[2, 3, 4]], "duplicate triangles in family"),
    # the shape and order checks run over every entry before the repeated
    # points, and those before the duplicates
    ([[1, 1, 2], [3, 2, 1]], "triangle not sorted ascending: [3, 2, 1]"),
    ([[1, 1, 2], [1, 2, 9]], "bad triangle entry: [1, 2, 9]"),
    ([[2, 3, 4], [1, 2, 2]], "triangle points must be distinct: (1, 2, 2)"),
    ([[1, 2, 2], [1, 1, 2]], "triangle points must be distinct: (1, 2, 2)"),
])
@pytest.mark.parametrize("validate", [True, False])
def test_family_reader_keeps_each_bad_entry_message(entries, message, validate):
    data = {"n": 8, "triangles": [[1, 2, 3], [2, 3, 4], *entries, [4, 5, 6]]}
    with pytest.raises(MalformedFileError) as info:
        family_from_dict(data, validate=validate)
    assert str(info.value) == message
    if not any(type(e) is tuple for e in entries):
        with pytest.raises(MalformedFileError) as info:
            load_family(json.dumps(data), validate=validate)
        assert str(info.value) == message


def test_family_reader_accepts_int_subclasses_as_the_checks_do():
    # an int subclass other than bool is a point, as GroundSet.contains has it
    class Point(int):
        pass

    fam = family_from_dict({"n": 8, "triangles": [[Point(1), Point(2), Point(3)], [2, 3, 4]]})
    assert fam.triangles == {(1, 2, 3), (2, 3, 4)} and fam.validated
    assert Family(G8, frozenset({(Point(1), Point(2), Point(3)), (2, 3, 4)})).triangles == fam.triangles
    assert (1, 3, 5) in G8_CANONICAL.with_exchange((1, 2, 4), (Point(1), Point(3), Point(5)))


@pytest.mark.parametrize("bad, message", [
    ((1, 2, 99), r"^triangle point 99 outside 1\.\.8$"),
    ((0, 1, 2), r"^triangle point 0 outside 1\.\.8$"),
    ((1, 2), r"^triangle \(1, 2\) needs three distinct points$"),
    ((1, 2, 3, 4), r"^triangle \(1, 2, 3, 4\) needs three distinct points$"),
    ((1, 1, 2), r"^triangle \(1, 1, 2\) needs three distinct points$"),
    ((4, 2, 1), r"^triangle \(4, 2, 1\) not sorted ascending$"),
    ((1, 3, 2), r"^triangle \(1, 3, 2\) not sorted ascending$"),
    (frozenset({1, 2, 3}), r"^triangle frozenset\(\{1, 2, 3\}\) needs three distinct points$"),
], ids=["point-above-n", "point-zero", "two-points", "four-points", "repeated-point", "descending", "unsorted",
        "not-a-tuple"])
def test_family_refuses_bad_triangles(bad, message):
    # the canonical family with {1,2,4} swapped for a bad triangle: Family
    # refuses it, validated or not, so weak separation, maximality, the move
    # kernel and the contraction never read it; with_exchange refuses it too.
    # More points outside 1..n are in tests/test_mutation.py.
    tris = G8_CANONICAL.triangles - {(1, 2, 4)} | {bad}
    for validated in (False, True):
        with pytest.raises(InvalidInputError, match=message):
            Family(G8, tris, validated)
    with pytest.raises(InvalidInputError, match=message):
        G8_CANONICAL.with_exchange((1, 2, 4), bad)


def test_family_refuses_a_ground_that_is_not_a_ground_set():
    # the message random_maximal_family gives; the triangles are not looked at
    for ground in (None, 8, "8"):
        for tris in (frozenset(), frozenset({(1, 2, 3)})):
            with pytest.raises(InvalidInputError, match=f"^ground must be a GroundSet, got {ground!r}$"):
                Family(ground, tris)


@pytest.mark.parametrize("removed", [[1, 2, 4], {(1, 2): 4}], ids=["list", "dict"])
def test_with_exchange_refuses_an_unhashable_removed_triangle(removed):
    with pytest.raises(InvalidInputError, match=rf"^removed triangle {re.escape(repr(removed))} is not a triangle$"):
        G8_CANONICAL.with_exchange(removed, (1, 3, 5))
    # a hashable triangle that is not in the family keeps its message
    with pytest.raises(InvalidInputError, match="^exchange does not apply to this family$"):
        G8_CANONICAL.with_exchange((2, 4, 6), (1, 3, 5))


def test_with_exchange_leaves_its_result_unvalidated():
    # an exchange that is not a move can make two triangles cross; the
    # result is not marked validated, so maximality runs the separation
    # check and names the pair, where the contraction used to meet the
    # crossing as an internal error
    fam = G8_CANONICAL.with_exchange((1, 2, 5), (2, 4, 7))
    assert not fam.validated
    with pytest.raises(InvalidInputError, match=r"^family is not weakly separated: \(1, 2, 6\) crosses \(2, 4, 7\)$"):
        is_maximal_family(fam)
    with pytest.raises(InvalidInputError, match="crosses"):
        unit_specialization(fam)
    # mutate applies a move, which keeps weak separation, and keeps the mark
    vf = unit_specialization(G8_CANONICAL)
    for move in family_moves(G8_CANONICAL):
        moved = mutate(vf, move).family
        assert moved.validated and is_weakly_separated_family(moved) == (True, None)
        exchanged = G8_CANONICAL.with_exchange(move.removed, move.added)
        assert exchanged.triangles == moved.triangles and not exchanged.validated


def test_family_reader_round_trips_walk_families():
    for n in (6, 32, 512):
        fam = random_maximal_family(GroundSet(n), 200, 1)
        for validate in (True, False):
            again = load_family(dump_family(fam), validate=validate)
            assert again == Family(fam.ground, fam.triangles, validated=validate)
            assert again.validated == validate


def test_family_equality_ignores_the_validated_mark():
    # one family built two ways is one value: equal, with one hash and one
    # place in a set; only the repr shows the mark
    fam = canonical_family(8)
    unmarked = Family(GroundSet(8), fam.triangles)
    assert fam.validated and not unmarked.validated
    assert fam == unmarked and hash(fam) == hash(unmarked)
    assert len({fam, unmarked}) == 1
    assert repr(fam) == repr(unmarked).replace("validated=False", "validated=True")
