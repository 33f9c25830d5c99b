"""Crossing / weak separation: the library's gap formula against the
definition-level references of ``tests/reference.py``.

Claims covered:
    - interleaved triangles cross, disjoint-arc triangles do not
    - sharing two points forces weak separation
    - ``crossing`` agrees pairwise with the definitional search (exhaustive
      sweeps live in the acceptance suite; a smaller sweep plus sampled checks
      live here)
    - crossing is symmetric, and takes each triangle as a tuple or a list of
      its points in any order, for n = 6..40
    - two triangles through x cross iff their chords without x interleave
    - the crossing index's gap formula names exactly the crossers of a
      triangle, exhaustively over all triangles for n = 6..9
"""

from itertools import combinations

from hypothesis import given, settings, strategies as st

from reference import chords_cross, crossing_definition
from sl3frieze.separation import crossing, crossing_index


def test_interleaved_triangles_cross():
    assert crossing_definition((1, 3, 5), (2, 4, 6))
    assert crossing((1, 3, 5), (2, 4, 6))


def test_disjoint_arcs_do_not_cross():
    assert not crossing_definition((1, 2, 3), (4, 5, 6))
    assert not crossing((1, 2, 3), (4, 5, 6))


def test_shared_pair_never_crosses():
    assert not crossing_definition((1, 2, 5), (1, 2, 6))
    assert not crossing((1, 2, 5), (1, 2, 6))


def test_equal_triangles_do_not_cross():
    assert not crossing((2, 4, 6), (2, 4, 6))
    assert not crossing_definition((2, 4, 6), (2, 4, 6))


def test_spec_pair_against_definitional_oracle():
    # {1,2,4} vs {2,3,5}: whatever the definitional search says is the answer.
    a, b = (1, 2, 4), (2, 3, 5)
    assert crossing(a, b) == crossing_definition(a, b)


def test_small_exhaustive_equivalence_and_shared_pair_rule():
    for n in (6, 7):
        tris = list(combinations(range(1, n + 1), 3))
        for i, A in enumerate(tris):
            for B in tris[i:]:
                d = crossing_definition(A, B)
                assert d == crossing(A, B), (A, B)
                if len(set(A) & set(B)) >= 2:
                    assert not d, (A, B)


def test_crossing_index_exhaustive():
    for n in (6, 7, 8, 9):
        tris = list(combinations(range(1, n + 1), 3))
        crossers = crossing_index(tris, n)
        for A in tris:
            expected = sum(1 << j for j, B in enumerate(tris) if crossing_definition(A, B))
            assert crossers(A) == expected, (n, A)


@settings(max_examples=200)
@given(st.integers(6, 10), st.data())
def test_crossing_symmetry(n, data):
    pts = list(range(1, n + 1))
    A = tuple(sorted(data.draw(st.sets(st.sampled_from(pts), min_size=3, max_size=3))))
    B = tuple(sorted(data.draw(st.sets(st.sampled_from(pts), min_size=3, max_size=3))))
    assert crossing_definition(A, B) == crossing_definition(B, A)
    assert crossing(A, B) == crossing(B, A)



@settings(max_examples=300)
@given(st.integers(6, 40), st.data())
def test_crossing_ignores_the_order_and_the_container_of_the_points(n, data):
    triangle = st.lists(st.integers(1, n), min_size=3, max_size=3, unique=True)
    A, B = data.draw(triangle), data.draw(triangle)
    expected = crossing_definition(A, B)
    assert expected == crossing_definition(sorted(A), sorted(B))
    for a in (A, tuple(A), A[::-1]):
        for b in (B, tuple(B), B[::-1]):
            assert crossing(a, b) == crossing(b, a) == expected, (a, b)


@settings(max_examples=300)
@given(st.integers(6, 40), st.data())
def test_triangles_through_a_point_cross_iff_their_chords_do(n, data):
    x = data.draw(st.integers(1, n))
    chord = st.lists(st.sampled_from([p for p in range(1, n + 1) if p != x]), min_size=2, max_size=2,
                     unique=True).map(sorted).map(tuple)
    e1, e2 = data.draw(chord), data.draw(chord)
    assert crossing((x, *e1), (x, *e2)) == chords_cross(e1, e2), (x, e1, e2)
