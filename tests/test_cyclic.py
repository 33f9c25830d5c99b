"""Cyclic order and the order <_x.

Claims covered:
    - a ground set has 6 <= n <= MAX_N
    - a tuple is cyclically ordered iff it is ascending up to one rotation
    - the points strictly between a and b are the p with (a,p,b) cyclically
      ordered; they and the points between b and a partition the rest of [n]
    - a <_x b iff (x,a,b) is cyclically ordered; <_x totally orders [n]\\{x},
      and the reference helpers sorted_from and position_from realize it
"""

import pytest
from hypothesis import given, strategies as st

from conftest import position_from, sorted_from
from sl3frieze.cyclic import MAX_N, GroundSet, is_cyclic
from sl3frieze.errors import InvalidInputError

G6 = GroundSet(6)


def test_ground_set_rejects_small_n():
    for n in (-1, 0, 3, 5):
        with pytest.raises(InvalidInputError):
            GroundSet(n)
    assert GroundSet(6).n == 6


def test_ground_set_rejects_n_above_max():
    assert GroundSet(MAX_N).n == MAX_N
    for n in (MAX_N + 1, 10**9):
        with pytest.raises(InvalidInputError, match=f"^ground set needs n <= {MAX_N}, got {n}$"):
            GroundSet(n)


def test_wrap_lands_in_one_to_n():
    g = GroundSet(8)
    assert g.wrap(0) == 8
    assert g.wrap(8) == 8
    assert g.wrap(9) == 1
    assert g.wrap(-1) == 7


def test_natural_ordering_is_cyclic():
    assert is_cyclic((1, 2, 3))


def test_single_wrap_is_cyclic():
    assert is_cyclic((4, 6, 1))


def test_unsortable_tuple_is_not_cyclic():
    assert not is_cyclic((1, 3, 2))


@given(st.integers(6, 12), st.data())
def test_rotations_preserve_cyclic_order(n, data):
    size = data.draw(st.integers(3, min(6, n)))
    pts = tuple(data.draw(st.permutations(sorted(
        data.draw(st.sets(st.integers(1, n), min_size=size, max_size=size))))))
    base = is_cyclic(pts)
    for s in range(1, len(pts)):
        rotated = pts[s:] + pts[:s]
        assert is_cyclic(rotated) == base


def test_ascending_tuples_always_cyclic():
    assert is_cyclic((2, 5, 9, 11))
    assert is_cyclic((11, 2, 5, 9))
    assert not is_cyclic((2, 9, 5, 11))


def between(a, b, g):
    """The points strictly between a and b in cyclic order, listed from a."""
    return [p for p in sorted_from(a, g.points(), g.n) if p not in (a, b) and is_cyclic((a, p, b))]


def test_open_interval():
    assert between(2, 5, G6) == [3, 4]
    assert between(2, 3, G6) == []


def test_open_interval_wraps():
    assert between(5, 2, G6) == [6, 1]


@given(st.integers(6, 12), st.data())
def test_intervals_partition_the_ground_set(n, data):
    g = GroundSet(n)
    a = data.draw(st.integers(1, n))
    b = data.draw(st.integers(1, n).filter(lambda p: p != a))
    inner = between(a, b, g)
    outer = between(b, a, g)
    assert not set(inner) & set(outer)
    assert set(inner) | set(outer) | {a, b} == set(g.points())


def test_less_x_examples():
    assert is_cyclic((3, 4, 2))
    assert not is_cyclic((3, 2, 4))
    assert position_from(3, 4, 6) < position_from(3, 2, 6)


def test_sort_by_less_x_is_a_rotation():
    assert sorted_from(3, [1, 2, 4, 5, 6], 6) == [4, 5, 6, 1, 2]


@given(st.integers(6, 12), st.data())
def test_less_x_total_order(n, data):
    x = data.draw(st.integers(1, n))
    others = [p for p in range(1, n + 1) if p != x]
    a, b = data.draw(st.permutations(others))[:2]
    assert is_cyclic((x, a, b)) != is_cyclic((x, b, a))
    assert is_cyclic((x, a, b)) == (position_from(x, a, n) < position_from(x, b, n))
    ordered = sorted_from(x, others, n)
    assert [position_from(x, p, n) for p in ordered] == list(range(1, n))
    for i in range(len(ordered) - 1):
        assert is_cyclic((x, ordered[i], ordered[i + 1]))
