"""Cyclic order, intervals and the order <_x.

Claims covered:
    - a ground set has 6 <= n <= MAX_N
    - a tuple is cyclically ordered iff it is ascending up to one rotation
    - intervals walk from a to b with endpoint flags, wrapping at n
    - a <_x b iff (x,a,b) is cyclically ordered; <_x totally orders [n]\\{x}
"""

import pytest
from hypothesis import given, strategies as st

from sl3frieze.cyclic import (
    MAX_N,
    GroundSet,
    cyclically_ordered,
    interval,
    is_cyclic,
    less_x,
    sorted_from,
)
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
    assert cyclically_ordered((1, 2, 3), G6)


def test_single_wrap_is_cyclic():
    assert cyclically_ordered((4, 6, 1), G6)


def test_unsortable_tuple_is_not_cyclic():
    assert not cyclically_ordered((1, 3, 2), G6)


def test_cyclic_rejects_duplicates_and_range():
    with pytest.raises(InvalidInputError):
        cyclically_ordered((1, 2, 1), G6)
    with pytest.raises(InvalidInputError):
        cyclically_ordered((0, 2, 3), G6)
    with pytest.raises(InvalidInputError):
        cyclically_ordered((1, 2, 7), G6)
    with pytest.raises(InvalidInputError):
        cyclically_ordered((1, 2), G6)


@given(st.integers(6, 12), st.data())
def test_rotations_preserve_cyclic_order(n, data):
    g = GroundSet(n)
    size = data.draw(st.integers(3, min(6, n)))
    pts = tuple(data.draw(st.permutations(sorted(
        data.draw(st.sets(st.integers(1, n), min_size=size, max_size=size))))))
    base = cyclically_ordered(pts, g)
    for s in range(1, len(pts)):
        rotated = pts[s:] + pts[:s]
        assert cyclically_ordered(rotated, g) == base


def test_ascending_tuples_always_cyclic():
    assert is_cyclic((2, 5, 9, 11))
    assert is_cyclic((11, 2, 5, 9))
    assert not is_cyclic((2, 9, 5, 11))


def test_open_interval():
    assert interval(2, 5, G6) == [3, 4]


def test_open_interval_wraps():
    assert interval(5, 2, G6) == [6, 1]


def test_interval_endpoint_flags():
    assert interval(2, 5, G6, closed_left=True) == [2, 3, 4]
    assert interval(2, 5, G6, closed_right=True) == [3, 4, 5]
    assert interval(2, 5, G6, closed_left=True, closed_right=True) == [2, 3, 4, 5]
    assert interval(2, 3, G6) == []


def test_interval_rejects_equal_endpoints():
    with pytest.raises(InvalidInputError):
        interval(2, 2, G6)


@given(st.integers(6, 12), st.data())
def test_intervals_partition_the_ground_set(n, data):
    g = GroundSet(n)
    a = data.draw(st.integers(1, n))
    b = data.draw(st.integers(1, n).filter(lambda p: p != a))
    inner = interval(a, b, g)
    outer = interval(b, a, g)
    assert not set(inner) & set(outer)
    assert set(inner) | set(outer) | {a, b} == set(g.points())


def test_less_x_examples():
    assert less_x(3, 4, 2)
    assert not less_x(3, 2, 4)


def test_less_x_rejects_coincident_points():
    with pytest.raises(InvalidInputError):
        less_x(3, 3, 4)
    with pytest.raises(InvalidInputError):
        less_x(3, 4, 4)


def test_sort_by_less_x_is_a_rotation():
    assert sorted_from(3, [1, 2, 4, 5, 6], 6) == [4, 5, 6, 1, 2]


@given(st.integers(6, 12), st.data())
def test_less_x_total_order(n, data):
    x = data.draw(st.integers(1, n))
    others = [p for p in range(1, n + 1) if p != x]
    a, b = data.draw(st.permutations(others))[:2]
    assert less_x(x, a, b) != less_x(x, b, a)
    ordered = sorted_from(x, others, n)
    for i in range(len(ordered) - 1):
        assert less_x(x, ordered[i], ordered[i + 1])
