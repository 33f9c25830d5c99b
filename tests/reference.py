"""Definition-level references that the library's crossing test is checked
against.

``sl3frieze.separation`` decides crossing by one gap formula. The tests compare
it with the independent routes kept here:

* ``crossing_definition`` searches for interleaved witnesses a, c in A \\ B and
  b, d in B \\ A directly: the definition itself.
* ``masks_cross`` is the min/max closed form for equal-size point sets
  (Leclerc-Zelevinsky; Oh-Postnikov-Speyer) on bitmasks from
  ``triangle_mask``.
* ``chords_cross`` decides whether two chords of a circle cross, by endpoint
  interleaving; two triangles through x cross iff their chords without x do.

Test modules import them with ``from reference import ...``.
"""

from sl3frieze.cyclic import is_cyclic


def crossing_definition(A, B) -> bool:
    """Interleaving-witness search: some a,c in A\\B and b,d in B\\A with
    (a,b,c,d) cyclically ordered."""
    only_a = [p for p in A if p not in B]
    only_b = [p for p in B if p not in A]
    if len(only_a) < 2 or len(only_b) < 2:
        return False
    for a in only_a:
        for c in only_a:
            if a == c:
                continue
            for b in only_b:
                for d in only_b:
                    if b != d and is_cyclic((a, b, c, d)):
                        return True
    return False


def triangle_mask(t) -> int:
    """The distinct points of t as a bitmask: bit p is set for each point p."""
    return sum(1 << p for p in t)


def masks_cross(m: int, k: int) -> bool:
    """Crossing of two equal-size point sets given as bitmasks.

    With a = A\\B and b = B\\A, the sets cross iff |a| >= 2, some point of b
    lies between min a and max a, and some point of a lies between min b and
    max b (linear order on 1..n)."""
    a = m & ~k
    if not a & (a - 1):
        return False
    b = k & ~m
    return bool(b & ((1 << a.bit_length()) - (a & -a))
                and a & ((1 << b.bit_length()) - (b & -b)))


def chords_cross(e1, e2) -> bool:
    """Two chords with endpoints on a circle cross iff their endpoint pairs
    interleave; chords sharing an endpoint never cross."""
    a, b = e1
    c, d = e2
    return len({a, b, c, d}) == 4 and (a < c < b) != (a < d < b)
