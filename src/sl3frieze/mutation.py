"""Mutations of maximal weakly separated families and exact value propagation.

A move is determined by a point z and a cyclically ordered quadruple
(a, b, c, d) such that the five triangles {z,a,b}, {z,b,c}, {z,c,d}, {z,d,a},
{z,a,c} all lie in the family; applying it exchanges {z,a,c} for {z,b,d} and
the three-term relation

    v(zac) * v(zbd) = v(zab) * v(zcd) + v(zad) * v(zbc)

forces the value of the new triangle. One kernel, ``_moves``, enumerates
moves on neighbour bitmasks: bit b of nb[z][a] is set iff {z,a,b} is in the
family, so the candidates b and d of a triangle {z,a,c} are the bits of
nb[z][a] & nb[z][c], and a weakly separated family has at most one of each.
The masks index by point, and ``Family`` guarantees that every triangle is
an ascending triple of points of 1..n, so nothing here checks that again.
``family_moves`` and the breadth-first oracle build the
masks of a whole family; ``seeded_walk`` keeps them, and the triangles
through each point, current across its steps, and draws moves uniformly; it
yields the moves, and each caller applies them to its own family. This
module loads neither ``stargraph`` nor the star index. The oracle at the
bottom of the module evaluates arbitrary Pluecker coordinates by
breadth-first search over moves; the label contraction, which takes the
border values of the star graph at x to the frieze rows without a search,
lives in ``frieze``.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

from .cyclic import GroundSet, Record, is_cyclic
from .errors import (
    BudgetExceededError,
    InternalConsistencyError,
    InvalidInputError,
    InvalidMoveError,
    ZeroPivotError,
)
from .family import Family, Triangle, canonical_family, continuous_triangles, is_maximal_family

DEFAULT_ORACLE_BUDGET = 100_000

_EXACT_TYPES = frozenset((int, Fraction))


def _check_entries(values, what: str) -> None:
    """Exact entries only: each of type int or Fraction, so a bool or a float
    is refused."""
    if not _EXACT_TYPES.issuperset(map(type, values)):
        bad = next(v for v in values if type(v) not in _EXACT_TYPES)
        raise InvalidInputError(f"{what} entry {bad!r} is not an int or a Fraction")


class MutationMove(Record):
    __slots__ = ("z", "a", "b", "c", "d")

    def __init__(self, z: int, a: int, b: int, c: int, d: int):
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        pts = (z, a, b, c, d)
        if len(set(pts)) != 5:
            raise InvalidInputError(f"move points must be pairwise distinct: {pts}")
        if not is_cyclic((a, b, c, d)):
            raise InvalidInputError(f"(a,b,c,d)={(a, b, c, d)} is not cyclically ordered")

    @property
    def removed(self) -> Triangle:
        return _ascending(self.z, self.a, self.c)

    @property
    def added(self) -> Triangle:
        return _ascending(self.z, self.b, self.d)

    def required(self) -> tuple:
        """The five triangles that must be present: zab, zbc, zcd, zda, zac."""
        z, a, b, c, d = self.z, self.a, self.b, self.c, self.d
        return tuple(_ascending(*t) for t in ((z, a, b), (z, b, c), (z, c, d), (z, d, a), (z, a, c)))

    def inverse(self) -> "MutationMove":
        """The move undoing this one: rotating the quadruple swaps the roles of
        {z,a,c} and {z,b,d}."""
        return MutationMove(self.z, self.b, self.c, self.d, self.a)

    def key(self) -> tuple:
        return (self.z, self.a, self.b, self.c, self.d)


class ValuedFamily(Record):
    """A maximal family together with a nonzero value per triangle, each an
    int or a Fraction. Construction checks the values, that every continuous
    triangle is present and that the family is maximal; its triangles are
    ascending triples of points of 1..n, as ``Family`` holds them."""

    __slots__ = ("family", "values")

    def __init__(self, family: Family, values: dict):
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "values", dict(values))  # Triangle -> int or Fraction, detached from caller
        if set(self.values) != self.family.triangles:
            raise InvalidInputError("values must be given for exactly the family's triangles")
        _check_entries(self.values.values(), "value")
        for t, v in self.values.items():
            if v == 0:
                raise InvalidInputError(f"value of {t} must be nonzero")
        if not all(t in self.family.triangles for t in continuous_triangles(self.family.ground.n)):
            raise InvalidInputError("family must contain all continuous triangles")
        if not is_maximal_family(self.family):
            raise InvalidInputError("valued families must be maximal")


def unit_specialization(fam: Family) -> ValuedFamily:
    """All triangle values set to the int 1."""
    return ValuedFamily(fam, dict.fromkeys(fam.triangles, 1))


def exchange_value(v_zac: int | Fraction, v_zab: int | Fraction, v_zcd: int | Fraction,
                   v_zad: int | Fraction, v_zbc: int | Fraction) -> int | Fraction:
    """Value of the incoming triangle forced by the three-term relation,
    (v_zab * v_zcd + v_zad * v_zbc) / v_zac; v_zac = 0 raises ZeroPivotError.

    Five ints give an int when v_zac divides the numerator, and a Fraction
    otherwise. From the unit specialization every exchange divides exactly:
    by the Laurent phenomenon and positivity every value reached from a
    cluster set to 1 is a positive integer. Any Fraction argument gives a
    Fraction.

    Arguments must be ints or Fractions: a float or a bool raises
    InvalidInputError. The int path is taken only when all five are exactly
    int; the Fraction path checks the types unless the numerator and v_zac
    are both Fractions, so a bool multiplied by a Fraction passes as 0 or 1.
    """
    num = v_zab * v_zcd + v_zad * v_zbc
    try:
        if type(v_zac) is type(v_zab) is type(v_zcd) is type(v_zad) is type(v_zbc) is int:
            q, r = divmod(num, v_zac)
            return Fraction(num, v_zac) if r else q
        if type(num) is not Fraction or type(v_zac) is not Fraction:
            _check_entries((v_zac, v_zab, v_zcd, v_zad, v_zbc), "exchange")
            num = Fraction(num)
        return num / v_zac
    except ZeroDivisionError:
        raise ZeroPivotError("cannot exchange across a zero value") from None


def _ascending(p: int, q: int, r: int) -> Triangle:
    """The triangle {p,q,r} as an ascending tuple, by three compare-and-swaps."""
    if p > q:
        p, q = q, p
    if q > r:
        q, r = r, q
        if p > q:
            p, q = q, p
    return p, q, r


def _exchange(values: dict, m: tuple) -> dict:
    """The values after the move m = (z,a,b,c,d), in any cyclic rotation of
    (a,b,c,d): {z,a,c} leaves and {z,b,d} enters with its exchanged value."""
    z, a, b, c, d = m
    zac = _ascending(z, a, c)
    new = dict(values)
    new[_ascending(z, b, d)] = exchange_value(values[zac], values[_ascending(z, a, b)],
                                              values[_ascending(z, c, d)], values[_ascending(z, d, a)],
                                              values[_ascending(z, b, c)])
    del new[zac]
    return new


def mutate(vf: ValuedFamily, move: MutationMove) -> ValuedFamily:
    """Apply one move, propagating the exchanged value. Of the result only the
    new value is checked: a move keeps the family maximal weakly separated
    with every continuous triangle, so the family keeps its validated mark,
    and exchange_value checks the types, but signed values can exchange to
    zero."""
    ground = vf.family.ground
    for p in (move.z, move.a, move.b, move.c, move.d):
        if not ground.contains(p):
            raise InvalidInputError(f"move point {p!r} outside 1..{ground.n}")
    for t in move.required():
        if t not in vf.family.triangles:
            raise InvalidMoveError(f"required triangle {t} missing from family")
    added = move.added
    if added in vf.family.triangles:
        raise InvalidMoveError(f"{added} already present; family cannot be maximal weakly separated")
    values2 = _exchange(vf.values, move.key())
    if values2[added] == 0:
        raise InvalidInputError(f"value of {added} must be nonzero")
    fam = vf.family  # the added triangle is an ascending triple of its points
    moved = Family._unchecked(fam.ground, fam.triangles - {move.removed} | {added}, True)
    return ValuedFamily._unchecked(moved, values2)


def _pivoted(t) -> tuple:
    """The three ways (z, a, c), a < c, to read an ascending triangle as the
    triangle {z,a,c} a move at z removes."""
    p, q, r = t
    return (p, q, r), (q, p, r), (r, p, q)


def _toggle(nb: list, t) -> None:
    """Flip the bits of triangle t in the neighbour masks nb, where bit b of
    nb[z][a] is set iff {z,a,b} is a triangle: t enters when absent and
    leaves when present, since no other triangle sets those bits."""
    p, q, r = t
    bp, bq, br = 1 << p, 1 << q, 1 << r
    row = nb[p]
    row[q] ^= br
    row[r] ^= bq
    row = nb[q]
    row[p] ^= br
    row[r] ^= bp
    row = nb[r]
    row[p] ^= bq
    row[q] ^= bp


def _masks(triangles, n: int) -> list:
    """The neighbour masks nb[z][a] (see _toggle) of the triangles of a
    family over 1..n, which Family has checked to be points of 1..n."""
    nb = [[0] * (n + 1) for _ in range(n + 1)]
    for t in triangles:
        _toggle(nb, t)
    return nb


def _moves(nb: list, pivoted) -> list:
    """The move kernel: the moves (z,a,b,c,d), unsorted, that remove a
    pivoted triangle (z,a,c), a < c, of the family with neighbour masks nb.
    The common neighbours of a and c in the star at z are the bits of
    nb[z][a] & nb[z][c]; the one strictly between a and c is b, the one
    outside is d. A weakly separated family has at most one of each: two b's,
    a < b1 < b2 < c, would put {z,a,b2} and {z,b1,c} in the family, and those
    two cross (two d's likewise). So more than one is an InvalidInputError
    naming {z,a,c}."""
    moves = []
    for z, a, c in pivoted:
        row = nb[z]
        shared = row[a] & row[c]
        inner = shared & ((1 << c) - (2 << a))
        if not inner or inner == shared:  # a move needs one b inside [a,c] and one d outside
            continue
        outer = shared ^ inner
        if inner & (inner - 1) or outer & (outer - 1):
            raise InvalidInputError(f"triangle {_ascending(z, a, c)} has more than one move: "
                                    "the family is not weakly separated")
        moves.append((z, a, inner.bit_length() - 1, c, outer.bit_length() - 1))
    return moves


def _moves_of_triangles(triangles, n: int) -> list:
    """All applicable moves of a triangle set over 1..n, as (z,a,b,c,d) tuples
    sorted lexicographically."""
    moves = _moves(_masks(triangles, n), [pv for t in triangles for pv in _pivoted(t)])
    moves.sort()
    return moves


def family_moves(fam: Family) -> list:
    """All valid moves of a family, lexicographically ordered by (z,a,b,c,d)."""
    return [MutationMove(*m) for m in _moves_of_triangles(fam.triangles, fam.ground.n)]


def _walk_state(triangles, n: int) -> tuple:
    """The state the walk keeps current: the neighbour masks of the
    triangles and, per point z, the set of pivoted triangles (z, a, c)."""
    nb = _masks(triangles, n)
    around = [set() for _ in range(n + 1)]
    for t in triangles:
        for pv in _pivoted(t):
            around[pv[0]].add(pv)
    return nb, around


def _flip(nb: list, around: list, t) -> None:
    """Toggle triangle t in the walk state (nb, around): add it when absent,
    remove it when present."""
    _toggle(nb, t)
    for pv in _pivoted(t):
        around[pv[0]] ^= {pv}


def seeded_walk(fam: Family, steps: int, seed: int):
    """Yield `steps` MutationMoves from fam, each drawn uniformly from the
    moves of the family the earlier moves lead to; deterministic per seed.

    The neighbour masks, the pivoted triangles at every point and the moves
    at every point are kept across steps. A move changes only triangles
    through its five points, so only their move lists are enumerated again;
    the lists, joined in z order, are the lexicographic list family_moves
    gives.
    """
    rng = random.Random(seed)
    nb, around = _walk_state(fam.triangles, fam.ground.n)
    moves_at = [sorted(_moves(nb, pivoted)) for pivoted in around]
    for _ in range(steps):
        move = MutationMove(*rng.choice([m for ms in moves_at for m in ms]))
        _flip(nb, around, move.removed)
        _flip(nb, around, move.added)
        for z in move.key():
            moves_at[z] = sorted(_moves(nb, around[z]))
        yield move


def random_maximal_family(ground: GroundSet, steps: int, seed: int) -> Family:
    """A maximal family obtained from the canonical family by `steps`
    uniformly chosen moves; deterministic per seed. The moves apply to one
    set, and the family is built once: every move of seeded_walk applies and
    keeps the family weakly separated."""
    if steps < 0:
        raise InvalidInputError("steps must be >= 0")
    if not isinstance(ground, GroundSet):
        raise InvalidInputError(f"ground must be a GroundSet, got {ground!r}")
    fam = canonical_family(ground.n)
    triangles = set(fam.triangles)
    for move in seeded_walk(fam, steps, seed):
        triangles ^= {move.removed, move.added}
    return Family._unchecked(fam.ground, frozenset(triangles), True)


# -- breadth-first oracle -------------------------------------------------------
#
# No command runs it, and the walk calls _moves, not family_moves. Both stay
# here, as does FriezeGrid.entry, because the benchmark harness (perfbench/)
# imports them; they can move to the tests once it reads the pipeline's own
# API instead.

def _target_triangles(ground: GroundSet, targets) -> set:
    """The targets of a value oracle as ascending triangles; InvalidInputError
    naming the first that is not a tuple or list of three distinct points of
    1..n."""
    wanted = set()
    for t in targets:
        if (not isinstance(t, (tuple, list)) or len(t) != 3
                or not all(map(ground.contains, t)) or len(set(t)) != 3):
            raise InvalidInputError(f"bad target triangle {t!r}")
        wanted.add(tuple(sorted(t)))
    return wanted


def oracle_values(vf: ValuedFamily, targets, budget: int = DEFAULT_ORACLE_BUDGET) -> dict:
    """Values of the given triangles under the specialization pinned by vf.

    The definition-level reference, feasible at small n only: under the unit
    specialization ``frieze.minor_values`` gives the same values at any n.
    Breadth-first search over moves, propagating values exchange by exchange
    until every target has been seen in some reached family. Path independence
    is asserted: a family reached twice must carry the same values, and a
    target found in two families must get the same number. Values are ints or
    Fractions, as exchange_value gives them: all ints from the unit
    specialization.
    """
    if budget < 0:
        raise InvalidInputError(f"oracle budget must be >= 0, got {budget}")
    n = vf.family.ground.n
    wanted = _target_triangles(vf.family.ground, targets)

    start = dict(vf.values)
    found = {t: start[t] for t in wanted if t in start}
    if len(found) == len(wanted):
        return found

    visited = {frozenset(start): start}
    queue = [start]
    expanded = 0
    while queue:
        next_queue = []
        for vals in queue:
            expanded += 1
            if expanded > budget:
                missing = sorted(wanted - set(found))
                raise BudgetExceededError(budget, expanded - 1,
                                          f"targets not reached: {missing}")
            for m in _moves_of_triangles(vals, n):
                child = _exchange(vals, m)
                key = frozenset(child)
                seen = visited.get(key)
                if seen is not None:
                    if seen != child:
                        raise InternalConsistencyError(
                            f"path-dependent family values after move {m}")
                    continue
                visited[key] = child
                # A child agrees with its parent everywhere but on the triangle
                # its move adds, and the parent's values already agree with
                # found, so that triangle is the one value left to compare.
                added = _ascending(m[0], m[2], m[4])
                if added in wanted:
                    if added not in found:
                        found[added] = child[added]
                        if len(found) == len(wanted):
                            return found
                    elif found[added] != child[added]:
                        raise InternalConsistencyError(
                            f"path-dependent value for {added}: {found[added]} vs {child[added]}")
                next_queue.append(child)
        queue = next_queue
    missing = sorted(wanted - set(found))
    raise BudgetExceededError(budget, expanded, f"search space exhausted, targets not reached: {missing}")


# -- trace format ----------------------------------------------------------------
#
# One line per move:  z:(a,b,c,d) removed={z,a,c} added={z,b,d} value=p/q

_TRACE_RE = re.compile(  # [0-9], not \d, which matches any Unicode digit
    r"^([0-9]+):\(([0-9]+),([0-9]+),([0-9]+),([0-9]+)\)"
    r" removed=\{([0-9]+),([0-9]+),([0-9]+)\}"
    r" added=\{([0-9]+),([0-9]+),([0-9]+)\}"
    r" value=(-?[0-9]+(?:/[0-9]+)?)$")


def format_trace_line(move: MutationMove, value: int | Fraction) -> str:
    rem = ",".join(str(p) for p in move.removed)
    add = ",".join(str(p) for p in move.added)
    return (f"{move.z}:({move.a},{move.b},{move.c},{move.d})"
            f" removed={{{rem}}} added={{{add}}} value={value}")


def parse_trace_line(line: str):
    """-> (MutationMove, expected value), the value an int when it is integral
    and a Fraction otherwise; raises InvalidInputError on malformed lines or
    removed/added sets inconsistent with the move points."""
    m = _TRACE_RE.match(line.strip())
    if not m:
        raise InvalidInputError(f"malformed trace line: {line!r}")
    try:
        z, a, b, c, d = (int(m.group(i)) for i in range(1, 6))
        removed = tuple(sorted(int(m.group(i)) for i in range(6, 9)))
        added = tuple(sorted(int(m.group(i)) for i in range(9, 12)))
        value = Fraction(m.group(12))
    except ZeroDivisionError:
        raise InvalidInputError(f"zero denominator in trace value: {line!r}") from None
    except ValueError as e:  # a number past Python's int string-conversion limit
        raise InvalidInputError(f"bad number in trace line: {e}") from None
    move = MutationMove(z, a, b, c, d)
    if move.removed != removed or move.added != added:
        raise InvalidInputError(f"trace line inconsistent with its move: {line!r}")
    return move, value.numerator if value.denominator == 1 else value
