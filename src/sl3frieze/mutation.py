"""Mutations of maximal weakly separated families and exact value propagation.

A move is determined by a point z and a cyclically ordered quadruple
(a, b, c, d) such that the five triangles {z,a,b}, {z,b,c}, {z,c,d}, {z,d,a},
{z,a,c} all lie in the family; applying it exchanges {z,a,c} for {z,b,d} and
the three-term relation

    v(zac) * v(zbd) = v(zab) * v(zcd) + v(zad) * v(zbc)

forces the value of the new triangle. Moves are enumerated from the star
index of a family (``family.star_index``, so this module does not load
``stargraph``), and ``seeded_walk`` draws them uniformly. The oracle at the
bottom of the module evaluates arbitrary Pluecker coordinates by breadth-first
search over moves; the label contraction, which takes the border values of
the star graph at x to the frieze rows without a search, lives in ``frieze``.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction

from .cyclic import GroundSet, is_cyclic
from .errors import (
    BudgetExceededError,
    InternalConsistencyError,
    InvalidInputError,
    InvalidMoveError,
    ZeroPivotError,
)
from .family import (
    Family,
    Triangle,
    canonical_family,
    continuous_triangles,
    is_maximal_family,
    link_triangle,
    star_index,
    unlink_triangle,
)

DEFAULT_ORACLE_BUDGET = 100_000

_EXACT_TYPES = frozenset((int, Fraction))


def _check_entries(values, what: str) -> None:
    """Exact entries only: each of type int or Fraction, so a bool or a float
    is refused."""
    if not _EXACT_TYPES.issuperset(map(type, values)):
        bad = next(v for v in values if type(v) not in _EXACT_TYPES)
        raise InvalidInputError(f"{what} entry {bad!r} is not an int or a Fraction")


@dataclass(frozen=True)
class MutationMove:
    z: int
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        pts = (self.z, self.a, self.b, self.c, self.d)
        if len(set(pts)) != 5:
            raise InvalidInputError(f"move points must be pairwise distinct: {pts}")
        if not is_cyclic((self.a, self.b, self.c, self.d)):
            raise InvalidInputError(f"(a,b,c,d)={(self.a, self.b, self.c, self.d)} is not cyclically ordered")

    @property
    def removed(self) -> Triangle:
        return tuple(sorted((self.z, self.a, self.c)))

    @property
    def added(self) -> Triangle:
        return tuple(sorted((self.z, self.b, self.d)))

    def required(self) -> tuple:
        """The five triangles that must be present: zab, zbc, zcd, zda, zac."""
        z, a, b, c, d = self.z, self.a, self.b, self.c, self.d
        return tuple(tuple(sorted(t)) for t in ((z, a, b), (z, b, c), (z, c, d), (z, d, a), (z, a, c)))

    def inverse(self) -> "MutationMove":
        """The move undoing this one: rotating the quadruple swaps the roles of
        {z,a,c} and {z,b,d}."""
        return MutationMove(self.z, self.b, self.c, self.d, self.a)

    def key(self) -> tuple:
        return (self.z, self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class ValuedFamily:
    """A maximal family together with a nonzero value per triangle, each an
    int or a Fraction."""

    family: Family
    values: dict  # Triangle -> int or Fraction

    def __post_init__(self):
        object.__setattr__(self, "values", dict(self.values))  # detach from caller
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


def _exchange(values: dict, m: tuple) -> dict:
    """The values after the move m = (z,a,b,c,d): {z,a,c} leaves and {z,b,d}
    enters with its exchanged value."""
    z, a, b, c, d = m
    zac = tuple(sorted((z, a, c)))
    zbd = tuple(sorted((z, b, d)))
    zab = tuple(sorted((z, a, b)))
    zcd = tuple(sorted((z, c, d)))
    zda = tuple(sorted((z, d, a)))
    zbc = tuple(sorted((z, b, c)))
    new = dict(values)
    new[zbd] = exchange_value(values[zac], values[zab], values[zcd], values[zda], values[zbc])
    del new[zac]
    return new


def mutate(vf: ValuedFamily, move: MutationMove) -> ValuedFamily:
    """Apply one move, propagating the exchanged value. Of the result only the
    new value is checked: an exchange keeps the family maximal weakly
    separated with every continuous triangle, and exchange_value checks the
    types, but signed values can exchange to zero."""
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
    result = object.__new__(ValuedFamily)  # skips __post_init__'s whole-family checks
    object.__setattr__(result, "family", vf.family.with_exchange(move.removed, added))
    object.__setattr__(result, "values", values2)
    return result


def _moves_at(z: int, star: dict) -> list:
    """The moves at z, as (z,a,b,c,d) tuples sorted lexicographically, from
    the neighbour map of the star graph at z: for each edge {a,c}, a < c, any
    common neighbours b of a and c with a < b < c and d outside [a,c] give a
    move."""
    moves = []
    for a in star:
        star_a = star[a]
        for c in star_a:
            if c < a:
                continue
            shared = star_a & star[c]
            if len(shared) < 2:  # a move needs one b inside [a,c] and one d outside
                continue
            inner = [b for b in shared if a < b < c]
            outer = [d for d in shared if not a < d < c]
            for b in inner:
                for d in outer:
                    moves.append((z, a, b, c, d))
    moves.sort()
    return moves


def _moves_of_triangles(triangles) -> list:
    """All applicable moves of a triangle set, as (z,a,b,c,d) tuples sorted
    lexicographically: the moves at each point z, in z order."""
    index = star_index(triangles)
    return [m for z in sorted(index) for m in _moves_at(z, index[z])]


def family_moves(fam: Family) -> list:
    """All valid moves of a family, lexicographically ordered by (z,a,b,c,d)."""
    return [MutationMove(*m) for m in _moves_of_triangles(fam.triangles)]


def seeded_walk(fam: Family, steps: int, seed: int):
    """Yield (move, family after it) for `steps` moves, each drawn uniformly
    from the moves of the current family; deterministic per seed.

    The star index and the moves at every point are kept across steps. A
    move changes only triangles through its five points, so only their stars
    and move lists are updated; the lists, joined in z order, are the
    lexicographic list family_moves gives.
    """
    rng = random.Random(seed)
    index = star_index(fam.triangles)
    moves_at = {z: _moves_at(z, star) for z, star in index.items()}
    for _ in range(steps):
        move = MutationMove(*rng.choice([m for z in sorted(moves_at) for m in moves_at[z]]))
        removed, added = move.removed, move.added
        fam = fam.with_exchange(removed, added)
        unlink_triangle(index, removed)
        link_triangle(index, added)
        for z in move.key():
            moves_at[z] = _moves_at(z, index[z])
        yield move, fam


def random_maximal_family(ground: GroundSet, steps: int, seed: int) -> Family:
    """A maximal family obtained from the canonical family by `steps`
    uniformly chosen moves; deterministic per seed."""
    if steps < 0:
        raise InvalidInputError("steps must be >= 0")
    fam = canonical_family(ground.n)
    for _, fam in seeded_walk(fam, steps, seed):
        pass
    return fam


# -- breadth-first oracle -------------------------------------------------------

def oracle_values(vf: ValuedFamily, targets, budget: int = DEFAULT_ORACLE_BUDGET) -> dict:
    """Values of the given triangles under the specialization pinned by vf.

    Breadth-first search over moves, propagating values exchange by exchange
    until every target has been seen in some reached family. Path independence
    is asserted: a family reached twice must carry the same values, and a
    target found in two families must get the same number. Values are ints or
    Fractions, as exchange_value gives them: all ints from the unit
    specialization.
    """
    if budget < 0:
        raise InvalidInputError(f"oracle budget must be >= 0, got {budget}")
    ground = vf.family.ground
    wanted = set()
    for t in targets:
        tt = tuple(sorted(t))
        if len(set(tt)) != 3 or any(not ground.contains(p) for p in tt):
            raise InvalidInputError(f"bad target triangle {t!r}")
        wanted.add(tt)

    found = {}

    def scan(vals):
        for t in wanted:
            if t in vals:
                if t in found:
                    if found[t] != vals[t]:
                        raise InternalConsistencyError(
                            f"path-dependent value for {t}: {found[t]} vs {vals[t]}")
                else:
                    found[t] = vals[t]

    start = dict(vf.values)
    scan(start)
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
            for m in _moves_of_triangles(vals):
                child = _exchange(vals, m)
                key = frozenset(child)
                seen = visited.get(key)
                if seen is not None:
                    if seen != child:
                        raise InternalConsistencyError(
                            f"path-dependent family values after move {m}")
                    continue
                visited[key] = child
                scan(child)
                if len(found) == len(wanted):
                    return found
                next_queue.append(child)
        queue = next_queue
    missing = sorted(wanted - set(found))
    raise BudgetExceededError(budget, expanded, f"search space exhausted, targets not reached: {missing}")


def oracle_value(vf: ValuedFamily, target, budget: int = DEFAULT_ORACLE_BUDGET) -> int | Fraction:
    """Value of a single Pluecker coordinate, an int or a Fraction; see
    oracle_values."""
    tt = tuple(sorted(target))
    return oracle_values(vf, [tt], budget=budget)[tt]


# -- trace format ----------------------------------------------------------------
#
# One line per move:  z:(a,b,c,d) removed={z,a,c} added={z,b,d} value=p/q

_TRACE_RE = re.compile(
    r"^(\d+):\((\d+),(\d+),(\d+),(\d+)\)"
    r" removed=\{(\d+),(\d+),(\d+)\}"
    r" added=\{(\d+),(\d+),(\d+)\}"
    r" value=(-?\d+(?:/\d+)?)$")


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
