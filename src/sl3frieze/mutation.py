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
Every move the kernel builds has five distinct points in cyclic order, so
``family_moves`` and the walk wrap its (z,a,b,c,d) tuples as
``MutationMove`` records without the record's checks; the exchange still
checks each move against its family.

One step, ``_exchange``, checks a move against a triangle set and a value
dict that its caller owns and then exchanges in place, in O(1). ``mutate``
runs it on copies, so a ``ValuedFamily`` is never changed; ``gen`` and
``mutate --replay`` run it on one set and one dict for the whole walk.
``fractions`` is imported only where a value that is not an int shows up
(``_check_entries``, an exchange that does not divide exactly, a p/q trace
value), and the trace pattern is compiled on first use, so a walk from the
unit specialization and its trace load neither.

``family_moves`` and the breadth-first oracle build the masks of a whole
family. One walk, ``_walk``, keeps the masks, the triangles through each
point, and each point's sorted move list and move count current across its
steps, and re-enumerates only the five points a move touches. It draws the
index ``rng.choice(range(total))`` and finds the move from the counts:
``choice`` reads only the length and one item of its sequence, so the draw
is the one a choice from the joined, lexicographic move list makes, and the
walks are the same, seed for seed. ``seeded_walk`` yields its moves as
records, and each caller applies them to its own family;
``random_maximal_family`` toggles them in one triangle set. This module
loads neither ``stargraph`` nor the star index. The oracle at the
bottom of the module evaluates arbitrary Pluecker coordinates by
breadth-first search over moves. It keeps each reached family as one int,
a bitmask over the triangles it has met, and one table with one value per
triangle, against which every exchange it computes is checked: a value is
one Laurent polynomial in the start cluster, whatever the path. The label
contraction, which takes the border values of the star graph at x to the
frieze rows without a search, lives in ``frieze``.
"""

from __future__ import annotations

import random
import re

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

_INT = frozenset((int,))


def _check_entries(values, what: str) -> None:
    """Exact entries only: each of type int or Fraction, so a bool or a float
    is refused. ``fractions`` is imported only when an entry is not an int."""
    if _INT.issuperset(map(type, values)):
        return
    from fractions import Fraction

    exact = frozenset((int, Fraction))
    if not exact.issuperset(map(type, values)):
        bad = next(v for v in values if type(v) not in exact)
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

    @classmethod
    def _unchecked(cls, z: int, a: int, b: int, c: int, d: int) -> "MutationMove":
        """Record._unchecked with the five fields set by name, about twice as
        fast as its loop: the walk and family_moves build every move of the
        kernel this way."""
        self = object.__new__(cls)
        set_field = object.__setattr__
        set_field(self, "z", z)
        set_field(self, "a", a)
        set_field(self, "b", b)
        set_field(self, "c", c)
        set_field(self, "d", d)
        return self

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
    Five ints that divide exactly return before ``fractions`` is imported,
    and an inexact division of ints continues on the Fraction path.
    """
    num = v_zab * v_zcd + v_zad * v_zbc
    try:
        if type(v_zac) is type(v_zab) is type(v_zcd) is type(v_zad) is type(v_zbc) is int:
            q, r = divmod(num, v_zac)
            if not r:
                return q
        from fractions import Fraction

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


def _exchange(ground: GroundSet, triangles: set, values: dict, move: MutationMove) -> int | Fraction:
    """Apply one move in place to a triangle set and its value dict, owned by
    the caller, and return the value of the added triangle. The move is
    checked first, and nothing changes when a check fails: its points lie in
    1..n, its five required triangles are present, the added one is absent,
    and the exchanged value is nonzero (exchange_value checks the types, but
    signed values can exchange to zero). Then {z,a,c} leaves and {z,b,d}
    enters with that value, in O(1)."""
    for p in (move.z, move.a, move.b, move.c, move.d):
        if not ground.contains(p):
            raise InvalidInputError(f"move point {p!r} outside 1..{ground.n}")
    required = move.required()
    for t in required:
        if t not in triangles:
            raise InvalidMoveError(f"required triangle {t} missing from family")
    added = move.added
    if added in triangles:
        raise InvalidMoveError(f"{added} already present; family cannot be maximal weakly separated")
    zab, zbc, zcd, zda, zac = required
    value = exchange_value(values[zac], values[zab], values[zcd], values[zda], values[zbc])
    if value == 0:
        raise InvalidInputError(f"value of {added} must be nonzero")
    triangles.remove(zac)
    triangles.add(added)
    values[added] = value
    del values[zac]
    return value


def mutate(vf: ValuedFamily, move: MutationMove) -> ValuedFamily:
    """Apply one move, propagating the exchanged value, to copies of vf's
    triangles and values (see _exchange); vf is left as it is. A move keeps
    the family maximal weakly separated with every continuous triangle, so
    the result keeps the validated mark and is built unchecked."""
    fam = vf.family
    triangles, values = set(fam.triangles), dict(vf.values)
    _exchange(fam.ground, triangles, values, move)
    # the added triangle is an ascending triple of the move's points
    return ValuedFamily._unchecked(Family._unchecked(fam.ground, frozenset(triangles), True), values)


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
    naming {z,a,c}. Every move built is valid: z, a and c are the distinct
    points of a triangle, nb[z][a] has neither bit z nor bit a and nb[z][c]
    lacks bit c, so b and d differ from all three, and a < b < c with d
    outside [a, c] puts (a, b, c, d) in cyclic order."""
    moves = []
    for z, a, c in pivoted:
        row = nb[z]
        shared = row[a] & row[c]
        if not shared & (shared - 1):  # a move needs two common neighbours
            continue
        inner = shared & ((1 << c) - (2 << a))
        if not inner or inner == shared:  # one b inside [a,c] and one d outside
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
    """All valid moves of a family, lexicographically ordered by (z,a,b,c,d).

    The records are built without MutationMove's checks: the kernel builds
    only moves whose points are distinct and whose quadruple is cyclically
    ordered (see _moves), and mutate checks each move against its family."""
    unchecked = MutationMove._unchecked
    return [unchecked(*m) for m in _moves_of_triangles(fam.triangles, fam.ground.n)]


class _WalkState:
    """The state the walk keeps current across its moves: the neighbour masks
    nb of the family (see _toggle); per point z, the set of pivoted triangles
    (z, a, c) in ``around``, and the sorted list of moves at z in
    ``moves_at``, of length ``counts[z]``. The lists, joined in z order, are
    the lexicographic list of _moves_of_triangles."""

    __slots__ = ("nb", "around", "moves_at", "counts")

    def __init__(self, triangles, n: int):
        self.nb = nb = _masks(triangles, n)
        self.around = around = [set() for _ in range(n + 1)]
        for t in triangles:
            for pv in _pivoted(t):
                around[pv[0]].add(pv)
        self.moves_at = [sorted(_moves(nb, pivoted)) for pivoted in around]
        self.counts = list(map(len, self.moves_at))

    def apply(self, m: tuple) -> None:
        """Apply the move m = (z,a,b,c,d) of the current family: {z,a,c}
        leaves and {z,b,d} enters. A move changes only triangles through its
        five points, and the moves at a point read only that point's masks and
        pivoted triangles, so only the five points' move lists are enumerated
        again."""
        z, a, b, c, d = m
        nb, around, moves_at, counts = self.nb, self.around, self.moves_at, self.counts
        removed, added = _ascending(z, a, c), _ascending(z, b, d)
        _toggle(nb, removed)
        _toggle(nb, added)
        for pv in _pivoted(removed):
            around[pv[0]].remove(pv)
        for pv in _pivoted(added):
            around[pv[0]].add(pv)
        for p in m:
            ms = _moves(nb, around[p])
            ms.sort()
            moves_at[p], counts[p] = ms, len(ms)


def _walk(triangles, n: int, steps: int, seed: int):
    """Yield `steps` moves (z,a,b,c,d) from the family of the triangles over
    1..n, each drawn uniformly from the moves of the family the earlier moves
    lead to, and applied to the walk state.

    The draw is ``rng.choice(range(total))``, an index into the per-point
    lists joined in z order (total is the sum of the counts), and the move at
    that index is found from the counts; no joined list is built. CPython's
    ``choice`` reads only ``len(seq)`` and ``seq[i]``, so the range gives the
    index a choice from the joined list gives, and the walk draws the moves a
    walk drawing from that list draws, seed for seed."""
    rng = random.Random(seed)
    state = _WalkState(triangles, n)
    moves_at, counts = state.moves_at, state.counts
    for _ in range(steps):
        i = rng.choice(range(sum(counts)))
        z = 0
        while i >= counts[z]:
            i -= counts[z]
            z += 1
        m = moves_at[z][i]
        state.apply(m)
        yield m


def seeded_walk(fam: Family, steps: int, seed: int):
    """Yield `steps` MutationMoves from fam, each drawn uniformly from the
    moves of the family the earlier moves lead to; deterministic per seed.

    The walk keeps the move list of every point across its steps and
    enumerates again only the lists of the five points a move touches (see
    _walk). Its moves are the kernel's, wrapped as records without
    MutationMove's checks, as family_moves wraps them."""
    unchecked = MutationMove._unchecked
    for m in _walk(fam.triangles, fam.ground.n, steps, seed):
        yield unchecked(*m)


def random_maximal_family(ground: GroundSet, steps: int, seed: int) -> Family:
    """A maximal family obtained from the canonical family by `steps`
    uniformly chosen moves; deterministic per seed, and the family that
    seeded_walk from the canonical family reaches. The walk's moves toggle
    the removed and added triangles in one set, with no record built, and
    the family is built once: every move of the walk applies and keeps the
    family weakly separated."""
    if isinstance(steps, bool) or not isinstance(steps, int):
        raise InvalidInputError(f"steps must be an int, got {steps!r}")
    if steps < 0:
        raise InvalidInputError("steps must be >= 0")
    if not isinstance(ground, GroundSet):
        raise InvalidInputError(f"ground must be a GroundSet, got {ground!r}")
    fam = canonical_family(ground.n)
    triangles = set(fam.triangles)
    for z, a, b, c, d in _walk(fam.triangles, ground.n, steps, seed):
        triangles.remove(_ascending(z, a, c))
        triangles.add(_ascending(z, b, d))
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
    until every target has been seen in some reached family. Values are ints
    or Fractions, as exchange_value gives them: all ints from the unit
    specialization.

    A reached family is one int key: bit i stands for the i-th triangle the
    search meets, the start family's in lexicographic order and then each
    triangle a move adds, when that move is first met. A move's child has the
    key ``key ^ delta``, with delta the bits of the removed and the added
    triangle; the five triangles of the exchange and the delta are kept per
    move tuple, so each move is read once per search. Each family is expanded
    by decoding its key to its triangles and enumerating their moves with
    ``_moves_of_triangles``, in lexicographic order.

    One table holds one value per triangle ever reached: the start family's
    values, then the first value derived for each triangle. A triangle's value
    is one Laurent polynomial in the start cluster, whatever the path, so
    every exchange, of a child reached before too, is computed from the table
    and compared with the table's value of the triangle it adds; a mismatch is
    an InternalConsistencyError naming the triangle and both values. This
    implies the check of a family reached twice: its values are those of the
    exchanges along each path, and each was compared with the one table. It
    also compares a target found twice, and a triangle derived twice that no
    family revisit meets.

    The budget caps the families expanded and must be an int, at least 0. The
    visited set holds at most 1 + budget * (most moves of a family) keys, and
    a key has one bit per triangle met, so the memory is linear in the budget.
    """
    if isinstance(budget, bool) or not isinstance(budget, int):
        raise InvalidInputError(f"oracle budget must be an int, got {budget!r}")
    if budget < 0:
        raise InvalidInputError(f"oracle budget must be >= 0, got {budget}")
    n = vf.family.ground.n
    wanted = _target_triangles(vf.family.ground, targets)

    values = dict(vf.values)
    found = {t: values[t] for t in wanted if t in values}
    if len(found) == len(wanted):
        return found

    met = sorted(values)  # bit i of a key is the triangle met[i]
    bit = {t: 1 << i for i, t in enumerate(met)}
    exchanges = {}  # move tuple -> its five triangles, the added one and the key delta
    start = (1 << len(met)) - 1
    visited = {start}
    level = [start]
    expanded = 0
    while level:
        next_level = []
        for key in level:
            expanded += 1
            if expanded > budget:
                missing = sorted(wanted - set(found))
                raise BudgetExceededError(budget, expanded - 1,
                                          f"targets not reached: {missing}")
            triangles = []
            rest = key
            while rest:
                low = rest & -rest
                triangles.append(met[low.bit_length() - 1])
                rest ^= low
            for m in _moves_of_triangles(triangles, n):
                ex = exchanges.get(m)
                if ex is None:
                    z, a, b, c, d = m
                    zac, added = _ascending(z, a, c), _ascending(z, b, d)
                    if added not in bit:
                        bit[added] = 1 << len(met)
                        met.append(added)
                    ex = exchanges[m] = (zac, _ascending(z, a, b), _ascending(z, c, d), _ascending(z, d, a),
                                         _ascending(z, b, c), added, bit[zac] | bit[added])
                zac, zab, zcd, zad, zbc, added, delta = ex
                value = exchange_value(values[zac], values[zab], values[zcd], values[zad], values[zbc])
                known = values.setdefault(added, value)
                if known != value:
                    raise InternalConsistencyError(f"path-dependent value for {added}: {known} vs {value}")
                child = key ^ delta
                if child in visited:
                    continue
                visited.add(child)
                if added in wanted and added not in found:
                    found[added] = value
                    if len(found) == len(wanted):
                        return found
                next_level.append(child)
        level = next_level
    missing = sorted(wanted - set(found))
    raise BudgetExceededError(budget, expanded, f"search space exhausted, targets not reached: {missing}")


# -- trace format ----------------------------------------------------------------
#
# One line per move:  z:(a,b,c,d) removed={z,a,c} added={z,b,d} value=p/q

# compiled on first use, by re's own cache: gen writes lines and never reads one
_TRACE_PATTERN = (  # [0-9], not \d, which matches any Unicode digit
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
    removed/added sets inconsistent with the move points. A value without a
    "/" is read by int, and only a p/q value imports ``fractions``."""
    m = re.match(_TRACE_PATTERN, line.strip())
    if not m:
        raise InvalidInputError(f"malformed trace line: {line!r}")
    try:
        z, a, b, c, d = (int(m.group(i)) for i in range(1, 6))
        removed = tuple(sorted(int(m.group(i)) for i in range(6, 9)))
        added = tuple(sorted(int(m.group(i)) for i in range(9, 12)))
        text = m.group(12)
        if "/" in text:
            from fractions import Fraction

            value = Fraction(text)
            if value.denominator == 1:
                value = value.numerator
        else:
            value = int(text)
    except ZeroDivisionError:
        raise InvalidInputError(f"zero denominator in trace value: {line!r}") from None
    except ValueError as e:  # a number past Python's int string-conversion limit
        raise InvalidInputError(f"bad number in trace line: {e}") from None
    move = MutationMove(z, a, b, c, d)
    if move.removed != removed or move.added != added:
        raise InvalidInputError(f"trace line inconsistent with its move: {line!r}")
    return move, value
