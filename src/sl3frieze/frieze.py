"""Friezes from unit-specialized families: quiddity rows, Gale vectors and
their minors, diamond validation and rendering.

Row/position conventions used throughout: the grid stores D_k(i), the value of
the triangle {i, i+1, i+k+2} (indices mod n), for k = 1..w and i = 1..n, with
w = n - 4. Row 1 is printed first; each later row shifts half a cell to the
right, and three border rows (1, 0, 0) frame the grid above and below.
U_k(i), the value of {i, i+k+1, i+k+2}, names the same array from the other
end: U_k(i) = D_{n-3-k}(i+k+1). One generator, _lower_rows, runs the
paper's lower row recursion from D_1 and U_1, two products per entry, and
decides the frieze: the rows are consistent exactly when the recursion runs
into the bottom border 1, 0, 0 after row w (its border lemma), which is the
closure of the Gale vectors, and every entry is then the Gale minor
D_k(i) = det(v_i, v_{i+1}, v_{i+k+2}). extend_rows builds the grid from it,
and its witness runs it on the reflected rows, which gives the upper
recursion; validate_frieze compares a grid and its border with it. The
vectors themselves are built only where arbitrary triples need them:
minor_values gives the value of any triangle, in the grid or not, as a
minor.

_certified_rows ties the rows to the family: every family triangle has
minor 1 (certificate part (b)). The frieze command builds its grid from rows
that passed it and reached the border in extend_rows (part (a)); such a grid
is SL3 and tame by validate_frieze's proof, so the command reads its summary
off the grid without checking the diamonds again.

The contraction runs on one ``family.star_index`` of the family, the star
graph of every point as neighbour bitmasks: ``stargraph._classify`` gives each
star's triangulation points and leaves, the contraction walks each point's
border sequence in place, and one bit of the index answers each border
triangle. It re-derives nothing that ``ValuedFamily`` checked.

One writer, ``dump_frieze``, gives both the frieze file and the output of
``frieze --format json`` (with its validation block): the bytes of
json.dumps(payload, indent=2), laid out as strings, one join per row, instead
of through the pure-Python encoder that indent=2 selects. ``load_frieze``
turns an entry without "/" into an int, with no Fraction per entry, and
``render_frieze`` formats each entry once. README gives their timings.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .cyclic import MAX_N, Record
from .errors import (
    InconsistentRowsError,
    InternalConsistencyError,
    InvalidInputError,
    MalformedFileError,
    PreconditionError,
)
from .family import star_index
from .mutation import ValuedFamily, _check_entries, _target_triangles
from .stargraph import _classify, _require_endpoints, _require_star

FRIEZE_SCHEMA_VERSION = 1

# a frieze entry in a file: a JSON integer, or a string as format_rational writes it
_ENTRY_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _tuple(seq, what: str) -> tuple:
    """seq as a tuple; anything but a tuple or a list is an InvalidInputError."""
    if not isinstance(seq, (tuple, list)):
        raise InvalidInputError(f"{what} must be a tuple or a list, got {type(seq).__name__}")
    return tuple(seq)


def _period(n) -> int:
    """n, if it is an int; a float, None or a bool is an InvalidInputError,
    before n is compared with anything."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise InvalidInputError(f"frieze period must be an integer, got {n!r}")
    return n


class QuiddityRows(Record):
    """The two directly computed rows: delta_low[i-1] = v({i,i+1,i+3}) and
    delta_high[i-1] = v({i,i+2,i+3}). Entries are ints or Fractions; each row
    is a tuple or a list, stored as a tuple."""

    __slots__ = ("n", "delta_low", "delta_high")

    def __init__(self, n: int, delta_low: tuple, delta_high: tuple):
        object.__setattr__(self, "n", _period(n))
        object.__setattr__(self, "delta_low", _tuple(delta_low, "a quiddity row"))
        object.__setattr__(self, "delta_high", _tuple(delta_high, "a quiddity row"))
        if self.n > MAX_N:
            raise InvalidInputError(f"frieze period needs n <= {MAX_N}, got {self.n}")
        if len(self.delta_low) != self.n or len(self.delta_high) != self.n:
            raise InvalidInputError("quiddity rows must have one entry per point")
        _check_entries(self.delta_low + self.delta_high, "quiddity")
        if any(v == 0 for v in self.delta_low + self.delta_high):
            raise InvalidInputError("quiddity entries must be nonzero")


class FriezeGrid(Record):
    """Fundamental region of a frieze: rows[k-1][i-1] = D_k(i), horizontal
    period n, width w = n - 4 >= 1. The rows, and each row, are tuples or
    lists, stored as tuples."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: tuple):
        object.__setattr__(self, "n", _period(n))
        object.__setattr__(self, "rows", tuple(_tuple(r, "a frieze row") for r in _tuple(rows, "frieze rows")))
        if len(self.rows) < 1 or self.n != len(self.rows) + 4:
            raise InvalidInputError(
                f"period must exceed width by 4: n={self.n}, width={len(self.rows)}")
        if self.n > MAX_N:
            raise InvalidInputError(f"frieze period needs n <= {MAX_N}, got {self.n}")
        for row in self.rows:
            if len(row) != self.n:
                raise InvalidInputError("every row must have one entry per point")
            _check_entries(row, "frieze")

    @property
    def width(self) -> int:
        return len(self.rows)

    def entry(self, k: int, i: int) -> int | Fraction:
        return self.rows[k - 1][(i - 1) % self.n]


# -- Algorithm: almost continuous values at x ----------------------------------

def _missing_border(p: int, a: int, b: int):
    """Raise the error for a border triangle {p,a,b} missing from the family."""
    raise InternalConsistencyError(f"border triangle {tuple(sorted((p, a, b)))} unexpectedly missing from family")


def _contract(x: int, n: int, star: dict, index: dict, values: dict | None = None):
    """(label at x-1, label at x+1) after contracting the star graph at x,
    given by its neighbour masks `star` (left unchanged). `index` is the
    family's star_index, and `values` maps every triangle of the family to its
    value, or is None when every value is 1.

    On a copy of the masks: initialize each triangulation point p's label
    with the sum of the values over its border sequence, the previous point,
    p's leaves and the next point in <_x order (stargraph._classify), walked
    in place; each border triangle {p,a,b} is found by one bit of
    index[p][a], and p's leaves are removed with one write to its mask. x+1
    (x-1) has no previous (next) point, and gets a label only when x+2 (x-2)
    is a leaf, which stays pinned, since the edges {x+1,x+2} and {x-2,x-1}
    are frozen. Then repeatedly contract the first degree-2 point in <_x
    order, adding labels, until only the three frozen edges remain. Degrees
    only fall, and a contraction changes only its point's neighbours, so one
    forward scan over the interior triangulation points finds each next
    point, stepping back only to a neighbour that has just reached degree 2.
    Labels are counted as ints when every value is 1, and summed in the
    values' own type otherwise; triangulation points not running from x+1
    to x-1, a missing border triangle, a missing label or a stuck
    contraction is an InternalConsistencyError.
    """
    xp, xm = x % n + 1, (x - 2) % n + 1
    xp2, xm2 = xp % n + 1, (xm - 2) % n + 1

    tp, leaves_at = _classify(x, star)
    if not tp or tp[0] != xp or tp[-1] != xm:
        _require_endpoints(x, n, tuple(tp))  # raises, naming the points
    last = len(tp) - 1
    adj = dict(star)
    labels = {}
    for i, p in enumerate(tp):
        pinned = xp2 if i == 0 else xm2 if i == last else None
        if pinned is not None and star.get(pinned, 0).bit_count() != 1:
            continue
        # the border sequence: the previous point (none at x+1), the leaves,
        # the next point (none at x-1); a is the element before b
        row = index[p]
        a = tp[i - 1] if i else None
        label, drop = 0, 0
        for b in leaves_at.get(p, ()):
            if a is not None:
                if not row.get(a, 0) >> b & 1:
                    _missing_border(p, a, b)
                label += 1 if values is None else values[tuple(sorted((p, a, b)))]
            if b != pinned:
                drop |= 1 << b
                del adj[b]
            a = b
        if i < last and a is not None:
            b = tp[i + 1]
            if not row.get(a, 0) >> b & 1:
                _missing_border(p, a, b)
            label += 1 if values is None else values[tuple(sorted((p, a, b)))]
        labels[p] = label
        adj[p] ^= drop

    inner = tp[1:-1]
    i = 0  # no interior point before inner[i] has degree 2
    edge_count = sum(map(int.bit_count, adj.values())) // 2
    while edge_count > 3:
        while i < len(inner) and adj.get(inner[i], 0).bit_count() != 2:
            i += 1
        if i == len(inner):
            raise InternalConsistencyError(
                f"no contractible degree-2 point left with {edge_count} edges at x={x}")
        p = inner[i]
        label = labels.pop(p)
        if p == xp2 or p == xm2:
            # The frozen edge to x+1 (resp. x-1) stays; p becomes that point's
            # pinned leaf and hands its label over.
            anchor = xp if p == xp2 else xm
            if not adj[p] >> anchor & 1:  # only a family without {x,x+1,x+2} (or {x-2,x-1,x})
                raise InternalConsistencyError(
                    f"frozen edge {tuple(sorted((anchor, p)))} missing during contraction at x={x}")
            other = (adj[p] ^ 1 << anchor).bit_length() - 1
            labels[anchor] = label
            adj[p] ^= 1 << other
            adj[other] ^= 1 << p
            edge_count -= 1
            touched = (other,)
        else:
            mask = adj.pop(p)
            u, v = touched = ((mask & -mask).bit_length() - 1, mask.bit_length() - 1)
            adj[u] ^= 1 << p
            adj[v] ^= 1 << p
            edge_count -= 2
        for q in touched:
            if q not in labels:
                raise InternalConsistencyError(f"missing label at {q} during contraction at x={x}")
            labels[q] += label
            # a neighbour before inner[i] that now has degree 2 comes next;
            # having degree 2, it is an interior triangulation point
            if q != xp and q != xm and (q - x) % n < (inner[i] - x) % n and adj[q].bit_count() == 2:
                while inner[i] != q:
                    i -= 1

    if xm not in labels or xp not in labels:
        raise InternalConsistencyError(f"contraction finished without labels at x+-1 (x={x})")
    return labels[xm], labels[xp]


def almost_continuous_at(vf: ValuedFamily, x: int):
    """(v({x-2,x-1,x+1}), v({x-1,x+1,x+2})) for a family whose triangles
    through x all have value 1, by contracting the star graph at x, with the
    values of the family's other triangles summed as given. No command calls
    it; it stays as the paper's general contraction, of which quiddity_rows
    is the all-ones case."""
    fam = vf.family
    _require_star(fam, x)  # first, so that True or 1.0 is not read as point 1
    for t in fam.triangles:
        if x in t and vf.values[t] != 1:
            raise PreconditionError(f"triangles through x={x} must all have value 1, {t} has {vf.values[t]}")
    index = star_index(fam.triangles)
    return _contract(x, fam.ground.n, index.get(x, {}), index, vf.values)


def quiddity_rows(vf: ValuedFamily) -> QuiddityRows:
    """Run the contraction at every x of a family specialized to 1; the value
    of {i,i+1,i+3} lands at delta_low[i], the value of {i,i+2,i+3} at
    delta_high[i]. Every star comes straight off one star_index of the
    family, which also answers each border triangle by one bit, and the
    labels are counted, and kept, as plain ints. The family is maximal, as
    ValuedFamily checked it, and its triangles are ascending triples of
    points of 1..n, as Family holds them."""
    if any(v != 1 for v in vf.values.values()):
        raise PreconditionError("quiddity rows need the all-ones specialization")
    fam = vf.family
    n = fam.ground.n
    index = star_index(fam.triangles)
    low, high = [0] * n, [0] * n
    for x in fam.ground.points():
        # wrap(x - 2) and wrap(x - 1), as 0-based positions
        low[(x - 3) % n], high[(x - 2) % n] = _contract(x, n, index.get(x, {}), index)
    return QuiddityRows(n, tuple(low), tuple(high))


# -- Gale vectors and minors ----------------------------------------------------

def gale_vectors(low, high):
    """Yield the Gale vectors v_1..v_{n+3} of the rows D_1 = low and
    U_1 = high: v_1, v_2, v_3 = e_1, e_2, e_3 and
    v_{i+3} = D_1(i) v_{i+2} - U_1(i) v_{i+1} + v_i. Every step keeps
    det(v_j, v_{j+1}, v_{j+2}) = 1; the vectors close up (certificate part
    (a)) when v_{n+1..n+3} = v_{1..3}, which _lower_rows decides by its
    border rows without them. Part (b) reads v_1..v_n (_certified_rows).
    Each step multiplies by an entry, so the coordinates grow with j.
    Entries keep the type the arithmetic gives."""
    x, y, z = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    yield from (x, y, z)
    for a, b in zip(low, high):
        x, y, z = y, z, (a * z[0] - b * y[0] + x[0], a * z[1] - b * y[1] + x[1], a * z[2] - b * y[2] + x[2])
        yield z


def _lower_rows(low, high):
    """Yield the rows D_2..D_{n-1}, each a list over i = 1..n, of the paper's
    lower row recursion from D_1 = low and U_1 = high:

        D_k(i) = D_1(i+k-1) D_{k-1}(i) - U_1(i+k-1) D_{k-2}(i) + D_{k-3}(i)

    with D_{-1} = 0 and D_0 = 1: two products per entry. The coefficients of
    row k are the doubled rows sliced at k - 1, so no row is rotated. Each
    row reads D_1, U_1 and the three rows before it only. Rows 1..w, w = n - 4,
    are the grid; rows w+1..w+3 are where the bottom border 1, 0, 0 must be.

    Border lemma. Continue the Gale vectors of low and high (gale_vectors) to
    every j and put w_i = v_i x v_{i+1}. Dotting
    v_{i+k+2} = D_1(i+k-1) v_{i+k+1} - U_1(i+k-1) v_{i+k} + v_{i+k-1} with
    w_i gives the recursion, and w_i . v_{i+2} = 1, w_i . v_{i+1} =
    w_i . v_i = 0 give its start; so D_k(i) = w_i . v_{i+k+2} for every
    k >= -2. Then D_{w+1}(i+1) = w_{i+1} . v_{i+n}, D_{w+2}(i) = w_i . v_{i+n}
    and D_{w+3}(i-1) = w_{i-1} . v_{i+n}, while w_{i+1} . v_i = 1 and
    w_i . v_i = w_{i-1} . v_i = 0. So the values 1, 0, 0 there say that
    v_{i+n} - v_i is orthogonal to w_{i-1}, w_i and w_{i+1}, which are a
    basis; that is v_{i+n} = v_i, for every i, as each row is n-periodic in
    i like its coefficients. Rows w+1..w+3 are the border exactly when
    the vectors close up (certificate part (a)), the converse being
    immediate, and then each row is the row of minors
    det(v_i, v_{i+1}, v_{i+k+2}) with every index taken mod n. No step
    divides, and no entry needs to be nonzero. This is the three-term
    difference equation of the Gale transform (Morier-Genoud, Ovsienko,
    Schwartz and Tabachnikov, "Linear difference equations, frieze patterns
    and the combinatorial Gale transform", 2014); for the border, see
    Bergeron and Reutenauer, "SL_k-tilings of the plane", 2010."""
    n = len(low)
    d3, d2, d1 = [0] * n, [1] * n, low  # D_{k-3}, D_{k-2}, D_{k-1}
    low, high = low * 2, high * 2
    for s in range(1, n - 1):
        d3, d2, d1 = d2, d1, [a * x - b * y + z for a, b, x, y, z in zip(low[s:], high[s:], d1, d2, d3)]
        yield d1


def extend_rows(q: QuiddityRows) -> FriezeGrid:
    """Fill the whole fundamental region from the two computed rows.

    The grid is rows 1..w of the lower row recursion from D_1 and U_1
    (_lower_rows, the rows validate_frieze checks a grid against), two
    products per entry. The rows are consistent iff the recursion runs into
    the bottom border 1, 0, 0 at rows w+1..w+3, which by _lower_rows' border
    lemma is the closure of the Gale vectors (certificate part (a)).

    Otherwise InconsistentRowsError names the first (k, i), k-major, where
    the upper recursion, building U_2.. from U_1 and D_1, disagrees with the
    lower one about U_k(i) = D_{n-3-k}(i+k+1). The upper recursion is the
    same generator run on the reflected rows: p -> 5 - p (mod n) sends the
    triangle of U_k(i) to that of D_k(3-i-k), so the rows D_1'(j) = U_1(2-j)
    and U_1'(j) = D_1(2-j) give U_k(i) = D_k'(3-i-k). The scan runs through
    the border, k <= n - 1, where D_{n-3-k} is D_0, D_{-1}, D_{-2} = 1, 0, 0.
    Reflection keeps closure (the reflected recursion gives the minors
    U_k(i) = w_{i+k+1} . v_i, and its border says w_{j+n} = w_j, the same
    condition on the vectors), so the reflected recursion misses its border
    as well, and some k disagrees. The first one has always lain at k <= w,
    where both sides are grid entries: the entrywise reference in the tests
    scans only there and names the same (k, i). No step divides, so each
    entry has the type the arithmetic gives: int rows give an int grid, and
    Fractions appear only where the input has them.
    """
    n = q.n
    if n < 6:
        raise InvalidInputError(f"need n >= 6, got n={n}")
    w = n - 4
    low, high = q.delta_low, q.delta_high
    rows = [list(low), *_lower_rows(low, high)]
    if rows[w:] != [[1] * n, [0] * n, [0] * n]:
        up_low, up_high = high[:1] + high[:0:-1], low[:1] + low[:0:-1]
        up = [list(up_low), *_lower_rows(up_low, up_high)]  # D_1'..D_{n-1}'
        lower = [[0] * n, [0] * n, [1] * n, *rows[:w]]  # D_{-2}..D_w
        # U_k(i+1) and D_{n-3-k}(i+k+2): 0-based i stands for point i + 1
        pairs = ((k, i, up[k - 1][(1 - i - k) % n], lower[n - 1 - k][(i + k + 1) % n])
                 for k in range(1, n) for i in range(n))
        k, i, upper, below = next(p for p in pairs if p[2] != p[3])
        raise InconsistentRowsError(f"row recursions disagree at U_{k}({i + 1}): {upper} vs {below}")
    # QuiddityRows checked n and the entry types, and +, - and x keep them
    return FriezeGrid._unchecked(n, tuple(map(tuple, rows[:w])))


def _minor(vs, t):
    """det(v_a, v_b, v_c) for the triangle t = (a, b, c), vs[j] = v_j."""
    (u0, u1, u2), (v0, v1, v2), (w0, w1, w2) = (vs[p] for p in t)
    return u0 * (v1 * w2 - v2 * w1) - u1 * (v0 * w2 - v2 * w0) + u2 * (v0 * w1 - v1 * w0)


def _certified_rows(vf: ValuedFamily):
    """(quiddity_rows(vf), vs) with vs[j] = v_j, j = 1..n+3, their Gale
    vectors (vs[0] is None), after certificate part (b): every triangle of
    the family has minor 1. The first that does not, in lex order, is an
    InternalConsistencyError naming it: the contraction gave wrong rows, or
    the rows of another cluster. Part (b) reads v_1..v_n only; the closure,
    part (a), is extend_rows' check."""
    q = quiddity_rows(vf)
    vs = (None, *gale_vectors(q.delta_low, q.delta_high))
    for t in sorted(vf.family.triangles):
        det = _minor(vs, t)
        if det != 1:
            raise InternalConsistencyError(
                f"certificate part (b) fails: family triangle {t} has minor {det}, not 1")
    return q, vs


def minor_values(vf: ValuedFamily, targets) -> dict:
    """Values of the given triangles under the unit specialization, as
    mutation.oracle_values gives them, at any n: {a,b,c} -> det(v_a, v_b, v_c),
    a < b < c, of the Gale vectors of quiddity_rows(vf). Targets are checked
    as oracle_values checks them. The cost is the contraction, plus O(n)
    and O(1) per target.

    First comes certificate part (b) (_certified_rows): every triangle of
    the family has minor 1, or an InternalConsistencyError names the first
    that does not.

    Why (b) pins every minor. q(i, j) = det(v_z, v_i, v_j) is the 2 x 2
    minor of the images of v_i and v_j in R^3 / <v_z>, so
    q(a,c) q(b,d) = q(a,b) q(c,d) + q(a,d) q(b,c). For a < b < c < d (a
    rotation of a move's quadruple, which leaves its relation unchanged)
    q(i, j) is the ascending minor with the sign -1 exactly when z lies
    between i and j, and wherever z lies the three products carry one sign.
    So the ascending minors obey the exchange of every move. Along moves
    from the family, each minor then equals the value the exchange gives,
    by induction, as long as the pivots v(zac) are nonzero; from the unit
    specialization every value is a positive integer. Moves connect all
    maximal weakly separated families (Oh, Postnikov and Speyer, "Weak
    separation and plabic graphs", 2015), and every triangle lies in one,
    so each minor is the value of its triangle. The closure of the vectors,
    part (a), is not needed for this.
    """
    wanted = _target_triangles(vf.family.ground, targets)
    _, vs = _certified_rows(vf)
    return {t: _minor(vs, t) for t in wanted}


# -- diamond validation -----------------------------------------------------------

class FriezeReport(Record):
    __slots__ = ("n", "width", "is_sl3", "is_tame", "integral", "positive", "sl3_failures", "tame_failures")
    __hash__ = None  # it holds lists

    def __init__(self, n: int, width: int, is_sl3: bool, is_tame: bool, integral: bool, positive: bool,
                 sl3_failures: list, tame_failures: list):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "is_sl3", is_sl3)
        object.__setattr__(self, "is_tame", is_tame)
        object.__setattr__(self, "integral", integral)
        object.__setattr__(self, "positive", positive)
        object.__setattr__(self, "sl3_failures", sl3_failures)  # (row, period index, determinant)
        object.__setattr__(self, "tame_failures", tame_failures)

    @property
    def ok(self) -> bool:
        return self.is_sl3 and self.is_tame


def _det3(ext, r: int, t: int):
    """Determinant of the 3x3 diamond at (r, t) of the padded bordered array,
    by cofactor expansion."""
    a, b, c, d, e = ext[r - 2:r + 3]
    m00, m01, m02 = c[t], b[t + 1], a[t + 2]
    m10, m11, m12 = d[t], c[t + 1], b[t + 2]
    m20, m21, m22 = e[t], d[t + 1], c[t + 2]
    return (m00 * (m11 * m22 - m12 * m21) - m01 * (m10 * m22 - m12 * m20)
            + m02 * (m10 * m21 - m11 * m20))


def _det4(ext, r: int, t: int):
    """Determinant of the 4x4 diamond at (r, t) of the padded bordered array,
    by Laplace expansion over the top two rows."""
    p0, p1, p2, p3, p4, p5, p6 = ext[r - 3:r + 4]
    t1, t2, t3 = t + 1, t + 2, t + 3
    m00, m01, m02, m03 = p3[t], p2[t1], p1[t2], p0[t3]
    m10, m11, m12, m13 = p4[t], p3[t1], p2[t2], p1[t3]
    m20, m21, m22, m23 = p5[t], p4[t1], p3[t2], p2[t3]
    m30, m31, m32, m33 = p6[t], p5[t1], p4[t2], p3[t3]
    return ((m00 * m11 - m01 * m10) * (m22 * m33 - m23 * m32)
            - (m00 * m12 - m02 * m10) * (m21 * m33 - m23 * m31)
            + (m00 * m13 - m03 * m10) * (m21 * m32 - m22 * m31)
            + (m01 * m12 - m02 * m11) * (m20 * m33 - m23 * m30)
            - (m01 * m13 - m03 * m11) * (m20 * m32 - m22 * m30)
            + (m02 * m13 - m03 * m12) * (m20 * m31 - m21 * m30))


def _gale_certified(grid: FriezeGrid) -> bool:
    """Certificate parts (c) and (a) on the grid: rows 2..w, and then the
    bottom border 1, 0, 0, equal the rows _lower_rows gives from the grid's
    own D_1 and U_1(i) = D_w(i+2), compared row by row up to the first that
    differs. O(n w) products, two per entry, and no Gale vector. By
    _lower_rows' border lemma the border rows say that the vectors of D_1
    and U_1 close up, and the generated rows are then the minors
    det(v_i, v_{i+1}, v_{i+k+2}), every index taken mod n; so this accepts
    exactly the grids whose entries are the minors of closed vectors. Row w
    is compared too: with the vectors closed it equals U_1 shifted, but
    skipping it would need that glide argument in the proof.

    Each generated row is computed from D_1, U_1 and three rows that
    matched, so no number grows much past the digits of the grid's
    entries."""
    rows, n = grid.rows, grid.n
    low, high = rows[0], rows[-1][2:] + rows[-1][:2]
    expected = (*rows[1:], (1,) * n, (0,) * n, (0,) * n)
    return all(list(row) == generated for row, generated in zip(expected, _lower_rows(low, high)))


def _diamond_failures(grid: FriezeGrid):
    """(sl3_failures, tame_failures) of every diamond over one period, by
    Dodgson condensation; see validate_frieze."""
    w = grid.width
    n = grid.n
    # the bordered array (0, 0, 1, rows..., 1, 0, 0); each row carries its
    # first three entries again at the end, so t + j needs no reduction mod n
    padded = [[*row, *row[:3]] for row in grid.rows]
    zeros, ones = [0] * (n + 3), [1] * (n + 3)
    ext = [zeros, zeros, ones] + padded + [ones, zeros, zeros]

    # m2[r][t] = M2(r, t) for r = 1..w+4, t = 0..n+1 (row 0 and row w+5 unused)
    m2 = [None] + [[a * b - c * d for a, b, c, d in zip(ext[r], ext[r][1:], ext[r - 1][1:], ext[r + 1])]
                   for r in range(1, w + 5)]

    sl3_failures = []
    # is_one[r][t]: the 3x3 diamond at (r, t) has determinant 1; index n
    # repeats index 0
    is_one = {}
    for r in range(2, w + 4):
        above, row, below, centre = m2[r - 1], m2[r], m2[r + 1], ext[r]
        flags = [c != 0 and p * q - u * v == c
                 for p, q, u, v, c in zip(row[:n], row[1:], above[1:], below, centre[1:])]
        if not all(flags):
            for t in range(n):
                if not flags[t]:
                    det = _det3(ext, r, t)
                    if det == 1:
                        flags[t] = True
                    else:
                        sl3_failures.append((r, t, Fraction(det)))
        flags.append(flags[0])
        is_one[r] = flags

    tame_failures = []
    for r in range(3, w + 3):
        above, row, below, centre = is_one[r - 1], is_one[r], is_one[r + 1], m2[r]
        is_zero = [p and q and u and v and c != 0
                   for p, q, u, v, c in zip(row, row[1:], above[1:], below, centre[1:])]
        if not all(is_zero):
            for t in range(n):
                if not is_zero[t]:
                    det = _det4(ext, r, t)
                    if det != 0:
                        tame_failures.append((r, t, Fraction(det)))
    return sl3_failures, tame_failures


def _integral_and_positive(rows):
    """(integral, positive) of a grid's rows: every entry has denominator 1,
    and every entry is positive. Each row's entry types are read once, and
    denominators only in rows that hold a Fraction."""
    integral = all(e.denominator == 1 for row in rows if Fraction in set(map(type, row)) for e in row)
    return integral, min(map(min, rows)) > 0


def validate_frieze(grid: FriezeGrid) -> FriezeReport:
    """Check determinant 1 on every 3x3 diamond and determinant 0 on every 4x4
    diamond of the bordered array over one period; diamonds crossing the
    period seam are included, which is what ties the rows together mod n.

    The k x k diamond at bordered row r, period index t has entry [i][j] at
    row r+i-j, period index t+j; e(r, t) is an entry of the bordered array.

    First the Gale certificate, parts (c) and (a) (_gale_certified): every
    row, and then the bottom border 1, 0, 0, is the row the lower recursion
    gives from the grid's D_1 and U_1(i) = D_w(i+2). By the border lemma
    (_lower_rows) the border rows say that the vectors v_j of
    gale_vectors(D_1, U_1) close up, and then every entry is
    D_k(i) = w_i . v_{i+k+2} with w_i = v_i x v_{i+1}, indices mod n. That
    accepts the grid in O(n w) products, with no vector built, for this
    reason. By (a), v_{j+n} = v_j, every step of the recursion
    holds at every j, and det(v_j, v_{j+1}, v_{j+2}) = 1; so the
    border rows are the same minors too (D_0 = D_{w+1} = 1 as consecutive
    triples, D_{-1} = D_{-2} = D_{w+2} = D_{w+3} = 0 as repeated vectors), and
    e(r, t) = w_{t+1} . v_{t+r+1} on the whole bordered array. The k x k
    diamond at (r, t) is then the product of the k rows v_a, ..., v_{a+k-1}
    (a = t+r+1) and the k columns w_b, ..., w_{b+k-1} (b = t+1):
      - a 3x3 diamond is det(v_a, v_{a+1}, v_{a+2}) det(w_b, w_{b+1}, w_{b+2})
        = 1 . 1, since w_{b+2} = v_{b+2} x v_b + U_1(b) w_{b+1} by the
        recursion, and (w_b, w_{b+1}, v_{b+2} x v_b) is a cyclic reordering
        of the cofactor matrix of (v_b, v_{b+1}, v_{b+2}), whose determinant
        is 1^2;
      - a 4x4 diamond has rank at most 3, so it is 0.
    The report then has empty failure lists.

    Every other grid goes through the witness path, Dodgson condensation (the
    Desnanot-Jacobi identity) over one table of 2x2 minors
    M2(r, t) = e(r,t) e(r,t+1) - e(r-1,t+1) e(r+1,t):

        det3(r,t) e(r,t+1)  = M2(r,t) M2(r,t+1) - M2(r-1,t+1) M2(r+1,t)
        det4(r,t) M2(r,t+1) = det3(r,t) det3(r,t+1) - det3(r-1,t+1) det3(r+1,t)

    So a 3x3 diamond is 1 when its centre e(r,t+1) is nonzero and the right
    side equals it, and a 4x4 diamond is 0 when its four 3x3 corner diamonds
    are 1 and its centre minor M2(r,t+1) is nonzero. Any other diamond, a zero
    centre or a witness, is expanded in full (cofactors for 3x3, Laplace over
    the top two rows for 4x4), so failures carry their true determinants. No
    step of either path divides, so the entries are used as they are (an int
    grid is checked in plain ints); failures list (r, t, det) with det a
    Fraction. integral and positive are read off the entries.
    """
    sl3_failures, tame_failures = ([], []) if _gale_certified(grid) else _diamond_failures(grid)
    integral, positive = _integral_and_positive(grid.rows)
    return FriezeReport(
        n=grid.n,
        width=grid.width,
        is_sl3=not sl3_failures,
        is_tame=not tame_failures,
        integral=integral,
        positive=positive,
        sl3_failures=sl3_failures,
        tame_failures=tame_failures,
    )


# -- rendering and files ------------------------------------------------------------

def _decimal(v: int) -> str:
    """All decimal digits of v, also past Python's int-string limit of 4,300
    digits (which stays as it is): a long int is split at a power of ten and
    each part converted on its own."""
    try:
        return str(v)
    except ValueError:
        pass
    if v < 0:
        return "-" + _decimal(-v)
    k = v.bit_length() * 3 // 20  # about half the digits: log10(2) > 3/10
    high, low = divmod(v, 10 ** k)
    return _decimal(high) + _decimal(low).zfill(k)


def format_rational(v: int | Fraction) -> str:
    """"p" or "p/q" in lowest terms, every digit written out at any length."""
    try:
        if v.denominator == 1:
            return str(v.numerator)
        return f"{v.numerator}/{v.denominator}"
    except ValueError:  # a part of more than 4,300 digits
        if v.denominator == 1:
            return _decimal(v.numerator)
        return f"{_decimal(v.numerator)}/{_decimal(v.denominator)}"


def _entry_texts(row) -> list:
    """format_rational of every entry of a row: str, which gives the same
    text for an int or a Fraction, unless a part has more than 4,300 digits."""
    try:
        return list(map(str, row))
    except ValueError:
        return list(map(format_rational, row))


def render_frieze(grid: FriezeGrid) -> str:
    """Staircase text layout: border rows included, each row indented half a
    cell further than the one above. Each entry is formatted once; a cell
    and the gap after it are 2 * cell wide, and the gap closing a line is
    stripped."""
    zeros, ones = ["0"] * grid.n, ["1"] * grid.n
    rows = [zeros, zeros, ones, *map(_entry_texts, grid.rows), ones, zeros, zeros]
    cell = max(len(s) for row in rows for s in row)
    line = f"{{:<{2 * cell}}}" * grid.n
    return "".join((" " * (cell * r) + line.format(*row)).rstrip() + "\n" for r, row in enumerate(rows))


_ROW_SEP = '",\n      "'


def dump_frieze(grid: FriezeGrid, validation: dict | None = None) -> str:
    """The frieze file: json.dumps(payload, indent=2) + "\n" byte for byte,
    where payload holds schema_version, n and the rows with every entry as
    format_rational writes it, then the validation block when one is given
    (frieze --format json attaches its summary). The rows are laid out as
    strings directly, one join per row, rather than through the pure-Python
    encoder that indent=2 selects."""
    rows = ",\n".join('    [\n      "' + _ROW_SEP.join(_entry_texts(row)) + '"\n    ]' for row in grid.rows)
    text = f'{{\n  "schema_version": {FRIEZE_SCHEMA_VERSION},\n  "n": {grid.n},\n  "rows": [\n{rows}\n  ]'
    if validation is not None:
        text += ',\n  "validation": ' + json.dumps(validation, indent=2).replace("\n", "\n  ")
    return text + "\n}\n"


def frieze_from_dict(data) -> FriezeGrid:
    if not isinstance(data, dict):
        raise MalformedFileError("frieze file must be a JSON object")
    # "validation" is the summary block the CLI attaches on output; readers
    # recompute it, so its content is ignored here.
    unknown = set(data) - {"n", "rows", "schema_version", "validation"}
    if unknown:
        raise MalformedFileError(f"unknown keys in frieze file: {sorted(unknown)}")
    if "n" not in data or "rows" not in data:
        raise MalformedFileError('frieze file needs keys "n" and "rows"')
    n = data["n"]
    rows = data["rows"]
    if not isinstance(n, int) or not isinstance(rows, list) or not rows:
        raise MalformedFileError('"n" must be an integer and "rows" a nonempty list')
    def parse_entry(e):
        if type(e) is int:
            return e
        # the writer's form only: Fraction(str) would also take exponents,
        # and "1e1000000" costs seconds; int(str) would take "1_000" and " 1"
        if not (type(e) is str and _ENTRY_RE.fullmatch(e)):
            raise MalformedFileError(f"bad frieze entry {e!r}")
        try:
            if "/" not in e:
                return int(e)
            v = Fraction(e)
        except (ValueError, ZeroDivisionError) as exc:  # past the digit limit, or "p/0"
            raise MalformedFileError(f"bad frieze entry {e!r}: {exc}") from exc
        return v.numerator if v.denominator == 1 else v

    parsed = []
    for row in rows:
        if not isinstance(row, list):
            raise MalformedFileError("each row must be a list")
        parsed.append(tuple(map(parse_entry, row)))
    try:
        return FriezeGrid(n, tuple(parsed))
    except InvalidInputError as e:
        raise MalformedFileError(str(e)) from e


def load_frieze(text: str) -> FriezeGrid:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as e:  # bad JSON, a number past the digit limit, too deep
        raise MalformedFileError(f"invalid JSON: {e}") from e
    return frieze_from_dict(data)
