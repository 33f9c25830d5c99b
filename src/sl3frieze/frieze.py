"""Friezes from unit-specialized families: quiddity rows, row recursions,
diamond validation and rendering.

Row/position conventions used throughout: the grid stores D_k(i), the value of
the triangle {i, i+1, i+k+2} (indices mod n), for k = 1..w and i = 1..n, with
w = n - 4. Row 1 is printed first; each later row shifts half a cell to the
right, and three border rows (1, 0, 0) frame the grid above and below. The top
recursion works with U_k(i), the value of {i, i+k+1, i+k+2}; the two are two
namings of one array: U_k(i) = D_{n-3-k}(i+k+1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .cyclic import MAX_N
from .errors import (
    InconsistentRowsError,
    InternalConsistencyError,
    InvalidInputError,
    MalformedFileError,
    PreconditionError,
)
from .family import Triangle
from .mutation import ValuedFamily, _check_entries
from .stargraph import StarGraph, _incident_sequence, build_star_graph, star_graphs

FRIEZE_SCHEMA_VERSION = 1

ZERO = Fraction(0)
ONE = Fraction(1)


def _integral(values):
    """The values as plain ints when every one has denominator 1, else None.
    The kernels below never divide, so they give the same exact result on
    ints as on Fractions, without Fraction's per-operation normalisation."""
    if all(v.denominator == 1 for v in values):
        return [v.numerator for v in values]
    return None


@dataclass(frozen=True)
class QuiddityRows:
    """The two directly computed rows: delta_low[i-1] = v({i,i+1,i+3}) and
    delta_high[i-1] = v({i,i+2,i+3})."""

    n: int
    delta_low: tuple
    delta_high: tuple

    def __post_init__(self):
        if len(self.delta_low) != self.n or len(self.delta_high) != self.n:
            raise InvalidInputError("quiddity rows must have one entry per point")
        _check_entries(self.delta_low + self.delta_high, "quiddity")
        if any(v == 0 for v in self.delta_low + self.delta_high):
            raise InvalidInputError("quiddity entries must be nonzero")

    def low(self, i: int) -> Fraction:
        return self.delta_low[(i - 1) % self.n]

    def high(self, i: int) -> Fraction:
        return self.delta_high[(i - 1) % self.n]


@dataclass(frozen=True)
class FriezeGrid:
    """Fundamental region of a frieze: rows[k-1][i-1] = D_k(i), horizontal
    period n, width w = n - 4 >= 1."""

    n: int
    rows: tuple  # of n-tuples of Fraction

    def __post_init__(self):
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

    def entry(self, k: int, i: int) -> Fraction:
        return self.rows[k - 1][(i - 1) % self.n]

    def ext_value(self, r: int, t: int) -> Fraction:
        """Row r of the bordered array (0,0,1,rows...,1,0,0) at period index t."""
        w = self.width
        if r in (0, 1, w + 4, w + 5):
            return ZERO
        if r in (2, w + 3):
            return ONE
        return self.rows[r - 3][t % self.n]


# -- Algorithm: almost continuous values at x ----------------------------------

def _contract(g: StarGraph, values: dict):
    """(label at x-1, label at x+1) after contracting the star graph g at x,
    where `values` maps every triangle of the family to its value.

    Runs entirely on a working copy of g's neighbour map: initialize each
    interior triangulation point's label with the sum of its border values
    (removing its leaves), handle x+2/x-2 specially since their edges to x+1 /
    x-1 are frozen, then repeatedly contract degree-2 points, adding labels,
    until only the three frozen edges remain. Labels are summed in the values'
    own type; a missing border triangle, a missing label or a contraction that
    gets stuck is an InternalConsistencyError.
    """
    x = g.x
    wrap = g.ground.wrap
    xp, xm = wrap(x + 1), wrap(x - 1)
    xp2, xm2 = wrap(x + 2), wrap(x - 2)

    adj = {v: set(nb) for v, nb in g.adjacency.items()}
    tp = g.triangulation_points
    labels = {}

    for i, p in enumerate(tp):
        seq = _incident_sequence(g, i)
        leaves = seq[1:-1]
        pinned = None
        if i == 0:
            # x+1, and x-1 below, get a label only when x+2 (x-2) is a leaf;
            # that leaf stays, and the wrap-around end of the sequence is cut
            if xp2 not in g.leaves:
                continue
            seq, pinned = seq[1:], xp2
        elif i == len(tp) - 1:
            if xm2 not in g.leaves:
                continue
            seq, pinned = seq[:-1], xm2
        label = 0
        for a, b in zip(seq, seq[1:]):
            t = tuple(sorted((p, a, b)))
            if t not in values:
                raise InternalConsistencyError(f"border triangle {t} unexpectedly missing from family")
            label += values[t]
        labels[p] = label
        for leaf in leaves:
            if leaf != pinned:
                adj[p].discard(leaf)
                del adj[leaf]

    current = [p for p in tp if p in adj and len(adj[p]) >= 2]
    edge_count = sum(len(nb) for nb in adj.values()) // 2

    def bump(point, delta):
        if point not in labels:
            raise InternalConsistencyError(f"missing label at {point} during contraction at x={x}")
        labels[point] += delta

    while edge_count > 3:
        p = next((q for q in current if q not in (xp, xm) and len(adj[q]) == 2), None)
        if p is None:
            raise InternalConsistencyError(
                f"no contractible degree-2 point left with {edge_count} edges at x={x}")
        if p in (xp2, xm2):
            # The frozen edge to x+1 (resp. x-1) stays; p becomes that point's
            # pinned leaf and hands its label over.
            anchor = xp if p == xp2 else xm
            (other,) = adj[p] - {anchor}
            labels[anchor] = labels[p]
            bump(other, labels[p])
            del labels[p]
            adj[p].discard(other)
            adj[other].discard(p)
            edge_count -= 1
            current.remove(p)
        else:
            u, v = adj[p]
            bump(u, labels[p])
            bump(v, labels[p])
            del labels[p]
            adj[u].discard(p)
            adj[v].discard(p)
            del adj[p]
            edge_count -= 2
            current.remove(p)

    if xm not in labels or xp not in labels:
        raise InternalConsistencyError(f"contraction finished without labels at x+-1 (x={x})")
    return labels[xm], labels[xp]


def almost_continuous_at(vf: ValuedFamily, x: int):
    """(v({x-2,x-1,x+1}), v({x-1,x+1,x+2})) for a family whose triangles
    through x all have value 1, by contracting the star graph at x."""
    for t in vf.family.triangles:
        if x in t and vf.values[t] != 1:
            raise PreconditionError(f"triangles through x={x} must all have value 1, {t} has {vf.values[t]}")
    g = build_star_graph(vf.family, x)
    ints = _integral(vf.values.values())
    lo, hi = _contract(g, vf.values if ints is None else dict(zip(vf.values, ints)))
    return Fraction(lo), Fraction(hi)


def quiddity_rows(vf: ValuedFamily) -> QuiddityRows:
    """Run the contraction at every x of a family specialized to 1; the value
    of {i,i+1,i+3} lands at delta_low[i], the value of {i,i+2,i+3} at
    delta_high[i]. The star graphs come from one pass over the triangles, and
    the labels are counted in plain ints."""
    if any(v != 1 for v in vf.values.values()):
        raise PreconditionError("quiddity rows need the all-ones specialization")
    n = vf.family.ground.n
    wrap = vf.family.ground.wrap
    ones = dict.fromkeys(vf.family.triangles, 1)
    low = {}
    high = {}
    for g in star_graphs(vf.family):
        lo, hi = _contract(g, ones)
        low[wrap(g.x - 2)] = Fraction(lo)
        high[wrap(g.x - 1)] = Fraction(hi)
    return QuiddityRows(n,
                        tuple(low[i] for i in range(1, n + 1)),
                        tuple(high[i] for i in range(1, n + 1)))


# -- row recursions -------------------------------------------------------------

def extend_rows(q: QuiddityRows) -> FriezeGrid:
    """Fill the whole fundamental region from the two computed rows.

    The lower recursion builds D_2..D_w from D_1 and U_1; the upper recursion
    independently builds U_2..U_w, and the two fillings must agree under
    U_k(i) = D_{n-3-k}(i+k+1), else the input rows were inconsistent and
    InconsistentRowsError names the first (k, i) that disagrees.

    Both recursions start from the border rows D_0 = U_0 = 1 and
    D_{-1} = U_{-1} = 0, so every row k >= 2 follows one three-term step,
    taken in a single pass over rotated earlier rows. No step divides:
    integral quiddity rows are run in plain ints, others as Fractions, and the
    grid holds Fractions either way.
    """
    n = q.n
    w = n - 4
    if w < 2:
        raise InvalidInputError(f"need n >= 6, got n={n}")
    ints = _integral(q.delta_low + q.delta_high)
    if ints is None:
        # lists, like every computed row: the agreement check compares rows with !=
        low1, high1 = list(q.delta_low), list(q.delta_high)
    else:
        low1, high1 = ints[:n], ints[n:]

    def rot(row, s):
        """row shifted so that position i holds the entry of i + s."""
        s %= n
        return row[s:] + row[:s]

    # low[k + 1] is D_k and high[k + 1] is U_k, each over i = 1..n.
    border = [[0] * n, [1] * n]
    low = border + [low1]
    high1_next = rot(high1, 1)
    for k in range(2, w + 1):
        # D_k(i) = D_1(i) D_{k-1}(i+1) - U_1(i+1) D_{k-2}(i+2) + D_{k-3}(i+3)
        low.append([a * b - h * c + e for a, b, h, c, e in
                    zip(low1, rot(low[k], 1), high1_next, rot(low[k - 1], 2), rot(low[k - 2], 3))])
    high = border + [high1]
    for k in range(2, w + 1):
        # U_k(i) = U_1(i+k-1) U_{k-1}(i) - D_1(i+k-2) U_{k-2}(i) + U_{k-3}(i)
        high.append([a * b - d * c + e for a, b, d, c, e in
                     zip(rot(high1, k - 1), high[k], rot(low1, k - 2), high[k - 1], high[k - 2])])

    for k in range(1, w + 1):
        upper, lower = high[k + 1], rot(low[n - 2 - k], k + 1)
        if upper != lower:
            j = next(j for j in range(n) if upper[j] != lower[j])
            raise InconsistentRowsError(
                f"row recursions disagree at U_{k}({j + 1}): {upper[j]} vs {lower[j]}")

    return FriezeGrid(n, tuple(tuple(map(Fraction, row)) for row in low[2:]))


# -- Pluecker triple layout -------------------------------------------------------

def plucker_triple(n: int, k: int, i: int) -> Triangle:
    """Index triple occupying grid row k at position i: {i, i+1, i+k+2} mod n,
    sorted, possibly with a repeat for the zero border rows (k in {-2,-1} and
    {w+2, w+3} give repeated indices, k=0 and k=w+1 the continuous triples)."""
    pts = sorted(((i - 1) % n + 1, i % n + 1, (i + k + 1) % n + 1))
    return tuple(pts)


def build_plucker_frieze_map(n: int) -> dict:
    """(k, i) -> triple for the bordered grid, k = -2 .. w+3."""
    if n < 6:
        raise InvalidInputError(f"need n >= 6, got n={n}")
    w = n - 4
    return {(k, i): plucker_triple(n, k, i)
            for k in range(-2, w + 4) for i in range(1, n + 1)}


# -- diamond validation -----------------------------------------------------------

@dataclass
class FriezeReport:
    n: int
    width: int
    is_sl3: bool
    is_tame: bool
    integral: bool
    positive: bool
    sl3_failures: list  # (row, period index, determinant)
    tame_failures: list

    @property
    def ok(self) -> bool:
        return self.is_sl3 and self.is_tame


def validate_frieze(grid: FriezeGrid) -> FriezeReport:
    """Check determinant 1 on every 3x3 diamond and determinant 0 on every 4x4
    diamond of the bordered array over one period; diamonds crossing the
    period seam are included, which is what ties the rows together mod n.

    The k x k diamond at bordered row r, period index t has entry [i][j] at
    row r+i-j, period index t+j. Its determinant is taken by cofactor
    expansion (3x3) or by Laplace expansion over the top two rows (4x4). No
    step divides, so an integral grid is checked exactly in plain ints and any
    other grid in Fractions; failures list (r, t, det) with det a Fraction.
    """
    w = grid.width
    n = grid.n
    entries = [e for row in grid.rows for e in row]
    ints = _integral(entries)
    values = entries if ints is None else ints
    # the bordered array (0, 0, 1, rows..., 1, 0, 0); each row carries its
    # first three entries again at the end, so t + j needs no reduction mod n
    padded = [values[k:k + n] + values[k:k + 3] for k in range(0, w * n, n)]
    zeros, ones = [0] * (n + 3), [1] * (n + 3)
    ext = [zeros, zeros, ones] + padded + [ones, zeros, zeros]

    sl3_failures = []
    for r in range(2, w + 4):
        a, b, c, d, e = ext[r - 2:r + 3]
        for t in range(n):
            m00, m01, m02 = c[t], b[t + 1], a[t + 2]
            m10, m11, m12 = d[t], c[t + 1], b[t + 2]
            m20, m21, m22 = e[t], d[t + 1], c[t + 2]
            det = (m00 * (m11 * m22 - m12 * m21) - m01 * (m10 * m22 - m12 * m20)
                   + m02 * (m10 * m21 - m11 * m20))
            if det != 1:
                sl3_failures.append((r, t, Fraction(det)))

    tame_failures = []
    for r in range(3, w + 3):
        p0, p1, p2, p3, p4, p5, p6 = ext[r - 3:r + 4]
        for t in range(n):
            t1, t2, t3 = t + 1, t + 2, t + 3
            m00, m01, m02, m03 = p3[t], p2[t1], p1[t2], p0[t3]
            m10, m11, m12, m13 = p4[t], p3[t1], p2[t2], p1[t3]
            m20, m21, m22, m23 = p5[t], p4[t1], p3[t2], p2[t3]
            m30, m31, m32, m33 = p6[t], p5[t1], p4[t2], p3[t3]
            det = ((m00 * m11 - m01 * m10) * (m22 * m33 - m23 * m32)
                   - (m00 * m12 - m02 * m10) * (m21 * m33 - m23 * m31)
                   + (m00 * m13 - m03 * m10) * (m21 * m32 - m22 * m31)
                   + (m01 * m12 - m02 * m11) * (m20 * m33 - m23 * m30)
                   - (m01 * m13 - m03 * m11) * (m20 * m32 - m22 * m30)
                   + (m02 * m13 - m03 * m12) * (m20 * m31 - m21 * m30))
            if det != 0:
                tame_failures.append((r, t, Fraction(det)))

    return FriezeReport(
        n=n,
        width=w,
        is_sl3=not sl3_failures,
        is_tame=not tame_failures,
        integral=ints is not None,
        positive=all(e > 0 for e in values),
        sl3_failures=sl3_failures,
        tame_failures=tame_failures,
    )


# -- rendering and files ------------------------------------------------------------

def format_rational(v: Fraction) -> str:
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


def render_frieze(grid: FriezeGrid) -> str:
    """Staircase text layout: border rows included, each row indented half a
    cell further than the one above."""
    w = grid.width
    rows = [[grid.ext_value(r, t) for t in range(grid.n)] for r in range(w + 6)]
    cell = max(len(format_rational(v)) for row in rows for v in row)
    lines = []
    for r, row in enumerate(rows):
        pad = " " * (cell * r)
        body = (" " * cell).join(format_rational(v).ljust(cell) for v in row)
        lines.append((pad + body).rstrip())
    return "\n".join(lines) + "\n"


def frieze_to_dict(grid: FriezeGrid) -> dict:
    return {
        "schema_version": FRIEZE_SCHEMA_VERSION,
        "n": grid.n,
        "rows": [[format_rational(v) for v in row] for row in grid.rows],
    }


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
        if isinstance(e, bool) or not isinstance(e, (int, str)):
            raise MalformedFileError(f"bad frieze entry {e!r}")
        try:
            return Fraction(e)
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedFileError(f"bad frieze entry {e!r}: {exc}") from exc

    parsed = []
    for row in rows:
        if not isinstance(row, list):
            raise MalformedFileError("each row must be a list")
        parsed.append(tuple(parse_entry(e) for e in row))
    try:
        return FriezeGrid(n, tuple(parsed))
    except InvalidInputError as e:
        raise MalformedFileError(str(e)) from e


def dump_frieze(grid: FriezeGrid) -> str:
    return json.dumps(frieze_to_dict(grid), indent=2) + "\n"


def load_frieze(text: str) -> FriezeGrid:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise MalformedFileError(f"invalid JSON: {e}") from e
    return frieze_from_dict(data)
