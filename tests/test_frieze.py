"""Friezes: the contraction algorithm, row recursions, diamonds, rendering.

Claims covered:
    - the contraction algorithm agrees with the mutation oracle at every x
      (small samples here, the big sweeps live in the acceptance suite)
    - the single-pass contraction gives the same quiddity rows, values and
      errors as the per-x contraction over edge scans it replaced
    - the row recursions reproduce the known width-4 fixture exactly, and the
      two recursions fill one array (relabeling included)
    - diamond validation passes on the fixture, fails on perturbations, and
      matches an independent determinant recomputation, failure lists included
    - both kernels match entry-by-entry references on random rational input,
      and the unit frieze stays tame, integral and positive at n = 48 and 64
    - grid and quiddity entries must be exact: int or Fraction, never a bool
    - rendering and both file formats round-trip
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from sl3frieze.cyclic import GroundSet
from sl3frieze.errors import (
    FriezeError,
    InconsistentRowsError,
    InternalConsistencyError,
    InvalidInputError,
    MalformedFileError,
    PreconditionError,
)
from sl3frieze.family import Family, continuous_triangles, make_family
from sl3frieze.fixtures import INTRO_ROWS, canonical_family, intro_frieze
from sl3frieze.frieze import (
    FriezeGrid,
    QuiddityRows,
    almost_continuous_at,
    build_plucker_frieze_map,
    extend_rows,
    format_rational,
    frieze_from_dict,
    load_frieze,
    dump_frieze,
    plucker_triple,
    quiddity_rows,
    render_frieze,
    validate_frieze,
)
from sl3frieze.mutation import (
    ValuedFamily,
    family_moves,
    oracle_values,
    random_maximal_family,
    unit_specialization,
)
from sl3frieze.stargraph import (
    _incident_sequence,
    build_star_graph,
    realize_star_graph,
    star_graph_from_edges,
    star_subfamily,
)


def intro_quiddity() -> QuiddityRows:
    low = tuple(Fraction(v) for v in INTRO_ROWS[0])
    # the top recursion's first row renames the last grid row: U_1(i) = D_4(i+2)
    high = tuple(Fraction(INTRO_ROWS[3][(i + 1) % 8]) for i in range(1, 9))
    return QuiddityRows(8, low, high)


# -- contraction algorithm ------------------------------------------------------

def test_algorithm_matches_oracle_on_canonical_families():
    for n in (6, 7, 8):
        g = GroundSet(n)
        vf = unit_specialization(canonical_family(n))
        for x in g.points():
            lo, hi = almost_continuous_at(vf, x)
            t_lo = tuple(sorted((g.wrap(x - 2), g.wrap(x - 1), g.wrap(x + 1))))
            t_hi = tuple(sorted((g.wrap(x - 1), g.wrap(x + 1), g.wrap(x + 2))))
            vals = oracle_values(vf, [t_lo, t_hi])
            assert lo == vals[t_lo]
            assert hi == vals[t_hi]


def test_algorithm_on_pure_path_star_graph():
    # family whose triangles through x=1 are exactly the three frozen ones
    g8 = GroundSet(8)
    fam = realize_star_graph(star_graph_from_edges(1, g8, [(7, 8), (2, 8), (2, 3)]))
    assert len(star_subfamily(fam, 1)) == 3
    vf = unit_specialization(fam)
    lo, hi = almost_continuous_at(vf, 1)
    vals = oracle_values(vf, [(2, 7, 8), (2, 3, 8)])
    assert lo == vals[(2, 7, 8)]
    assert hi == vals[(2, 3, 8)]


@pytest.mark.parametrize("edges,xp2_leaf,xm2_leaf", [
    # x = 1, n = 8 throughout; x+2 = 3, x-2 = 7
    ([(2, 5), (5, 8), (2, 8), (2, 3), (4, 5), (5, 6), (7, 8)], True, True),
    ([(2, 3), (3, 8), (2, 8), (3, 4), (5, 8), (6, 8), (7, 8)], False, True),
    ([(2, 7), (7, 8), (2, 8), (2, 3), (2, 4), (5, 7), (6, 7)], True, False),
    ([(2, 3), (3, 7), (7, 8), (2, 8), (3, 8), (3, 4), (5, 7), (6, 7)], False, False),
])
def test_algorithm_covers_all_frozen_neighbour_shapes(edges, xp2_leaf, xm2_leaf):
    # the four combinations of x+2 / x-2 entering as a leaf or as a
    # triangulation point drive all branches of the contraction loop
    g8 = GroundSet(8)
    fam = realize_star_graph(star_graph_from_edges(1, g8, edges))
    sg = build_star_graph(fam, 1)
    assert (3 in sg.leaves) == xp2_leaf
    assert (7 in sg.leaves) == xm2_leaf
    vf = unit_specialization(fam)
    lo, hi = almost_continuous_at(vf, 1)
    vals = oracle_values(vf, [(2, 7, 8), (2, 3, 8)])
    assert lo == vals[(2, 7, 8)]
    assert hi == vals[(2, 3, 8)]


def test_algorithm_leaves_input_untouched():
    vf = unit_specialization(canonical_family(8))
    before_triangles = set(vf.family.triangles)
    before_values = dict(vf.values)
    almost_continuous_at(vf, 3)
    assert set(vf.family.triangles) == before_triangles
    assert vf.values == before_values


def test_algorithm_requires_unit_values_at_x():
    fam = canonical_family(8)
    values = {t: Fraction(1) for t in fam.triangles}
    tx = next(t for t in fam.triangles if 3 in t)
    values[tx] = Fraction(2)
    with pytest.raises(PreconditionError):
        almost_continuous_at(ValuedFamily(fam, values), 3)


def test_quiddity_bookkeeping_positions():
    n = 6
    g = GroundSet(n)
    vf = unit_specialization(canonical_family(n))
    q = quiddity_rows(vf)
    targets = {}
    for i in g.points():
        targets[i] = (tuple(sorted((i, g.wrap(i + 1), g.wrap(i + 3)))),
                      tuple(sorted((i, g.wrap(i + 2), g.wrap(i + 3)))))
    vals = oracle_values(vf, [t for pair in targets.values() for t in pair])
    for i in g.points():
        t_low, t_high = targets[i]
        assert q.low(i) == vals[t_low]
        assert q.high(i) == vals[t_high]
        assert q.low(i).denominator == 1 and q.low(i) > 0
        assert q.high(i).denominator == 1 and q.high(i) > 0


def test_quiddity_requires_all_ones():
    fam = canonical_family(6)
    values = {t: Fraction(1) for t in fam.triangles}
    values[next(iter(values))] = Fraction(3)
    with pytest.raises(PreconditionError):
        quiddity_rows(ValuedFamily(fam, values))


def _scan_neighbours(g, v):
    return sorted(b if a == v else a for a, b in g.edges if v in (a, b))


def _scan_leaves_at(g, p):
    n = g.ground.n
    return sorted((l for l, att in g.leaves.items() if att == p), key=lambda l: (l - g.x) % n)


def _reference_almost_continuous_at(vf: ValuedFamily, x: int):
    """The per-x contraction that quiddity_rows ran before the single-pass
    star index: it reads the star graph's neighbours and leaves by scanning
    every edge, and sums the labels as Fractions."""
    ground = vf.family.ground
    wrap = ground.wrap
    for t in vf.family.triangles:
        if x in t and vf.values[t] != 1:
            raise PreconditionError(f"triangles through x={x} must all have value 1, {t} has {vf.values[t]}")
    g = build_star_graph(vf.family, x)
    xp, xm = wrap(x + 1), wrap(x - 1)
    xp2, xm2 = wrap(x + 2), wrap(x - 2)

    def star_value(a, b, c):
        t = tuple(sorted((a, b, c)))
        if t not in vf.values:
            raise InternalConsistencyError(f"border triangle {t} unexpectedly missing from family")
        return vf.values[t]

    adj = {v: set(_scan_neighbours(g, v)) for v in g.vertices}
    tp = list(g.triangulation_points)
    labels = {}
    for i, p in enumerate(tp):
        seq = [tp[i - 1]] + _scan_leaves_at(g, p) + [tp[(i + 1) % len(tp)]]
        pinned = None
        if i == 0:
            if xp2 not in g.leaves:
                continue
            seq, pinned = seq[1:], xp2
        elif i == len(tp) - 1:
            if xm2 not in g.leaves:
                continue
            seq, pinned = seq[:-1], xm2
        labels[p] = sum((star_value(p, a, b) for a, b in zip(seq, seq[1:])), start=Fraction(0))
        for leaf in _scan_leaves_at(g, p):
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
            anchor = xp if p == xp2 else xm
            (other,) = adj[p] - {anchor}
            labels[anchor] = labels[p]
            bump(other, labels[p])
            del labels[p]
            adj[p].discard(other)
            adj[other].discard(p)
            edge_count -= 1
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


def _reference_quiddity_rows(vf: ValuedFamily) -> QuiddityRows:
    if any(v != 1 for v in vf.values.values()):
        raise PreconditionError("quiddity rows need the all-ones specialization")
    n = vf.family.ground.n
    wrap = vf.family.ground.wrap
    low, high = {}, {}
    for x in vf.family.ground.points():
        low[wrap(x - 2)], high[wrap(x - 1)] = _reference_almost_continuous_at(vf, x)
    return QuiddityRows(n, tuple(low[i] for i in range(1, n + 1)), tuple(high[i] for i in range(1, n + 1)))


def _result(fn, *args):
    """The value, or the exception's type and message."""
    try:
        return fn(*args)
    except FriezeError as e:
        return type(e), str(e)


def _typed(q: QuiddityRows):
    return [(type(v), v) for v in q.delta_low + q.delta_high]


def test_quiddity_rows_match_per_x_reference():
    for n in range(6, 49):
        for fam in (canonical_family(n), random_maximal_family(GroundSet(n), 60, n)):
            vf = unit_specialization(fam)
            q, ref = quiddity_rows(vf), _reference_quiddity_rows(vf)
            assert q == ref, n
            assert _typed(q) == _typed(ref)
            for x in (1, n // 2, n):
                assert _result(almost_continuous_at, vf, x) == _result(_reference_almost_continuous_at, vf, x)


def test_quiddity_rows_errors_match_per_x_reference():
    fam = random_maximal_family(GroundSet(9), 30, 3)
    values = dict.fromkeys(fam.triangles, Fraction(1))
    values[max(fam.triangles)] = Fraction(2)
    vf = ValuedFamily(fam, values)
    assert _result(quiddity_rows, vf) == _result(_reference_quiddity_rows, vf)
    assert _result(quiddity_rows, vf)[0] is PreconditionError
    # families only marked maximal: every swap of one triangle of the
    # canonical family fails, or not, at the same x with the same message
    base = canonical_family(8).triangles
    kinds = set()
    for removed in sorted(base - set(continuous_triangles(8))):
        for added in combinations(range(1, 9), 3):
            if added in base:
                continue
            forged = unit_specialization(Family(GroundSet(8), base - {removed} | {added}, validated=True))
            got = _result(quiddity_rows, forged)
            assert got == _result(_reference_quiddity_rows, forged), (removed, added)
            if isinstance(got, tuple):
                kinds.add(got[1].split(" ")[0])
    assert kinds == {"border", "missing", "no", "contraction"}  # every contraction check fired


@st.composite
def values_unit_at_x(draw):
    n = draw(st.integers(6, 12))
    fam = random_maximal_family(GroundSet(n), draw(st.integers(0, 3 * n)), draw(st.integers(0, 2**16)))
    x = draw(st.integers(1, n))
    entry = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 4))
    values = {t: Fraction(1) if x in t else draw(entry) for t in fam.sorted_triangles()}
    return ValuedFamily(fam, values), x


@settings(max_examples=150, deadline=None)
@given(values_unit_at_x())
def test_almost_continuous_matches_per_x_reference(case):
    vf, x = case
    got = _result(almost_continuous_at, vf, x)
    assert got == _result(_reference_almost_continuous_at, vf, x)
    assert all(type(v) is Fraction for v in got)


# -- row recursions ---------------------------------------------------------------

def test_second_row_spot_values_from_fixture():
    q = intro_quiddity()
    grid = extend_rows(q)
    # D_2(1) = D_1(1) D_1(2) - U_1(2) and D_2(8) = D_1(8) D_1(1) - U_1(1)
    assert q.low(1) == 4 and q.low(2) == 3 and q.high(2) == 6
    assert grid.entry(2, 1) == 4 * 3 - 6 == 6
    assert q.low(8) == 1 and q.high(1) == 2
    assert grid.entry(2, 8) == 1 * 4 - 2 == 2


def test_recursions_reproduce_fixture_rows():
    grid = extend_rows(intro_quiddity())
    assert grid.rows == intro_frieze().rows


def _reference_recursions(q: QuiddityRows):
    """Both row recursions entry by entry, written out independently of
    extend_rows: (low, upper) with low[k][i-1] = D_k(i), upper[k][i-1] = U_k(i)."""
    n = q.n
    w = n - 4
    low = {1: [q.low(i) for i in range(1, n + 1)]}
    upper = {1: [q.high(i) for i in range(1, n + 1)]}

    def d(k, i):
        return Fraction(1) if k == 0 else low[k][(i - 1) % n]

    def u(k, i):
        return Fraction(1) if k == 0 else upper[k][(i - 1) % n]

    for k in range(2, w + 1):
        if k == 2:
            low[k] = [d(1, i) * d(1, i + 1) - q.high(i + 1) for i in range(1, n + 1)]
            upper[k] = [u(1, i + 1) * u(1, i) - q.low(i) for i in range(1, n + 1)]
        else:
            low[k] = [d(1, i) * d(k - 1, i + 1) - q.high(i + 1) * d(k - 2, i + 2) + d(k - 3, i + 3)
                      for i in range(1, n + 1)]
            upper[k] = [u(1, i + k - 1) * u(k - 1, i) - q.low(i + k - 2) * u(k - 2, i) + u(k - 3, i)
                        for i in range(1, n + 1)]
    return low, upper


def _reference_extend(q: QuiddityRows) -> FriezeGrid:
    """extend_rows, entry by entry: the same grid or the same first error."""
    n = q.n
    low, upper = _reference_recursions(q)
    for k in range(1, n - 3):
        for i in range(1, n + 1):
            mine, theirs = upper[k][(i - 1) % n], low[n - 3 - k][(i + k) % n]
            if mine != theirs:
                raise InconsistentRowsError(f"row recursions disagree at U_{k}({i}): {mine} vs {theirs}")
    return FriezeGrid(n, tuple(tuple(low[k]) for k in range(1, n - 3)))


def dual_row_offset(n: int, k: int):
    """(m, shift) such that U_k(i) = D_m(i + shift): both sides name the
    triangle {i, i+k+1, i+k+2}."""
    return n - 3 - k, k + 1


def test_dual_recursion_relabels_one_array():
    for n in (6, 7, 8):
        g = GroundSet(n)
        q = quiddity_rows(unit_specialization(canonical_family(n)))
        grid = extend_rows(q)
        _, upper = _reference_recursions(q)
        for k in range(1, grid.width + 1):
            m, shift = dual_row_offset(n, k)
            for i in g.points():
                # both names address the same triangle, hence the same value
                triple = tuple(sorted((i, g.wrap(i + k + 1), g.wrap(i + k + 2))))
                assert plucker_triple(n, m, g.wrap(i + shift)) == triple
                assert upper[k][(i - 1) % n] == grid.entry(m, i + shift)


def test_extend_rows_detects_corrupted_input():
    q = intro_quiddity()
    bad = QuiddityRows(8, q.delta_low, q.delta_low)  # wrong top row
    with pytest.raises(InconsistentRowsError):
        extend_rows(bad)


def _outcome(extend, q):
    try:
        return extend(q).rows
    except InconsistentRowsError as e:
        return str(e)


def test_extend_rows_matches_entrywise_reference():
    # valid rows from random families, the same rows with one entry moved,
    # and random rational rows: the same grid, or the same first disagreement
    rng = random.Random(2)
    errors = 0
    for n in range(6, 17):
        for seed in range(3):
            q = quiddity_rows(unit_specialization(random_maximal_family(GroundSet(n), 2 * n, seed)))
            low, high = list(q.delta_low), list(q.delta_high)
            (low if seed % 2 else high)[rng.randrange(n)] += rng.choice((1, 2, Fraction(1, 2)))
            rational = [tuple(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)) for _ in range(n))
                        for _ in range(2)]
            cases = [q, QuiddityRows(n, tuple(low), tuple(high)), QuiddityRows(n, *rational)]
            for case in cases:
                expected = _outcome(_reference_extend, case)
                assert _outcome(extend_rows, case) == expected, (n, seed)
                errors += isinstance(expected, str)
            assert all(type(v) is Fraction for row in extend_rows(q).rows for v in row)
    assert errors == 2 * 11 * 3  # every perturbed and random case is caught


def test_second_row_clause_is_the_general_recursion_at_its_boundary():
    # with D_0 = 1 (continuous triple) and D_{-1} = 0 (repeated index), the
    # general three-term step at k=2 reduces to the dedicated k=2 clause
    n = 8
    q = intro_quiddity()
    grid = extend_rows(q)
    assert len(set(plucker_triple(n, -1, 5))) < 3
    for i in range(1, n + 1):
        general = q.low(i) * grid.entry(1, i + 1) - q.high(i + 1) * Fraction(1) + Fraction(0)
        assert grid.entry(2, i) == general


# -- diamond validation -------------------------------------------------------------

def diamond_matrix(grid: FriezeGrid, r: int, t: int, k: int, mirrored: bool = False) -> list:
    """k x k diamond anchored at its left corner, row r / period index t:
    entry [i][j] sits at bordered row r+i-j, period index t+j. The mirrored
    reading (columns reversed) is kept only for the orientation self-test."""
    mat = [[grid.ext_value(r + i - j, t + j) for j in range(k)] for i in range(k)]
    if mirrored:
        mat = [row[::-1] for row in mat]
    return mat


def _reference_det(mat):
    if len(mat) == 1:
        return mat[0][0]
    total = Fraction(0)
    for j, head in enumerate(mat[0]):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        total += (-1) ** j * head * _reference_det(minor)
    return total


def test_fixture_validates():
    rep = validate_frieze(intro_frieze())
    assert rep.ok and rep.is_sl3 and rep.is_tame
    assert rep.integral and rep.positive
    assert rep.width == 4 and rep.n == 8


def test_validator_matches_reference_determinants():
    grid = intro_frieze()
    for r in range(2, grid.width + 4):
        for t in range(grid.n):
            assert _reference_det(diamond_matrix(grid, r, t, 3)) == 1
    for r in range(3, grid.width + 3):
        for t in range(grid.n):
            assert _reference_det(diamond_matrix(grid, r, t, 4)) == 0


def test_mirrored_orientation_fails_on_fixture():
    grid = intro_frieze()
    dets = {_reference_det(diamond_matrix(grid, r, t, 3, mirrored=True))
            for r in range(2, grid.width + 4) for t in range(grid.n)}
    assert dets != {Fraction(1)}


def test_perturbed_entry_breaks_some_diamond():
    rows = [list(row) for row in intro_frieze().rows]
    rows[1][3] += 1
    rep = validate_frieze(FriezeGrid(8, tuple(tuple(Fraction(v) for v in r) for r in rows)))
    assert not rep.is_sl3
    assert rep.sl3_failures
    r, t, det = rep.sl3_failures[0]
    assert det != 1
    assert 2 <= r <= 7 and 0 <= t < 8


def test_width_one_grids_checked_mechanically():
    # no hand-picked verdicts: the validator must agree with the reference
    # determinant on every width-1 grid over a small entry range
    from itertools import product
    valid = 0
    for entries in product((1, 2, 3), repeat=5):
        grid = FriezeGrid(5, (tuple(Fraction(v) for v in entries),))
        rep = validate_frieze(grid)
        ok3 = all(_reference_det(diamond_matrix(grid, r, t, 3)) == 1
                  for r in range(2, 5) for t in range(5))
        ok4 = all(_reference_det(diamond_matrix(grid, r, t, 4)) == 0
                  for r in range(3, 4) for t in range(5))
        assert rep.is_sl3 == ok3 and rep.is_tame == ok4
        valid += rep.ok
    assert valid >= 1  # the scan is not vacuous


def _reference_failures(grid: FriezeGrid):
    sl3 = [(r, t, _reference_det(diamond_matrix(grid, r, t, 3)))
           for r in range(2, grid.width + 4) for t in range(grid.n)]
    tame = [(r, t, _reference_det(diamond_matrix(grid, r, t, 4)))
            for r in range(3, grid.width + 3) for t in range(grid.n)]
    return [f for f in sl3 if f[2] != 1], [f for f in tame if f[2] != 0]


@st.composite
def rational_grids(draw):
    n = draw(st.integers(5, 9))
    denominators = draw(st.sampled_from((st.just(1), st.integers(1, 3))))
    entry = st.builds(Fraction, st.integers(-4, 6), denominators)
    return FriezeGrid(n, tuple(tuple(draw(st.lists(entry, min_size=n, max_size=n)))
                               for _ in range(n - 4)))


@settings(max_examples=100, deadline=None)
@given(rational_grids())
def test_validator_failures_match_reference_determinants(grid):
    rep = validate_frieze(grid)
    sl3, tame = _reference_failures(grid)
    assert rep.sl3_failures == sl3
    assert rep.tame_failures == tame
    assert all(type(det) is Fraction for _, _, det in rep.sl3_failures + rep.tame_failures)
    entries = [e for row in grid.rows for e in row]
    assert rep.integral == all(e.denominator == 1 for e in entries)
    assert rep.positive == all(e > 0 for e in entries)


@pytest.mark.parametrize("n", [48, 64])
def test_large_unit_frieze_is_tame_integral_positive(n):
    # walk from the rectangles seed, written in closed form so that no greedy
    # completion runs
    seed = ({(1, 2, b) for b in range(3, n + 1)} | {(1, b, b + 1) for b in range(2, n)}
            | {(b, b + 1, b + 2) for b in range(1, n - 1)})
    fam = make_family(GroundSet(n), seed)
    rng = random.Random(n)
    for _ in range(10):
        move = rng.choice(family_moves(fam))
        fam = fam.with_exchange(move.removed, move.added)
    grid = extend_rows(quiddity_rows(unit_specialization(fam)))
    rep = validate_frieze(grid)
    assert rep.ok and rep.integral and rep.positive
    ones = 0
    for k in range(1, grid.width + 1):
        for i in range(1, n + 1):
            if plucker_triple(n, k, i) in fam:
                assert grid.entry(k, i) == 1, (k, i)
                ones += 1
    assert ones > 0


# -- exact entries only ------------------------------------------------------------------

def test_float_grid_entry_is_refused():
    with pytest.raises(InvalidInputError):
        FriezeGrid(5, ((Fraction(1), 1.0, Fraction(1), Fraction(1), Fraction(1)),))


def test_bool_entries_are_refused():
    with pytest.raises(InvalidInputError):
        FriezeGrid(5, ((True,) * 5,))
    with pytest.raises(InvalidInputError):
        QuiddityRows(6, (True,) * 6, (1,) * 6)


def test_float_quiddity_rows_are_refused():
    q = intro_quiddity()
    with pytest.raises(InvalidInputError):
        QuiddityRows(8, tuple(map(float, q.delta_low)), q.delta_high)


# -- layout map ------------------------------------------------------------------------

def test_plucker_map_rows():
    n = 8
    w = n - 4
    mapping = build_plucker_frieze_map(n)
    for i in range(1, n + 1):
        assert mapping[(1, i)] == tuple(sorted((i, i % n + 1, (i + 2) % n + 1)))
        assert len(set(mapping[(0, i)])) == 3          # continuous triple, value 1
        assert len(set(mapping[(w + 1, i)])) == 3      # continuous triple, value 1
        assert len(set(mapping[(-1, i)])) < 3          # repeated index, value 0
        assert len(set(mapping[(w + 2, i)])) < 3       # repeated index, value 0
    # the k=0 and k=w+1 triples really are continuous
    g = GroundSet(n)
    continuous = {tuple(sorted((i, g.wrap(i + 1), g.wrap(i + 2)))) for i in g.points()}
    assert {mapping[(0, i)] for i in g.points()} == continuous
    assert {mapping[(w + 1, i)] for i in g.points()} == continuous


# -- rendering and files -----------------------------------------------------------------

def test_render_shows_fixture_rows_verbatim():
    text = render_frieze(intro_frieze())
    lines = [l for l in text.splitlines() if l.strip()]
    assert lines[3].split() == ["4", "3", "2", "5", "1", "4", "5", "1"]
    assert lines[4].split() == ["6", "5", "4", "3", "3", "7", "4", "2"]
    assert lines[5].split() == ["9", "8", "1", "8", "3", "4", "7", "1"]
    assert lines[6].split() == ["13", "1", "2", "6", "1", "6", "2", "1"]
    # staircase: each row starts strictly further right than the previous
    indents = [len(l) - len(l.lstrip()) for l in lines]
    assert indents == sorted(indents) and len(set(indents)) == len(indents)


def parse_rendered_frieze(text: str) -> FriezeGrid:
    """Inverse of render_frieze (whitespace insensitive)."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if len(rows) < 7:
        raise MalformedFileError("rendered frieze needs at least 7 rows")
    w = len(rows) - 6
    n = w + 4
    for r in (0, 1, w + 4, w + 5):
        if rows[r] != ["0"] * n:
            raise MalformedFileError(f"row {r} must be {n} zeros")
    for r in (2, w + 3):
        if rows[r] != ["1"] * n:
            raise MalformedFileError(f"row {r} must be {n} ones")
    try:
        body = tuple(tuple(Fraction(tok) for tok in rows[r]) for r in range(3, w + 3))
    except (ValueError, ZeroDivisionError) as e:
        raise MalformedFileError(f"bad frieze entry: {e}") from e
    for row in body:
        if len(row) != n:
            raise MalformedFileError("inner rows must all have the same length")
    return FriezeGrid(n, body)


def test_render_parse_round_trip():
    grid = intro_frieze()
    assert parse_rendered_frieze(render_frieze(grid)).rows == grid.rows
    ratio = FriezeGrid(5, ((Fraction(3, 2), Fraction(1), Fraction(2), Fraction(1, 3), Fraction(5)),))
    assert parse_rendered_frieze(render_frieze(ratio)).rows == ratio.rows


def test_width_one_render_has_single_inner_row():
    grid = FriezeGrid(5, ((Fraction(1),) * 5,))
    lines = [l for l in render_frieze(grid).splitlines() if l.strip()]
    assert len(lines) == 7  # 0 0 1 row 1 0 0


def test_frieze_json_round_trip():
    grid = extend_rows(quiddity_rows(unit_specialization(canonical_family(7))))
    again = load_frieze(dump_frieze(grid))
    assert again.rows == grid.rows and again.n == grid.n


def test_frieze_json_rejects_bad_shapes():
    with pytest.raises(MalformedFileError):
        frieze_from_dict({"n": 4, "rows": []})              # width 0
    with pytest.raises(MalformedFileError):
        frieze_from_dict({"n": 8, "rows": [[1] * 8] * 3})   # width/period mismatch
    with pytest.raises(MalformedFileError):
        frieze_from_dict({"n": 5, "rows": [[1] * 5], "extra": 1})
    with pytest.raises(MalformedFileError):
        frieze_from_dict({"n": 5, "rows": [["1/0"] * 5]})
    with pytest.raises(MalformedFileError):
        load_frieze("{oops")


def test_format_rational():
    assert format_rational(Fraction(7)) == "7"
    assert format_rational(Fraction(-7, 3)) == "-7/3"
