"""Friezes: the contraction algorithm, row recursions, diamonds, rendering.

Claims covered:
    - the contraction algorithm agrees with the mutation oracle at every x
      (small samples here, the big sweeps live in the acceptance suite), also
      with value 1 through x and random positive Fractions elsewhere, on walk
      families at n = 6, 7 and 8
    - the contraction straight off the star index gives the same quiddity
      rows, values and errors as the per-x contraction over edge scans it
      replaced (tests/reference.py), also on 200-step walks at n = 128 and
      256 and on every one-triangle forgery of the canonical family at
      n = 8, 9 and 10, counted and with non-unit Fraction values off x, and
      checks maximality and the star endpoints; a bad triangle is refused
      before, by Family, and a non-point x before any value is read
    - the row recursions reproduce the known width-4 fixture exactly, and the
      two recursions fill one array (relabeling included)
    - the lower recursion runs into the border rows 1, 0, 0 exactly when the
      Gale vectors close up, on random int and Fraction rows and walk rows
      at n = 6..40 (hypothesis) and on fixed rows with both verdicts
    - extend_rows decides consistency by those border rows; on valid rows,
      on rows with one or two entries moved and on random rational rows,
      n = 6..32, it gives the entrywise reference's grid or its first
      disagreement, message included, also where that disagreement lies in
      row w
    - reflecting a walk family (p -> 5 - p) gives the reflected quiddity rows
      that extend_rows' witness runs on and the grid read as the upper
      recursion, and rotating it (p -> p + 1) rotates the quiddity rows and
      every grid row, at n = 6..40, 64 and 512
    - the lower row recursion that extend_rows runs gives the Gale minors of
      the closed vectors (the determinant reference in tests/reference.py)
      and both entrywise recursions, on walk families at n = 6..64 and on
      the Fraction rows of the display example, and the record it builds
      unchecked equals the checked one
    - quiddity rows over more than MAX_N points are refused on construction
    - diamond validation passes on the fixture, fails on perturbations, and
      matches an independent determinant recomputation, failure lists included
    - the condensed validator falls back to full expansion exactly where it
      must: zero centre entries, zero centre minors, failing corner diamonds
    - the Gale certificate (every row the lower recursion's, then its
      border rows) accepts walk friezes and the fixture without running the
      condensation, and refuses every grid the condensation fails, which then
      gets the condensation's report: one-entry changes of walk friezes (int
      and Fraction grids, hypothesis), the minors of vectors that do not
      close (refused by the row check at row 2), and n = 6 grids that pass
      the row check and are refused by the border rows alone; it stops at
      the first row that differs, before any number it computes outgrows the
      grid's entries, and builds no vector; the minors equal the BFS
      oracle on every triple of four families each at n = 6, 7 and 8
    - minor_values gives those minors, refuses the targets oracle_values
      refuses with the same messages, refuses values other than 1, and
      names the first family triangle whose minor is not 1 (certificate
      part (b)) under a contraction mutant
    - quiddity_rows, minor_values and oracle_values refuse a valued family
      that is not a ValuedFamily (None, or a bare Family) with
      InvalidInputError
    - both kernels match entry-by-entry references on random rational input,
      and the unit frieze stays tame, integral and positive at n = 48 and 64
    - grid and quiddity entries must be exact: int or Fraction, never a bool;
      the kernels keep the type the arithmetic gives (ints from the unit
      specialization and from integral files), and validation reports the
      same on a grid and on its entries wrapped in Fraction
    - rendering and both file formats round-trip; numbers are written with
      every digit, also past the 4,300-digit limit of str(int)
    - the frieze writer is byte for byte json.dumps(payload, indent=2) + "\n",
      with and without a validation block, and the text layout is byte for
      byte the two-pass layout, on int, Fraction and negative grids, entries
      just past 4,300 digits and walk friezes at n = 6, 32 and 512
    - the frieze reader keeps each bad entry's exception and message, and a
      written grid loads back with int entries as ints and Fraction entries
      as Fractions
"""

import functools
import json
import random
import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import INTRO_ROWS, build_plucker_frieze_map, intro_frieze, parse_decimal, plucker_triple
from reference import _gale_minors, _reference_almost_continuous_at, _reference_quiddity_rows
from sl3frieze import canonical_family
from sl3frieze.cyclic import MAX_N, GroundSet
from sl3frieze.errors import (
    FriezeError,
    InconsistentRowsError,
    InternalConsistencyError,
    InvalidInputError,
    MalformedFileError,
    PreconditionError,
)
from sl3frieze.family import Family, continuous_triangles, frozen_triangles, make_family
from sl3frieze.frieze import (
    FRIEZE_SCHEMA_VERSION,
    FriezeGrid,
    QuiddityRows,
    almost_continuous_at,
    extend_rows,
    format_rational,
    frieze_from_dict,
    gale_vectors,
    load_frieze,
    dump_frieze,
    minor_values,
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
    build_star_graph,
    realize_star_graph,
    star_graph_from_edges,
)
import sl3frieze.frieze as frieze_module


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


def test_algorithm_matches_oracle_off_the_unit_specialization():
    # value 1 on every triangle through x and a random positive Fraction on
    # every other: the contraction sums the other values as given, and the
    # oracle exchanges them through exchange_value's Fraction path
    rng = random.Random(14)
    checked = 0
    for n in (6, 7, 8):
        g = GroundSet(n)
        for seed in range(8):
            fam = random_maximal_family(g, steps=20, seed=seed)
            for x in g.points():
                values = {t: 1 if x in t else Fraction(rng.randint(1, 9), rng.randint(1, 9))
                          for t in fam.triangles}
                vf = ValuedFamily(fam, values)
                t_lo = tuple(sorted((g.wrap(x - 2), g.wrap(x - 1), g.wrap(x + 1))))
                t_hi = tuple(sorted((g.wrap(x - 1), g.wrap(x + 1), g.wrap(x + 2))))
                vals = oracle_values(vf, [t_lo, t_hi])
                assert almost_continuous_at(vf, x) == (vals[t_lo], vals[t_hi]), (n, seed, x)
                checked += 1
    assert checked == 8 * (6 + 7 + 8)


def test_algorithm_on_pure_path_star_graph():
    # family whose triangles through x=1 are exactly the three frozen ones
    g8 = GroundSet(8)
    fam = realize_star_graph(star_graph_from_edges(1, g8, [(7, 8), (2, 8), (2, 3)]))
    assert sum(1 in t for t in fam.triangles) == 3
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
        low, high = q.delta_low[i - 1], q.delta_high[i - 1]
        assert low == vals[t_low]
        assert high == vals[t_high]
        assert low.denominator == 1 and low > 0
        assert high.denominator == 1 and high > 0


def test_quiddity_requires_all_ones():
    fam = canonical_family(6)
    values = {t: Fraction(1) for t in fam.triangles}
    values[next(iter(values))] = Fraction(3)
    with pytest.raises(PreconditionError):
        quiddity_rows(ValuedFamily(fam, values))


def _result(fn, *args):
    """The value, or the exception's type and message."""
    try:
        return fn(*args)
    except FriezeError as e:
        return type(e), str(e)


def _exact(values, ints: bool) -> bool:
    """Every value is an int, or (ints=False) an int or a Fraction."""
    return all(type(v) is int or (not ints and type(v) is Fraction) for v in values)


def test_quiddity_rows_match_per_x_reference():
    for n in range(6, 49):
        for fam in (canonical_family(n), random_maximal_family(GroundSet(n), 60, n)):
            vf = unit_specialization(fam)
            q, ref = quiddity_rows(vf), _reference_quiddity_rows(vf)
            assert q == ref, n
            # the labels are counted in ints and stay ints; the reference
            # sums the family's Fraction(1) values
            assert _exact(q.delta_low + q.delta_high, ints=True)
            for x in (1, n // 2, n):
                assert _result(almost_continuous_at, vf, x) == _result(_reference_almost_continuous_at, vf, x)


def _unchecked_unit(fam: Family) -> ValuedFamily:
    """The unit specialization of fam without ValuedFamily's own checks, which
    refuse a family that is not maximal or lacks a continuous triangle before
    quiddity_rows could see it."""
    return ValuedFamily._unchecked(fam, dict.fromkeys(fam.triangles, 1))


def test_quiddity_rows_check_maximality_points_and_endpoints():
    with pytest.raises(InvalidInputError, match="valued families must be maximal"):
        unit_specialization(frozen_triangles(GroundSet(8)))
    # a bad triangle never reaches the contraction: Family refuses it, so
    # (4, 2, 1) in place of (1, 2, 4) is not taken for a family missing its
    # border triangle (1, 2, 4)
    tris = canonical_family(8).triangles
    for bad, message in (((1, 2, 9), "point 9 outside 1..8"), ((1, 1, 2), r"triangle \(1, 1, 2\) needs"),
                         ((4, 2, 1), r"triangle \(4, 2, 1\) not sorted")):
        with pytest.raises(InvalidInputError, match=message):
            Family(GroundSet(8), tris - {(1, 2, 4)} | {bad}, validated=True)
    # the endpoints guard runs at every x
    avoiding_1 = Family(GroundSet(6), frozenset(combinations(range(2, 7), 3)), validated=True)
    with pytest.raises(InternalConsistencyError, match=r"x=1, n=6: triangulation points must run from 2 to 6"):
        quiddity_rows(_unchecked_unit(avoiding_1))


def test_quiddity_rows_errors_match_per_x_reference():
    fam = random_maximal_family(GroundSet(9), 30, 3)
    values = dict.fromkeys(fam.triangles, Fraction(1))
    values[max(fam.triangles)] = Fraction(2)
    vf = ValuedFamily(fam, values)
    assert _result(quiddity_rows, vf) == _result(_reference_quiddity_rows, vf)
    assert _result(quiddity_rows, vf)[0] is PreconditionError
    # families only marked maximal: every swap of one triangle of the
    # canonical family fails, or not, at the same x with the same message
    for n in (8, 9, 10):
        kinds = set()
        for swap, fam in _one_triangle_forgeries(n):
            forged = unit_specialization(fam)
            got = _result(quiddity_rows, forged)
            assert got == _result(_reference_quiddity_rows, forged), swap
            if isinstance(got, tuple):
                kinds.add(got[1].split(" ")[0])
        assert kinds == {"border", "missing", "no", "contraction"}, n  # every contraction check fired


def _one_triangle_forgeries(n: int):
    """(removed, added) and the family for every swap of one non-continuous
    triangle of the canonical family over 1..n for a triple outside it, only
    marked weakly separated: 320, 650 and 1,176 families at n = 8, 9, 10."""
    base = canonical_family(n).triangles
    for removed in sorted(base - set(continuous_triangles(n))):
        for added in combinations(range(1, n + 1), 3):
            if added not in base:
                yield (removed, added), Family(GroundSet(n), base - {removed} | {added}, validated=True)


def test_almost_continuous_errors_match_per_x_reference():
    # the summed labels: every x of every one-triangle forgery, with value 1
    # through x and a non-unit Fraction, sum(t) / (min(t) + 1), off it
    kinds = set()
    for n in (8, 9, 10):
        for swap, fam in _one_triangle_forgeries(n):
            off = {t: Fraction(sum(t), t[0] + 1) for t in fam.triangles}
            for x in range(1, n + 1):
                vf = ValuedFamily(fam, {t: Fraction(1) if x in t else v for t, v in off.items()})
                got = _result(almost_continuous_at, vf, x)
                assert got == _result(_reference_almost_continuous_at, vf, x), (swap, x)
                if isinstance(got[0], type):
                    kinds.add(got[1].split(" ")[0])
                else:
                    assert _exact(got, ints=False)
    assert kinds == {"border", "missing", "no", "contraction"}


def test_almost_continuous_checks_the_point_before_the_values():
    # a value 2 through point 1 must not be read as a value through True or
    # 1.0: a non-point is refused as build_star_graph refuses it
    fam = random_maximal_family(GroundSet(8), 30, 1)
    values = dict.fromkeys(fam.triangles, 1)
    values[min(fam.triangles)] = 2  # (1, 2, 3), a continuous triangle
    vf = ValuedFamily(fam, values)
    for x in (True, 1.0, 0, 9):
        with pytest.raises(InvalidInputError, match=re.escape(f"point {x!r} outside 1..8")):
            almost_continuous_at(vf, x)
        with pytest.raises(InvalidInputError, match=re.escape(f"point {x!r} outside 1..8")):
            build_star_graph(fam, x)
    with pytest.raises(PreconditionError, match=r"x=1 must all have value 1, \(1, 2, 3\) has 2"):
        almost_continuous_at(vf, 1)


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
    if not isinstance(got[0], type):  # a value pair, not an error
        assert _exact(got, ints=False)


# -- row recursions ---------------------------------------------------------------

def test_second_row_spot_values_from_fixture():
    q = intro_quiddity()
    grid = extend_rows(q)
    # D_2(1) = D_1(1) D_1(2) - U_1(2) and D_2(8) = D_1(8) D_1(1) - U_1(1)
    assert q.delta_low[0] == 4 and q.delta_low[1] == 3 and q.delta_high[1] == 6
    assert grid.entry(2, 1) == 4 * 3 - 6 == 6
    assert q.delta_low[7] == 1 and q.delta_high[0] == 2
    assert grid.entry(2, 8) == 1 * 4 - 2 == 2


def test_recursions_reproduce_fixture_rows():
    grid = extend_rows(intro_quiddity())
    assert grid.rows == intro_frieze().rows


def _reference_recursions(q: QuiddityRows):
    """Both row recursions entry by entry, written out independently of
    extend_rows: (low, upper) with low[k][i-1] = D_k(i), upper[k][i-1] = U_k(i)."""
    n = q.n
    w = n - 4
    low = {1: list(q.delta_low)}
    upper = {1: list(q.delta_high)}

    def d(k, i):
        return Fraction(1) if k == 0 else low[k][(i - 1) % n]

    def u(k, i):
        return Fraction(1) if k == 0 else upper[k][(i - 1) % n]

    for k in range(2, w + 1):
        if k == 2:
            low[k] = [d(1, i) * d(1, i + 1) - u(1, i + 1) for i in range(1, n + 1)]
            upper[k] = [u(1, i + 1) * u(1, i) - d(1, i) for i in range(1, n + 1)]
        else:
            low[k] = [d(1, i) * d(k - 1, i + 1) - u(1, i + 1) * d(k - 2, i + 2) + d(k - 3, i + 3)
                      for i in range(1, n + 1)]
            upper[k] = [u(1, i + k - 1) * u(k - 1, i) - d(1, i + k - 2) * u(k - 2, i) + u(k - 3, i)
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


def _perturbed(q: QuiddityRows, rng, spots) -> QuiddityRows:
    """q with the entry at each (row, index) of spots moved by +-1, +-2 or 1/2,
    never onto 0; row 0 is delta_low, row 1 delta_high."""
    rows = [list(q.delta_low), list(q.delta_high)]
    for r, i in spots:
        rows[r][i] += rng.choice([d for d in (1, -1, 2, -2, Fraction(1, 2)) if rows[r][i] + d != 0])
    return QuiddityRows(q.n, *map(tuple, rows))


def test_extend_rows_matches_entrywise_reference():
    # valid rows from random families; the same rows with one or two entries
    # moved, in either row or both; and random rational rows: the same grid,
    # or the same first disagreement. extend_rows decides consistency by the
    # border rows and runs the upper recursion only for a witness, so this
    # also checks that the border is reached exactly when the two recursions
    # agree.
    rng = random.Random(2)
    errors = cases_run = 0
    for n in range(6, 33):
        for seed in range(3):
            q = quiddity_rows(unit_specialization(random_maximal_family(GroundSet(n), 2 * n, seed)))
            i, j = rng.sample(range(n), 2)
            r = seed % 2
            perturbed = [_perturbed(q, rng, spots)
                         for spots in ([(0, i)], [(1, i)], [(0, i), (1, j)], [(r, i), (r, j)])]
            rational = [tuple(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)) for _ in range(n))
                        for _ in range(2)]
            for case in [q, *perturbed, QuiddityRows(n, *rational)]:
                expected = _outcome(_reference_extend, case)
                got = _outcome(extend_rows, case)
                assert got == expected, (n, seed)
                cases_run += 1
                errors += isinstance(expected, str)
                if not isinstance(got, str):
                    assert _exact((v for row in got for v in row), ints=False)
            assert _exact((v for row in extend_rows(q).rows for v in row), ints=True)
    assert cases_run == 27 * 3 * 6
    assert errors == 27 * 3 * 5  # every perturbed and random case is caught


def test_extend_rows_gives_the_minors_and_the_recursions():
    # the lower row recursion that extend_rows runs gives, row for row, the
    # Gale minors of the closed vectors (three products per entry) and both
    # entrywise recursions, on walk families at n = 6..64 (int rows, kept as
    # ints) and on the Fraction rows of the display example; the record built
    # without its checks equals the one the checked constructor builds
    cases = [(quiddity_rows(unit_specialization(random_maximal_family(GroundSet(n), 2 * n, n))), int)
             for n in range(6, 65)]
    for q, entry_type in cases + [(intro_quiddity(), Fraction)]:
        n = q.n
        grid = extend_rows(q)
        vs = list(gale_vectors(q.delta_low, q.delta_high))
        assert grid.rows == tuple(map(tuple, _gale_minors(vs[:n]))), n
        low, _ = _reference_recursions(q)
        assert grid.rows == tuple(tuple(low[k]) for k in range(1, n - 3)), n
        assert FriezeGrid(n, grid.rows) == grid
        assert {type(e) for row in grid.rows for e in row} == {entry_type}, n


def test_quiddity_rows_and_extend_rows_match_references_at_scale():
    # valid rows, and the same rows with one delta_low entry moved by +1,
    # which must name the same first disagreement as the recursions
    for n in (128, 256):
        vf = unit_specialization(random_maximal_family(GroundSet(n), 200, n))
        q = quiddity_rows(vf)
        assert q == _reference_quiddity_rows(vf)
        assert extend_rows(q) == _reference_extend(q)
        low = list(q.delta_low)
        low[n // 3] += 1
        bad = QuiddityRows(n, tuple(low), q.delta_high)
        expected = _outcome(_reference_extend, bad)
        assert isinstance(expected, str)
        assert _outcome(extend_rows, bad) == expected, n


# at n = 6, D_1 = (c,) * 6 and U_1 with U_1(i) + U_1(i+3) = c^2 make
# D_2(i+2) = U_1(i): the lower recursion gives back its own D_1 and U_1, and
# its vectors do not close
SELF_MATCHING_ROWS = [((c,) * 6, b + tuple(c * c - v for v in b))
                      for c in (1, 2, 3) for b in ((0, 0, 0), (1, 2, 3), (-1, 4, 2), (2, 2, 5))]


def _ends_in_border(low, high) -> bool:
    """Whether the lower recursion from D_1 = low and U_1 = high reaches the
    bottom border 1, 0, 0 at rows w+1..w+3."""
    n = len(low)
    rows = list(frieze_module._lower_rows(low, high))  # D_2..D_{n-1}
    return rows[n - 5:] == [[1] * n, [0] * n, [0] * n]


def _closes(low, high) -> bool:
    vs = list(gale_vectors(low, high))
    return vs[len(low):] == vs[:3]


ROW_ENTRIES = st.integers(-4, 4) | st.fractions(-3, 3, max_denominator=4)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_border_rows_decide_the_closure(data):
    # the border lemma: the lower recursion runs into the rows 1, 0, 0 exactly
    # when the Gale vectors close up, on random int and Fraction rows (zeros
    # included) and on walk rows with one entry moved or not, n = 6..40
    n = data.draw(st.integers(6, 40), label="n")
    if data.draw(st.booleans(), label="walk rows"):
        q = _walk_grid(n, data.draw(st.integers(0, 3), label="seed"))
        rows = [list(q.rows[0]), list(q.rows[-1][2:] + q.rows[-1][:2])]
        if data.draw(st.booleans(), label="moved"):
            r, i = data.draw(st.integers(0, 1), label="row"), data.draw(st.integers(0, n - 1), label="position")
            rows[r][i] += data.draw(st.sampled_from([1, -1, Fraction(1, 2)]), label="change")
        low, high = map(tuple, rows)
    else:
        low, high = (tuple(data.draw(st.lists(ROW_ENTRIES, min_size=n, max_size=n), label=name))
                     for name in ("low", "high"))
    assert _ends_in_border(low, high) == _closes(low, high)


def test_border_rows_decide_the_closure_on_fixed_rows():
    # both verdicts: walk rows at n = 6..40 and the Fraction rows of the
    # display example close; the n = 6 rows that pass the row check and
    # random rows do not
    rng = random.Random(29)
    closing = [_walk_grid(n, 0) for n in range(6, 41)]
    cases = [(g.rows[0], g.rows[-1][2:] + g.rows[-1][:2], True) for g in closing]
    q = intro_quiddity()
    cases.append((q.delta_low, q.delta_high, True))
    cases += [(low, high, False) for low, high in SELF_MATCHING_ROWS]
    for n in range(6, 41):
        cases.append((tuple(rng.randint(-3, 3) for _ in range(n)),
                      tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)), False))
    for low, high, closes in cases:
        assert _closes(low, high) == closes
        assert _ends_in_border(low, high) == closes


def test_extend_rows_names_a_disagreement_in_row_w():
    # the n = 6 rows whose recursions agree on U_1: extend_rows names the
    # entrywise reference's first disagreement, at k = w = 2
    errors = 0
    for low, high in SELF_MATCHING_ROWS:
        if 0 in low + high:
            continue
        q = QuiddityRows(6, low, high)
        expected = _outcome(_reference_extend, q)
        assert expected.startswith("row recursions disagree at U_2(")
        assert _outcome(extend_rows, q) == expected
        errors += 1
    assert errors == 7


def _relabelled(fam: Family, f) -> Family:
    return Family(fam.ground, frozenset(tuple(sorted(map(f, t))) for t in fam.triangles))


@pytest.mark.parametrize("n, steps", [*((n, 2 * n) for n in range(6, 41)), (64, 200), (512, 200)])
def test_reflection_and_rotation_relabel_the_rows_and_the_grid(n, steps):
    # p -> 5 - p (mod n) sends the family's quiddity rows to the reflected
    # rows extend_rows runs its upper recursion on, and the image's grid at
    # (k, 1-i-k) is the grid at (n-3-k, i+k+1), 0-based: U_k(i+1) read as a
    # lower row. p -> p + 1 rotates both quiddity rows and every grid row
    # right by one
    fam = random_maximal_family(GroundSet(n), steps, n)
    q = quiddity_rows(unit_specialization(fam))
    grid = extend_rows(q)
    w = n - 4
    reflected = quiddity_rows(unit_specialization(_relabelled(fam, lambda p: (4 - p) % n + 1)))
    low, high = q.delta_low, q.delta_high
    assert (reflected.delta_low, reflected.delta_high) == (high[:1] + high[:0:-1], low[:1] + low[:0:-1])
    image = extend_rows(reflected).rows
    assert all(image[k - 1][(1 - i - k) % n] == grid.rows[n - 4 - k][(i + k + 1) % n]
               for k in range(1, w + 1) for i in range(n))
    rotated = quiddity_rows(unit_specialization(_relabelled(fam, lambda p: p % n + 1)))
    assert (rotated.delta_low, rotated.delta_high) == (low[-1:] + low[:-1], high[-1:] + high[:-1])
    assert extend_rows(rotated).rows == tuple(row[-1:] + row[:-1] for row in grid.rows)


def test_quiddity_rows_past_max_n_are_refused():
    QuiddityRows(MAX_N, (3,) * MAX_N, (3,) * MAX_N)
    for n in (MAX_N + 1, 2400):
        with pytest.raises(InvalidInputError, match=f"frieze period needs n <= {MAX_N}, got {n}"):
            QuiddityRows(n, (3,) * n, (3,) * n)


def test_second_row_clause_is_the_general_recursion_at_its_boundary():
    # with D_0 = 1 (continuous triple) and D_{-1} = 0 (repeated index), the
    # general three-term step at k=2 reduces to the dedicated k=2 clause
    n = 8
    q = intro_quiddity()
    grid = extend_rows(q)
    assert len(set(plucker_triple(n, -1, 5))) < 3
    for i in range(1, n + 1):
        general = q.delta_low[i - 1] * grid.entry(1, i + 1) - q.delta_high[i % n] * Fraction(1) + Fraction(0)
        assert grid.entry(2, i) == general


# -- diamond validation -------------------------------------------------------------

def diamond_matrix(grid: FriezeGrid, r: int, t: int, k: int, mirrored: bool = False) -> list:
    """k x k diamond anchored at its left corner, row r / period index t:
    entry [i][j] sits at bordered row r+i-j, period index t+j. The mirrored
    reading (columns reversed) is kept only for the orientation self-test."""
    zeros, ones = (0,) * grid.n, (1,) * grid.n
    bordered = [zeros, zeros, ones, *grid.rows, ones, zeros, zeros]
    mat = [[bordered[r + i - j][(t + j) % grid.n] for j in range(k)] for i in range(k)]
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


# Condensation decides a 3x3 diamond from its centre entry and a 4x4 diamond
# from its centre 2x2 minor; where that centre is zero, or a corner diamond
# fails, the validator must fall back to the full expansion. Each grid below
# holds one such diamond at (r, t) = (6, 2), every other entry 1, and the
# whole failure lists must match the reference.

def _grid_with_diamond(mat, n=11, r=6, t=2) -> FriezeGrid:
    rows = [[Fraction(1)] * n for _ in range(n - 4)]
    for i, line in enumerate(mat):
        for j, v in enumerate(line):
            rows[r + i - j - 3][(t + j) % n] = Fraction(v)
    grid = FriezeGrid(n, tuple(map(tuple, rows)))
    assert diamond_matrix(grid, r, t, len(mat)) == mat
    return grid


def _corner_dets(grid, r, t):
    """The four corner 3x3 diamonds of the 4x4 diamond at (r, t), in the order
    of the Desnanot-Jacobi terms: top left, bottom right, top right, bottom left."""
    return [_reference_det(diamond_matrix(grid, r + dr, t + dt, 3))
            for dr, dt in ((0, 0), (0, 1), (-1, 1), (1, 0))]


def _assert_matches_reference(grid):
    rep = validate_frieze(grid)
    assert (rep.sl3_failures, rep.tame_failures) == _reference_failures(grid)
    # the entries' type changes nothing in the report, not even its repr
    wrapped = FriezeGrid(grid.n, tuple(tuple(map(Fraction, row)) for row in grid.rows))
    assert repr(validate_frieze(wrapped)) == repr(rep)
    # the Gale certificate accepts exactly the valid grids; every other grid
    # gets the report of the condensation
    assert frieze_module._gale_certified(grid) == rep.ok
    assert frieze_module._diamond_failures(grid) == (rep.sl3_failures, rep.tame_failures)


@pytest.mark.parametrize("mat, det", [
    ([[1, 1, 0], [0, 0, 1], [1, 0, 0]], 1),
    ([[2, 1, 1], [1, 0, 1], [1, 1, 2]], -2),
])
def test_zero_centre_3x3_diamond_is_expanded(mat, det):
    grid = _grid_with_diamond(mat)
    assert _reference_det(diamond_matrix(grid, 6, 2, 3)) == det
    _assert_matches_reference(grid)


@pytest.mark.parametrize("corners, det", [((0, 0, 0, 0), 0), ((2, 0, 0, 1), 3)])
def test_zero_centre_minor_4x4_diamond_is_expanded(corners, det):
    a00, a03, a30, a33 = corners
    grid = _grid_with_diamond([[a00, 0, 1, a03], [1, 1, 1, 1], [0, 1, 1, 0], [a30, 0, 1, a33]])
    assert _corner_dets(grid, 6, 2) == [1, 1, 1, 1]
    assert _reference_det(diamond_matrix(grid, 6, 3, 2)) == 0  # the centre minor
    assert _reference_det(diamond_matrix(grid, 6, 2, 4)) == det
    _assert_matches_reference(grid)


@pytest.mark.parametrize("mat, corners, det", [
    ([[1, 0, 2, 1], [2, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 2]], [1, 1, -1, 1], 2),
    ([[0, 2, 0, 0], [0, 2, 2, 0], [1, 2, 1, 2], [1, 1, 1, 2]], [4, -4, 8, -2], 0),
])
def test_4x4_diamond_beside_failing_3x3_is_expanded(mat, corners, det):
    grid = _grid_with_diamond(mat)
    assert _corner_dets(grid, 6, 2) == corners
    assert _reference_det(diamond_matrix(grid, 6, 3, 2)) != 0
    assert _reference_det(diamond_matrix(grid, 6, 2, 4)) == det
    _assert_matches_reference(grid)


def test_4x4_diamond_with_only_its_bottom_corner_diamond_failing():
    # Raising the bottom entry of the 4x4 diamond at (6, 2) of a unit frieze
    # breaks, of its four corner 3x3 diamonds, only the one at (6, 3). The
    # same entry is the centre of the 3x3 diamond at (6, 4); moving that
    # diamond's top right entry, outside the 4x4 diamond, makes it 1 again.
    n, r, t = 11, 6, 2
    fam = random_maximal_family(GroundSet(n), 2 * n, n)
    rows = [list(row) for row in extend_rows(quiddity_rows(unit_specialization(fam))).rows]

    def det3(rr, tt):
        return _reference_det(diamond_matrix(FriezeGrid(n, tuple(map(tuple, rows))), rr, tt, 3))

    rows[r - 3][t + 3] += 1
    k, i = r - 5, t + 4
    base, before = rows[k][i], det3(r, t + 2)
    rows[k][i] = base + 1
    slope = det3(r, t + 2) - before  # a determinant is affine in each entry
    rows[k][i] = base + (1 - before) / slope
    assert [det3(r + dr, t + dt) for dr, dt in ((0, 0), (-1, 1), (1, 0), (0, 2))] == [1, 1, 1, 1]
    assert det3(r, t + 1) != 1
    _assert_matches_reference(FriezeGrid(n, tuple(map(tuple, rows))))


@pytest.mark.parametrize("n", range(6, 17))
def test_perturbed_walk_friezes_match_reference(n):
    fam = random_maximal_family(GroundSet(n), 2 * n, n)
    rows = extend_rows(quiddity_rows(unit_specialization(fam))).rows
    _assert_matches_reference(FriezeGrid(n, rows))
    rng = random.Random(n)
    for change in (1, -1, Fraction(1, 2), None):
        for _ in range(2):
            k, i = rng.randrange(n - 4), rng.randrange(n)
            perturbed = [list(row) for row in rows]
            perturbed[k][i] = Fraction(0) if change is None else perturbed[k][i] + change
            _assert_matches_reference(FriezeGrid(n, tuple(map(tuple, perturbed))))


# -- the Gale certificate ------------------------------------------------------------

def _paths(grid, monkeypatch):
    """validate_frieze's report, whether the condensation ran for it, and the
    report of the condensation alone."""
    ran = []
    condense = frieze_module._diamond_failures
    with monkeypatch.context() as m:
        m.setattr(frieze_module, "_diamond_failures", lambda g: ran.append(g) or condense(g))
        rep = validate_frieze(grid)
    with monkeypatch.context() as m:
        m.setattr(frieze_module, "_gale_certified", lambda g: False)
        reference = validate_frieze(grid)
    return rep, bool(ran), reference


@pytest.mark.parametrize("n", range(6, 17))
def test_certificate_accepts_walk_friezes_without_condensation(n, monkeypatch):
    fam = random_maximal_family(GroundSet(n), 2 * n, n)
    grids = [extend_rows(quiddity_rows(unit_specialization(fam)))]
    if n == 8:
        grids.append(intro_frieze())  # Fraction entries, and not unitary
    for grid in grids:
        rep, condensed, reference = _paths(grid, monkeypatch)
        assert rep.ok and not condensed
        assert repr(rep) == repr(reference)


def test_minors_of_vectors_that_do_not_close_are_refused(monkeypatch):
    # v_1..v_n from the recursion, so every det(v_j, v_{j+1}, v_{j+2}) is 1
    # except across the seam; the grid of their minors, indices mod n, has
    # these v_j as its Gale vectors. Its row 2 holds minors across the seam
    # (i + 4 > n), where the lower recursion continues the vectors instead
    # of wrapping them, so the row check refuses it at row 2, the first row
    # the recursion generates from D_1, long before the border rows
    rng = random.Random(7)
    for n in range(6, 13):
        vs = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        while len(vs) < n:
            a, b = rng.randint(1, 4), rng.randint(-3, 3)
            vs.append(tuple(a * z - b * y + x for x, y, z in zip(*vs[-3:])))
        rows = tuple(tuple(_reference_det([vs[i], vs[(i + 1) % n], vs[(i + k + 2) % n]]) for i in range(n))
                     for k in range(1, n - 3))
        high = rows[-1][2:] + rows[-1][:2]
        assert list(gale_vectors(rows[0], high))[:n] == vs
        assert list(rows[1]) != next(frieze_module._lower_rows(rows[0], high))
        rep, condensed, reference = _paths(FriezeGrid(n, rows), monkeypatch)
        assert condensed and not rep.ok
        assert repr(rep) == repr(reference)


def test_rows_that_pass_the_row_check_without_closing_are_refused(monkeypatch):
    # the grid of the lower recursion from SELF_MATCHING_ROWS gives back its
    # own D_1 and U_1 and passes the row check. These vectors do not close,
    # and the recursion misses the border 1, 0, 0 at rows 3..5, so only the
    # border rows, part (a), refuse the grids
    for low, high in SELF_MATCHING_ROWS:
        rows = [list(low), *frieze_module._lower_rows(low, high)]
        grid = FriezeGrid(6, tuple(map(tuple, rows[:2])))
        assert grid.rows[-1][2:] + grid.rows[-1][:2] == high
        assert rows[2:] != [[1] * 6, [0] * 6, [0] * 6]
        vs = list(gale_vectors(low, high))
        assert vs[6:] != vs[:3]
        rep, condensed, reference = _paths(grid, monkeypatch)
        assert condensed and not rep.ok
        assert repr(rep) == repr(reference)


@functools.lru_cache(maxsize=None)
def _walk_grid(n: int, seed: int) -> FriezeGrid:
    return extend_rows(quiddity_rows(unit_specialization(random_maximal_family(GroundSet(n), 2 * n, seed))))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_one_entry_changes_of_walk_friezes_get_the_condensation_report(data):
    # one entry of a walk frieze moved by +-1 or a Fraction, or set to 0, on
    # the int grid and on the same grid in Fractions: the certificate refuses
    # wherever the condensation finds a failing diamond, and the report is
    # the condensation's own, failure lists and their repr included
    n = data.draw(st.integers(6, 14), label="n")
    grid = _walk_grid(n, data.draw(st.integers(0, 3), label="seed"))
    k = data.draw(st.integers(0, n - 5), label="row")
    i = data.draw(st.integers(0, n - 1), label="position")
    change = data.draw(st.sampled_from([1, -1, Fraction(1, 2), Fraction(-2, 3), None]), label="change")
    as_fractions = data.draw(st.booleans(), label="Fraction grid")
    rows = [list(map(Fraction, row)) if as_fractions else list(row) for row in grid.rows]
    rows[k][i] = rows[k][i] * 0 if change is None else rows[k][i] + change
    rep, _, reference = _paths(FriezeGrid(n, rows), pytest.MonkeyPatch)
    assert repr(rep) == repr(reference)


def test_gale_minors_equal_oracle_values():
    # certificate part (b) and beyond: the minor of every triple, in the grid
    # or not, is the value the BFS oracle finds, on the canonical family and
    # three walk families at n = 6, 7 and 8 (444 triples); minor_values gives
    # those minors, as ints
    for n in (6, 7, 8):
        triples = list(combinations(range(1, n + 1), 3))
        for fam in [canonical_family(n)] + [random_maximal_family(GroundSet(n), 3 * n, s) for s in (1, 2, 3)]:
            vf = unit_specialization(fam)
            q = quiddity_rows(vf)
            vs = list(gale_vectors(q.delta_low, q.delta_high))
            assert vs[n:] == vs[:3]
            minors = {(a, b, c): _reference_det([vs[a - 1], vs[b - 1], vs[c - 1]]) for a, b, c in triples}
            values = minor_values(vf, triples)
            assert minors == oracle_values(vf, triples) == values
            assert all(minors[t] == 1 for t in vf.family.triangles)
            assert all(type(v) is int for v in values.values())


@pytest.mark.parametrize("entry, args", [
    (quiddity_rows, (None,)),
    (quiddity_rows, (canonical_family(8),)),
    (minor_values, (None, [(1, 2, 3)])),
    (oracle_values, (None, [(1, 2, 3)])),
], ids=["quiddity_rows-None", "quiddity_rows-Family", "minor_values-None", "oracle_values-None"])
def test_valued_entry_points_refuse_an_argument_of_another_type(entry, args):
    # a bare AttributeError before; the wording of Family's refusal of a
    # ground that is not a GroundSet
    message = f"^valued family must be a ValuedFamily, got {re.escape(repr(args[0]))}$"
    with pytest.raises(InvalidInputError, match=message):
        entry(*args)


def test_minor_values_refuses_what_the_oracle_refuses():
    # one target check for both oracles: the same exceptions and messages
    vf = unit_specialization(canonical_family(8))
    for bad in ((1, 1, 2), (0, 1, 2), (1, 2, 9), 5, (1, "a", 3), [1, 2]):
        with pytest.raises(InvalidInputError, match=f"^bad target triangle {re.escape(repr(bad))}$"):
            oracle_values(vf, [(1, 2, 3), bad])
        with pytest.raises(InvalidInputError, match=f"^bad target triangle {re.escape(repr(bad))}$"):
            minor_values(vf, [(1, 2, 3), bad])
    for bad in (None, 5):
        message = f"^targets must be an iterable of triangles, got {bad!r}$"
        with pytest.raises(InvalidInputError, match=message):
            oracle_values(vf, bad)
        with pytest.raises(InvalidInputError, match=message):
            minor_values(vf, bad)
    # any order of the points, as a tuple or a list, names the same triangle
    assert minor_values(vf, [[7, 1, 4], (4, 7, 1)]) == {(1, 4, 7): 3}
    # the minors are the values of the unit specialization only
    values = dict(vf.values)
    values[(1, 2, 4)] = 2
    with pytest.raises(PreconditionError, match="all-ones"):
        minor_values(ValuedFamily(vf.family, values), [(1, 3, 5)])


@pytest.mark.parametrize("position, witness", [(0, "(1, 2, 4) has minor 2"), (3, "(1, 2, 7) has minor 2")])
def test_minor_values_names_a_family_triangle_whose_minor_is_not_one(monkeypatch, position, witness):
    # a contraction mutant: one entry of delta_low, the values of {i,i+1,i+3},
    # one too large. Certificate part (b) names the first family triangle, in
    # lex order, whose minor is not 1
    contract = frieze_module.quiddity_rows

    def off_by_one(vf):
        q = contract(vf)
        low = list(q.delta_low)
        low[position] += 1
        return QuiddityRows(q.n, tuple(low), q.delta_high)

    monkeypatch.setattr(frieze_module, "quiddity_rows", off_by_one)
    vf = unit_specialization(canonical_family(8))
    with pytest.raises(InternalConsistencyError,
                       match=rf"^certificate part \(b\) fails: family triangle {re.escape(witness)}, not 1$"):
        minor_values(vf, [(1, 3, 5)])


@pytest.mark.parametrize("n, steps", [(64, 200), (128, 200), (512, 200), (512, 0)],
                         ids=["walk-64", "walk-128", "walk-512", "canonical-512"])
def test_gale_vectors_of_quiddity_rows_give_one_on_every_triangle_at_scale(n, steps):
    # certificate part (b) where the per-x reference is too slow: the Gale
    # vectors of the contracted rows close up, and det(v_a, v_b, v_c) = 1 for
    # every triangle {a, b, c} of the family. 0 steps is the canonical family,
    # whose star at 1 has about 2n edges.
    fam = random_maximal_family(GroundSet(n), steps, 5)
    q = quiddity_rows(unit_specialization(fam))
    vs = list(gale_vectors(q.delta_low, q.delta_high))
    assert vs[n:] == vs[:3]
    assert len(fam) == 3 * n - 8
    bad = [(a, b, c) for a, b, c in fam.sorted_triangles() if _reference_det([vs[a - 1], vs[b - 1], vs[c - 1]]) != 1]
    assert not bad


def test_contraction_names_a_missing_frozen_edge():
    # a family without the continuous triangle {1,2,3} gets past no
    # ValuedFamily; built unchecked, the contraction at 1 names the missing
    # edge {2,3} of its star instead of failing to unpack it
    tris = [(1, 2, 6), (1, 2, 7), (1, 3, 4), (1, 3, 5), (1, 4, 5), (1, 5, 6), (1, 6, 7), (2, 3, 4), (3, 4, 5),
            (4, 5, 6), (5, 6, 7)]
    fam = Family(GroundSet(7), frozenset(tris), validated=True)
    with pytest.raises(InvalidInputError, match="^family must contain all continuous triangles$"):
        unit_specialization(fam)
    with pytest.raises(InternalConsistencyError, match=r"^frozen edge \(2, 3\) missing during contraction at x=1$"):
        quiddity_rows(_unchecked_unit(fam))


@pytest.mark.parametrize("entry", [10 ** 4299 + 7, Fraction(10 ** 4299 + 7, 3)], ids=["int", "Fraction"])
def test_certificate_stops_before_coordinates_outgrow_the_grid(entry, monkeypatch):
    # 4,300-digit entries, the most an entry string may carry, in D_1 and D_w
    # only, the other rows 1, at n = MAX_N: built to the end, the vectors
    # would reach about n times those digits. Every value the certificate
    # computes, the generated rows and any vectors, is recorded: the check
    # stops at row 2, the first row it generates and the first that differs,
    # and builds no vector
    rows_built, vectors_built = [], []

    def recording(generate, built):
        def record(low, high):
            for value in generate(low, high):
                built.append(value)
                yield value
        return record

    monkeypatch.setattr(frieze_module, "_lower_rows", recording(frieze_module._lower_rows, rows_built))
    monkeypatch.setattr(frieze_module, "gale_vectors", recording(frieze_module.gale_vectors, vectors_built))
    bits = max(Fraction(entry).numerator.bit_length(), Fraction(entry).denominator.bit_length())
    for n in (MAX_N, 8):
        grid = FriezeGrid(n, ((entry,) * n,) + ((1,) * n,) * (n - 6) + ((entry,) * n,))
        rows_built.clear()
        vectors_built.clear()
        assert not frieze_module._gale_certified(grid)
        assert len(rows_built) == 1 and not vectors_built
        computed = [Fraction(c) for row in rows_built + vectors_built for c in row]
        assert max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in computed) <= 3 * bits
    # the condensation then reports as it does alone (at n = 8, where it is
    # quick on such entries; the determinants are too long for repr)
    rep, condensed, reference = _paths(grid, monkeypatch)
    assert condensed and not rep.ok
    assert rep == reference


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
    assert _exact((v for row in again.rows for v in row), ints=True)


def test_frieze_file_entries_load_as_int_when_integral():
    grid = frieze_from_dict({"n": 5, "rows": [[7, "5", "4/2", "-6/3", "3/2"]]})
    assert [(type(v), v) for v in grid.rows[0]] == [
        (int, 7), (int, 5), (int, 2), (int, -2), (Fraction, Fraction(3, 2))]


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
    # parts past the 4,300-digit limit of str(int) are written out in full
    for v in (Fraction(10 ** 5000 + 1, 3), Fraction(-7, 10 ** 6000 + 3), Fraction(-10 ** 9000 - 12345),
              Fraction(10 ** 4300), Fraction(-10 ** 4300 + 1)):
        num, _, den = format_rational(v).partition("/")
        assert Fraction(parse_decimal(num), parse_decimal(den) if den else 1) == v
        assert not num.lstrip("-").startswith("0") and not den.startswith("0")


# -- the writer and the reader against their references --------------------------

def reference_dump(grid: FriezeGrid, validation=None) -> str:
    """The frieze file as the standard library's encoder lays it out: the
    reference dump_frieze must match byte for byte."""
    payload = {
        "schema_version": FRIEZE_SCHEMA_VERSION,
        "n": grid.n,
        "rows": [[format_rational(v) for v in row] for row in grid.rows],
    }
    if validation is not None:
        payload["validation"] = validation
    return json.dumps(payload, indent=2) + "\n"


def reference_render(grid: FriezeGrid) -> str:
    """The staircase layout with every entry formatted twice, once for the
    cell width and once for the body: the reference render_frieze must match
    byte for byte."""
    zeros, ones = (0,) * grid.n, (1,) * grid.n
    rows = [zeros, zeros, ones, *grid.rows, ones, zeros, zeros]
    cell = max(len(format_rational(v)) for row in rows for v in row)
    lines = []
    for r, row in enumerate(rows):
        body = (" " * cell).join(format_rational(v).ljust(cell) for v in row)
        lines.append((" " * (cell * r) + body).rstrip())
    return "\n".join(lines) + "\n"


def walk_frieze(n: int, steps: int, seed: int) -> FriezeGrid:
    return extend_rows(quiddity_rows(unit_specialization(random_maximal_family(GroundSet(n), steps, seed))))


def writer_grids():
    """Grids for the writer tests: int, Fraction (integral and not), negative
    and long entries, and walk friezes at n = 6, 32 and 512."""
    rng = random.Random(19)
    long = 10 ** 4300  # 4,301 digits, one past the limit of str(int)
    yield intro_frieze()  # Fraction entries, all integral
    yield FriezeGrid(8, INTRO_ROWS)  # the same as ints
    yield FriezeGrid(5, ((Fraction(3, 2), 1, Fraction(-2), Fraction(-1, 3), -5),))
    for _ in range(3):
        yield FriezeGrid(7, tuple(tuple(Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(7))
                                  for _ in range(3)))
        yield FriezeGrid(7, tuple(tuple(rng.randint(-10 ** 30, 10 ** 30) for _ in range(7)) for _ in range(3)))
    yield FriezeGrid(5, ((long, -long, 10 ** 4299, 1, -1),))  # one row past the limit, one entry at it
    yield FriezeGrid(5, ((Fraction(long + 1, 3), Fraction(-7, long + 3), 2, 3, 4),))
    yield FriezeGrid(6, ((1, 2, 3, 4, 5, 6), (-long - 1, 1, 1, 1, 1, 1)))  # only the second row is long
    for n in (6, 32, 512):
        yield walk_frieze(n, 200, 1)


def test_dump_frieze_is_the_json_encoder_byte_for_byte():
    for grid in writer_grids():
        text = dump_frieze(grid)
        assert text == reference_dump(grid), grid.n
        validation = {"sl3": True, "tame": False, "integral": True, "positive": False, "width": grid.width,
                      "period": grid.n}
        assert dump_frieze(grid, validation=validation) == reference_dump(grid, validation)


def test_render_frieze_is_the_two_pass_layout_byte_for_byte():
    for grid in writer_grids():
        assert render_frieze(grid) == reference_render(grid), grid.n


# the ValueError of int() and Fraction() on a 4,301-digit string
LIMIT = ("Exceeds the limit (4300 digits) for integer string conversion: value has 4301 digits; "
         "use sys.set_int_max_str_digits() to increase the limit")


def test_written_grids_load_back_with_their_entry_types():
    long = 10 ** 4300
    for grid in writer_grids():
        text = dump_frieze(grid)
        if any(max(abs(v.numerator), v.denominator) >= long for row in grid.rows for v in row):
            # written in full, but refused on reading, as any number past the limit is
            with pytest.raises(MalformedFileError, match=re.escape(LIMIT)):
                load_frieze(text)
            continue
        again = load_frieze(text)
        assert again == grid
        for row, again_row in zip(grid.rows, again.rows):
            for v, w in zip(row, again_row):
                # an integral Fraction is written as "p" and loads as an int
                assert type(w) is (int if v.denominator == 1 else Fraction), (v, w)


@pytest.mark.parametrize("entry, suffix", [
    ("1e3", ""), ("2.5", ""), (" 1", ""), ("1 ", ""), ("+1", ""), ("1_000", ""), ("\u0661", ""),
    ("", ""), ("-", ""), ("1/", ""), ("1/-2", ""), ("0x1", ""), (1.5, ""), (True, ""), (None, ""),
    ("1/0", ": Fraction(1, 0)"),
    ("1" * 4301, ": " + LIMIT), ("-" + "1" * 4301, ": " + LIMIT), ("1" * 4301 + "/3", ": " + LIMIT),
])
def test_frieze_reader_keeps_each_bad_entry_message(entry, suffix):
    with pytest.raises(MalformedFileError) as info:
        frieze_from_dict({"n": 5, "rows": [["1", "2", entry, "3", "4"]]})
    assert str(info.value) == f"bad frieze entry {entry!r}{suffix}"
    text = json.dumps({"n": 5, "rows": [[1, "2", entry, "3", "4"]]})
    with pytest.raises(MalformedFileError) as info:
        load_frieze(text)
    assert str(info.value) == f"bad frieze entry {entry!r}{suffix}"


def test_frieze_reader_entry_forms():
    grid = frieze_from_dict({"n": 5, "rows": [["007", "-0", "-12", "10/4", "4300" + "0" * 4296]]})
    assert [(type(v), v) for v in grid.rows[0]] == [
        (int, 7), (int, 0), (int, -12), (Fraction, Fraction(5, 2)), (int, 4300 * 10 ** 4296)]
