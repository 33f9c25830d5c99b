"""Acceptance suite: one test per criterion, exact arithmetic throughout.

    1. the width-4 fixture validates (3x3 det 1, 4x4 det 0, period 8) in < 1 s
    2. crossing (the gap formula) agrees with the definitional search of
       tests/reference.py on every triangle pair, n = 6..10
    3. structure verification and border-triangle membership hold for 200
       random maximal families per n in {6,7,8,9}, at every x, in < 2 min
    4. the contraction algorithm equals the mutation oracle on both outputs,
       every x, 50 random families per n in {6,7,8}
    5. end-to-end friezes validate with positive integer entries; every grid
       entry equals the oracle value of its triple (exhaustive for n <= 8,
       >= 20 sampled entries per family for n in {9,10})
    6. the two row recursions name one array: U_k(i) = D_{n-3-k}(i+k+1),
       checked per entry on every computed grid
    7. mutate twice (move then inverse) returns the original valued family and
       every intermediate is maximal, with every value a Gale minor of the
       original family, over 10^4 (family, move) pairs
    8. star-graph round trip: realize(build(F,x)) reproduces the graph for a
       100-case corpus

Run with `pytest -s` to see one PASS line per criterion.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import intro_frieze, plucker_triple
from reference import crossing_definition
from sl3frieze.cyclic import GroundSet
from sl3frieze.family import is_maximal_family, is_weakly_separated_family
from sl3frieze.frieze import (
    QuiddityRows,
    almost_continuous_at,
    extend_rows,
    minor_values,
    quiddity_rows,
    validate_frieze,
)
from sl3frieze.mutation import (
    family_moves,
    mutate,
    oracle_values,
    random_maximal_family,
    unit_specialization,
)
from sl3frieze.separation import crossing
from sl3frieze.stargraph import (
    border_triangles,
    build_star_graph,
    realize_star_graph,
    verify_structure_theorem,
)

GEN_STEPS = 30


def report(criterion: int, message: str):
    print(f"ACCEPTANCE {criterion} PASS: {message}")


@pytest.fixture(scope="module")
def corpus():
    """Random maximal families per ground size, deterministic seeds."""
    out = {}
    for n, count in ((6, 200), (7, 200), (8, 200), (9, 200), (10, 20)):
        g = GroundSet(n)
        out[n] = [random_maximal_family(g, steps=GEN_STEPS, seed=1000 * n + s)
                  for s in range(count)]
    return out


@pytest.fixture(scope="module")
def grids(corpus):
    """Computed frieze grids for the criterion-4/5 slices of the corpus."""
    out = {}
    for n in (6, 7, 8):
        out[n] = []
        for fam in corpus[n][:50]:
            vf = unit_specialization(fam)
            out[n].append((vf, extend_rows(quiddity_rows(vf))))
    for n in (9, 10):
        out[n] = []
        for fam in corpus[n][:20]:
            vf = unit_specialization(fam)
            out[n].append((vf, extend_rows(quiddity_rows(vf))))
    return out


def test_criterion_1_paper_fixture_validates():
    start = time.time()
    rep = validate_frieze(intro_frieze())
    elapsed = time.time() - start
    assert rep.is_sl3, rep.sl3_failures
    assert rep.is_tame, rep.tame_failures
    assert rep.n == 8 and rep.width == 4
    assert rep.integral and rep.positive
    assert elapsed < 1.0, f"validation took {elapsed:.3f}s"
    report(1, f"width-4 fixture: all diamonds exact, period 8, {elapsed * 1000:.0f} ms")


def test_criterion_2_predicate_equivalence():
    start = time.time()
    pairs = 0
    for n in range(6, 11):
        tris = list(combinations(range(1, n + 1), 3))
        for i, A in enumerate(tris):
            for B in tris[i:]:
                d = crossing_definition(A, B)
                assert d == crossing(A, B), (n, A, B)
                if len(set(A) & set(B)) >= 2:
                    assert not d, (n, A, B)
                pairs += 1
    report(2, f"{pairs} pairs across n=6..10, zero disagreements, "
              f"shared pairs never cross ({time.time() - start:.1f}s)")


def test_criterion_3_structure_theorem_sweep(corpus):
    start = time.time()
    families = 0
    checks = 0
    for n in (6, 7, 8, 9):
        for fam in corpus[n]:
            families += 1
            for x in fam.ground.points():
                g = build_star_graph(fam, x)
                rep = verify_structure_theorem(g)
                assert rep.ok, (n, x, rep.violations)
                for t in border_triangles(fam, x):
                    assert t in fam.triangles, (n, x, t)
                checks += 1
    elapsed = time.time() - start
    assert elapsed < 120.0, f"sweep took {elapsed:.1f}s"
    report(3, f"{families} families, {checks} (family, x) checks, zero violations "
              f"({elapsed:.1f}s)")


def _almost_continuous_triples(g: GroundSet, x: int):
    lo = tuple(sorted((g.wrap(x - 2), g.wrap(x - 1), g.wrap(x + 1))))
    hi = tuple(sorted((g.wrap(x - 1), g.wrap(x + 1), g.wrap(x + 2))))
    return lo, hi


def _grid_triples(g: GroundSet):
    return {(k, i): plucker_triple(g.n, k, i)
            for k in range(1, g.n - 3) for i in g.points()}


@pytest.fixture(scope="module")
def oracle_results(grids):
    """One multi-target oracle run per family, shared by criteria 4 and 5."""
    out = {}
    for n in (6, 7, 8):
        g = GroundSet(n)
        out[n] = []
        for vf, grid in grids[n]:
            triples = _grid_triples(g)
            per_x = {x: _almost_continuous_triples(g, x) for x in g.points()}
            targets = set(triples.values())
            for pair in per_x.values():
                targets.update(pair)
            out[n].append((vf, grid, per_x, triples, oracle_values(vf, targets)))
    return out


def test_criterion_4_algorithm_equals_oracle(oracle_results):
    start = time.time()
    checked = 0
    for n in (6, 7, 8):
        for vf, grid, per_x, _, values in oracle_results[n]:
            for x, (t_lo, t_hi) in per_x.items():
                lo, hi = almost_continuous_at(vf, x)
                assert lo == values[t_lo], (n, x)
                assert hi == values[t_hi], (n, x)
                checked += 1
    report(4, f"algorithm == oracle on both triples at every x of 50 families "
              f"per n in 6..8, {checked} checks, zero mismatches "
              f"({time.time() - start:.1f}s)")


def test_criterion_5_end_to_end_friezes(oracle_results, grids):
    start = time.time()
    entry_checked = 0
    for n in (6, 7, 8):
        for vf, grid, _, triples, values in oracle_results[n]:
            rep = validate_frieze(grid)
            assert rep.ok and rep.integral and rep.positive, (n, rep)
            for (k, i), t in triples.items():
                assert grid.entry(k, i) == values[t], (n, k, i)
                entry_checked += 1
    sampled = 0
    for n in (9, 10):
        rng = random.Random(77 * n)
        for idx, (vf, grid) in enumerate(grids[n]):
            rep = validate_frieze(grid)
            assert rep.ok and rep.integral and rep.positive, (n, rep)
            if idx >= (4 if n == 9 else 3):
                continue  # oracle spot checks on the leading slice only
            positions = set()
            while len(positions) < 20:
                positions.add((rng.randrange(1, n - 3), rng.randrange(1, n + 1)))
            targets = {pos: plucker_triple(n, *pos) for pos in positions}
            values = oracle_values(vf, set(targets.values()))
            for (k, i), t in targets.items():
                assert grid.entry(k, i) == values[t], (n, k, i)
                sampled += 1
    report(5, f"all grids tame integral positive; {entry_checked} exhaustive + "
              f"{sampled} sampled entries equal the oracle ({time.time() - start:.1f}s)")


def test_criterion_6_dual_recursion_identity(grids):
    positions = 0
    for n in grids:
        g = GroundSet(n)
        for vf, grid in grids[n]:
            q = QuiddityRows(n, grid.rows[0],
                             tuple(grid.entry(grid.width, i + 2) for i in range(1, n + 1)))
            upper = {1: list(q.delta_high)}

            def u(k, i):
                return Fraction(1) if k == 0 else upper[k][(i - 1) % n]

            for k in range(2, grid.width + 1):
                if k == 2:
                    upper[k] = [u(1, i + 1) * u(1, i) - q.delta_low[i - 1] for i in range(1, n + 1)]
                else:
                    upper[k] = [u(1, i + k - 1) * u(k - 1, i) - q.delta_low[(i + k - 3) % n] * u(k - 2, i)
                                + u(k - 3, i) for i in range(1, n + 1)]
            for k in range(1, grid.width + 1):
                m = n - 3 - k
                for i in g.points():
                    # same index set, hence the same value, exactly
                    assert plucker_triple(n, m, g.wrap(i + k + 1)) == tuple(
                        sorted((i, g.wrap(i + k + 1), g.wrap(i + k + 2))))
                    assert u(k, i) == grid.entry(m, i + k + 1), (n, k, i)
                    positions += 1
    report(6, f"upper recursion equals relabeled lower rows at {positions} positions")


def test_criterion_7_mutation_involution_and_closure(corpus):
    start = time.time()
    pairs = 0
    rng = random.Random(4242)
    pool = [fam for n in (6, 7, 8, 9) for fam in corpus[n][:40]]
    while pairs < 10_000:
        fam = pool[pairs % len(pool)]
        vf = unit_specialization(fam)
        moves = family_moves(fam)
        move = moves[rng.randrange(len(moves))]
        there = mutate(vf, move)
        assert is_weakly_separated_family(there.family) == (True, None), (fam.ground.n, move)
        assert is_maximal_family(there.family), (fam.ground.n, move)
        assert there.values == minor_values(vf, there.family.triangles), (fam.ground.n, move)
        back = mutate(there, move.inverse())
        assert is_weakly_separated_family(back.family) == (True, None), (fam.ground.n, move)
        assert is_maximal_family(back.family), (fam.ground.n, move)
        assert back.family.triangles == vf.family.triangles
        assert back.values == vf.values
        pairs += 1
    report(7, f"{pairs} involution checks with validated intermediates, their values minors "
              f"({time.time() - start:.1f}s)")


def test_criterion_8_realization_round_trip(corpus):
    cases = 0
    for n in (6, 7, 8, 9):
        g = GroundSet(n)
        for fam in corpus[n][:9]:
            for x in (1, (cases % g.n) + 1, ((cases * 3) % g.n) + 1):
                sg = build_star_graph(fam, x)
                realized = realize_star_graph(sg)
                ok, pair = is_weakly_separated_family(realized)
                assert ok, pair
                assert build_star_graph(realized, x).edges == sg.edges, (n, x)
                cases += 1
                if cases >= 100:
                    break
            if cases >= 100:
                break
        if cases >= 100:
            break
    assert cases >= 100
    report(8, f"{cases} (family, x) realization round trips, zero failures")
