"""Exhaustive verification at small n: every maximal weakly separated family.

``conftest.maximal_families`` enumerates the families by a breadth-first
search over exchange moves from the canonical family. The counts pinned in
FAMILY_COUNTS were measured by that search, not taken from the literature;
the n = 8 count is the one the conftest docstring records from flip search
and clique search.

Claims covered, for every family at n = 6, 7 and 8:
    - the search finds 34, 259 and 2,136 families
    - the family is weakly separated, with 3n - 8 triangles
    - every star passes the structure check, and its border triangles lie in
      the family
    - the Gale vectors of its quiddity rows close up (certificate part (a)),
      and the frieze they extend to validates: SL3, tame, integral, positive
    - the triples whose Gale minor det(v_a, v_b, v_c) is 1 are exactly the
      family (so part (b) holds)
    - no two families have the same quiddity rows
    - no continuous triangle has a move, the lemma the oracle's keys rest on
    - every distinct star graph at n <= 7 realizes back to itself, masks
      included

Run as a script, ``python tests/test_exhaustive.py 9`` makes the same family
checks at n = 9 (18,600 families) and exits 1 on the first failure.
"""

import sys
from itertools import combinations

import pytest

from conftest import maximal_families
from sl3frieze.family import continuous_triangles, is_weakly_separated_family, maximal_size
from sl3frieze.frieze import extend_rows, gale_vectors, quiddity_rows, validate_frieze
from sl3frieze.mutation import _masks, _moves, _pivoted, unit_specialization
from sl3frieze.stargraph import border_triangles, build_star_graph, realize_star_graph, verify_structure_theorem

FAMILY_COUNTS = {6: 34, 7: 259, 8: 2136, 9: 18600}  # measured by maximal_families


def _det(u, v, w) -> int:
    return (u[0] * (v[1] * w[2] - v[2] * w[1]) - u[1] * (v[0] * w[2] - v[2] * w[0])
            + u[2] * (v[0] * w[1] - v[1] * w[0]))


def check_family(fam) -> tuple:
    """Assert every per-family claim above for one family; its quiddity rows."""
    n = fam.ground.n
    assert is_weakly_separated_family(fam) == (True, None)
    assert len(fam) == maximal_size(fam.ground)
    for x in fam.ground.points():
        rep = verify_structure_theorem(build_star_graph(fam, x))
        assert rep.ok, (sorted(fam.triangles), x, rep.violations)
        assert set(border_triangles(fam, x)) <= fam.triangles, (sorted(fam.triangles), x)
    rows = quiddity_rows(unit_specialization(fam))
    vs = list(gale_vectors(rows.delta_low, rows.delta_high))
    assert vs[n:] == vs[:3], sorted(fam.triangles)
    report = validate_frieze(extend_rows(rows))
    assert report.is_sl3 and report.is_tame and report.integral and report.positive, sorted(fam.triangles)
    ones = {t for t in combinations(range(1, n + 1), 3) if _det(*(vs[p - 1] for p in t)) == 1}
    assert ones == fam.triangles, sorted(fam.triangles)
    frozen = [pv for t in continuous_triangles(n) for pv in _pivoted(t)]
    assert _moves(_masks(fam.triangles, n), frozen) == [], sorted(fam.triangles)
    return rows.delta_low, rows.delta_high


def check_every_family(n: int) -> int:
    """check_family on every maximal family over [n], and that their rows
    are pairwise distinct; the number of families."""
    fams = maximal_families(n)
    assert len(fams) == FAMILY_COUNTS[n]
    assert len({check_family(fam) for fam in fams}) == len(fams)
    return len(fams)


@pytest.mark.parametrize("n", [6, 7, 8])
def test_every_maximal_family(n):
    assert check_every_family(n) == FAMILY_COUNTS[n]


def test_every_star_graph_realizes_back_to_itself():
    for n in (6, 7):
        graphs = {build_star_graph(fam, x) for fam in maximal_families(n) for x in fam.ground.points()}
        for g in graphs:
            h = build_star_graph(realize_star_graph(g), g.x)
            assert h == g and h.masks == g.masks, (n, g)


if __name__ == "__main__":
    n = int(sys.argv[1])
    print(f"n = {n}: {check_every_family(n)} maximal families, every check holds")
