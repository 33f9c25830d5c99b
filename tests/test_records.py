"""Value semantics of the package's nine value classes, each a ``cyclic.Record``.

Claims covered:
    - repr reads ``Name(field=value!r, ...)``, the strings pinned below
    - equality: same class and equal compared fields; another class gives
      NotImplemented
    - hash is the hash of the tuple of compared fields; ValuedFamily,
      FriezeReport and StructureReport hold a dict or lists and are unhashable
    - StarGraph compares and hashes x, ground, edges and triangulation points
      only, and its repr omits the neighbour masks
    - setting or deleting any field raises AttributeError
    - pickle and copy give an equal value of the same class
"""

import copy
import pickle

import pytest

from sl3frieze.cyclic import GroundSet
from sl3frieze.family import Family, canonical_family
from sl3frieze.frieze import FriezeGrid, FriezeReport, QuiddityRows, extend_rows, quiddity_rows, validate_frieze
from sl3frieze.mutation import MutationMove, ValuedFamily, unit_specialization
from sl3frieze.stargraph import StarGraph, StructureReport, build_star_graph, verify_structure_theorem


def instances() -> dict:
    """One value of each class, all built from the canonical family at n = 6."""
    fam = canonical_family(6)
    vf = unit_specialization(fam)
    rows = quiddity_rows(vf)
    grid = extend_rows(rows)
    star = build_star_graph(fam, 1)
    return {
        GroundSet: GroundSet(6),
        Family: Family(GroundSet(6), frozenset({(1, 2, 3)})),
        MutationMove: MutationMove(1, 2, 3, 4, 5),
        ValuedFamily: ValuedFamily(fam, {t: 1 for t in sorted(fam.triangles)}),
        QuiddityRows: rows,
        FriezeGrid: grid,
        FriezeReport: validate_frieze(grid),
        StarGraph: star,
        StructureReport: verify_structure_theorem(star),
    }


CANONICAL_6 = ("Family(ground=GroundSet(n=6), triangles=frozenset({(1, 2, 6), (1, 2, 3), (1, 3, 4), "
               "(1, 5, 6), (3, 4, 5), (2, 3, 4), (4, 5, 6), (1, 2, 5), (1, 4, 5), (1, 2, 4)}), validated=True)")

REPRS = {
    GroundSet: "GroundSet(n=6)",
    Family: "Family(ground=GroundSet(n=6), triangles=frozenset({(1, 2, 3)}), validated=False)",
    MutationMove: "MutationMove(z=1, a=2, b=3, c=4, d=5)",
    ValuedFamily: (f"ValuedFamily(family={CANONICAL_6}, values={{(1, 2, 3): 1, (1, 2, 4): 1, (1, 2, 5): 1, "
                   "(1, 2, 6): 1, (1, 3, 4): 1, (1, 4, 5): 1, (1, 5, 6): 1, (2, 3, 4): 1, (3, 4, 5): 1, "
                   "(4, 5, 6): 1})"),
    QuiddityRows: "QuiddityRows(n=6, delta_low=(1, 3, 3, 1, 3, 3), delta_high=(1, 2, 3, 2, 1, 6))",
    FriezeGrid: "FriezeGrid(n=6, rows=((1, 3, 3, 1, 3, 3), (1, 6, 1, 2, 3, 2)))",
    FriezeReport: ("FriezeReport(n=6, width=2, is_sl3=True, is_tame=True, integral=True, positive=True, "
                   "sl3_failures=[], tame_failures=[])"),
    StarGraph: ("StarGraph(x=1, ground=GroundSet(n=6), edges=frozenset({(2, 4), (3, 4), (2, 3), (4, 5), "
                "(2, 6), (5, 6), (2, 5)}), triangulation_points=(2, 3, 4, 5, 6), leaves={})"),
    StructureReport: "StructureReport(ok=True, violations=[])",
}

FIELDS = {
    GroundSet: ("n",),
    Family: ("ground", "triangles", "validated"),
    MutationMove: ("z", "a", "b", "c", "d"),
    ValuedFamily: ("family", "values"),
    QuiddityRows: ("n", "delta_low", "delta_high"),
    FriezeGrid: ("n", "rows"),
    FriezeReport: ("n", "width", "is_sl3", "is_tame", "integral", "positive", "sl3_failures", "tame_failures"),
    StarGraph: ("x", "ground", "edges", "triangulation_points", "leaves", "masks"),
    StructureReport: ("ok", "violations"),
}

COMPARED = {**FIELDS, StarGraph: ("x", "ground", "edges", "triangulation_points")}

UNHASHABLE = (ValuedFamily, FriezeReport, StructureReport)

CLASSES = list(FIELDS)


@pytest.fixture(scope="module")
def values():
    return instances()


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_repr_is_pinned(values, cls):
    assert repr(values[cls]) == REPRS[cls]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_hash_is_the_hash_of_the_compared_fields(values, cls):
    x = values[cls]
    key = tuple(getattr(x, f) for f in COMPARED[cls])
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(key)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equality_is_per_class_over_the_compared_fields(values, cls):
    x, y = values[cls], instances()[cls]
    assert x == y and not x != y
    assert x.__eq__(tuple(getattr(x, f) for f in COMPARED[cls])) is NotImplemented
    other = values[GroundSet if cls is not GroundSet else MutationMove]
    assert x.__eq__(other) is NotImplemented and x != other


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_cannot_be_set_or_deleted(values, cls):
    x = values[cls]
    for f in FIELDS[cls]:
        before = getattr(x, f)
        with pytest.raises(AttributeError):
            setattr(x, f, before)
        with pytest.raises(AttributeError):
            delattr(x, f)
        assert getattr(x, f) is before
    with pytest.raises(AttributeError):
        x.not_a_field = 1


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_pickle_and_copy_keep_the_value(values, cls):
    x = values[cls]
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(y) is cls and y == x
        assert tuple(getattr(y, f) for f in FIELDS[cls]) == tuple(getattr(x, f) for f in FIELDS[cls])


def test_star_graphs_differing_only_in_leaves_or_masks_are_equal(values):
    g = values[StarGraph]
    for leaves, masks in (({7: 2}, g.masks), (g.leaves, {}), ({7: 2}, {2: 1 << 3})):
        h = StarGraph(g.x, g.ground, g.edges, g.triangulation_points, leaves, masks)
        assert h == g and hash(h) == hash(g)
    assert StarGraph(2, g.ground, g.edges, g.triangulation_points, g.leaves, g.masks) != g
    assert "masks" not in repr(g)
