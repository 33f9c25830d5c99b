"""Value semantics of the package's nine value classes, each a ``cyclic.Record``.

Claims covered:
    - repr reads ``Name(field=value!r, ...)``, the strings pinned below
    - equality: same class and equal compared fields; another class gives
      NotImplemented
    - hash is the hash of the tuple of compared fields; ValuedFamily,
      FriezeReport and StructureReport hold a dict or lists and are unhashable
    - Family compares and hashes its ground and triangles, not its validated
      mark, which its repr shows
    - StarGraph compares and hashes x, ground, edges and triangulation points
      only, and its repr omits the neighbour masks; it is built from the masks
      alone, so two equal star graphs check and realize alike
    - setting or deleting any field raises AttributeError
    - pickle and copy give an equal value of the same class
    - FriezeGrid and QuiddityRows store rows given as lists as tuples, so
      they hash, and refuse rows that are not a tuple or a list, and a
      period n that is a float, None or a bool, with InvalidInputError
"""

import copy
import pickle

import pytest

from sl3frieze.cyclic import GroundSet
from sl3frieze.errors import FriezeError, InvalidInputError
from sl3frieze.family import Family, canonical_family
from sl3frieze.frieze import FriezeGrid, FriezeReport, QuiddityRows, extend_rows, quiddity_rows, validate_frieze
from sl3frieze.mutation import MutationMove, ValuedFamily, unit_specialization
from sl3frieze.stargraph import (
    StarGraph,
    StructureReport,
    build_star_graph,
    realize_star_graph,
    star_graph_from_edges,
    verify_structure_theorem,
)


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

COMPARED = {**FIELDS, Family: ("ground", "triangles"), StarGraph: ("x", "ground", "edges", "triangulation_points")}

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


def _outcome(f, *args):
    """f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except FriezeError as e:
        return type(e), str(e)


def test_frieze_records_store_their_rows_as_tuples():
    # rows given as lists are stored as tuples, so the record hashes and
    # equals the one built from tuples
    grid = FriezeGrid(8, [[1] * 8] * 4)
    assert grid == FriezeGrid(8, ((1,) * 8,) * 4) and hash(grid) == hash(FriezeGrid(8, ((1,) * 8,) * 4))
    assert type(grid.rows) is tuple and all(type(row) is tuple for row in grid.rows)
    rows = QuiddityRows(8, (1,) * 8, [1] * 8)
    assert rows == QuiddityRows(8, (1,) * 8, (1,) * 8) and type(rows.delta_high) is tuple
    hash(rows)


@pytest.mark.parametrize("build, message", [
    (lambda: FriezeGrid(8, None), "^frieze rows must be a tuple or a list, got NoneType$"),
    (lambda: FriezeGrid(8, (None,) * 4), "^a frieze row must be a tuple or a list, got NoneType$"),
    (lambda: FriezeGrid(8, iter([(1,) * 8] * 4)), "^frieze rows must be a tuple or a list, got list_iterator$"),
    (lambda: QuiddityRows(8, None, None), "^a quiddity row must be a tuple or a list, got NoneType$"),
    (lambda: QuiddityRows(8, (1,) * 8, 1), "^a quiddity row must be a tuple or a list, got int$"),
], ids=["grid-None", "row-None", "grid-iterator", "quiddity-None", "quiddity-int"])
def test_frieze_records_refuse_rows_that_are_not_sequences(build, message):
    with pytest.raises(InvalidInputError, match=message):
        build()


@pytest.mark.parametrize("build, n", [
    (lambda: FriezeGrid(8.0, ((1,) * 8,) * 4), "8.0"),
    (lambda: FriezeGrid(None, ((1,) * 8,) * 4), "None"),
    (lambda: FriezeGrid(True, ((1,) * 8,)), "True"),
    (lambda: QuiddityRows(None, (1,) * 8, (1,) * 8), "None"),
    (lambda: QuiddityRows(8.0, (1,) * 8, (1,) * 8), "8.0"),
    (lambda: QuiddityRows(True, (1,), (1,)), "True"),
], ids=["grid-float", "grid-None", "grid-bool", "quiddity-None", "quiddity-float", "quiddity-bool"])
def test_frieze_records_refuse_a_period_that_is_not_an_int(build, n):
    # a float n once passed every comparison (8.0 == 4 + 4) and failed later
    # in validate_frieze with a bare TypeError; None failed on n > MAX_N
    with pytest.raises(InvalidInputError, match=f"^frieze period must be an integer, got {n}$"):
        build()


def test_equal_star_graphs_check_and_realize_alike(values):
    # a StarGraph is built from its masks alone: the edges and triangulation
    # points of one graph cannot be paired with other masks, and equal graphs
    # give equal reports and realize alike, or fail alike
    g = build_star_graph(canonical_family(8), 3)
    with pytest.raises(TypeError):
        StarGraph(g.x, g.ground, g.edges, g.triangulation_points, g.leaves, {})
    g8 = GroundSet(8)
    graphs = [g, values[StarGraph], star_graph_from_edges(1, g8, [(2, 8), (2, 3), (7, 8), (5, 6)]),
              star_graph_from_edges(1, g8, [(2, 5), (5, 8), (2, 8), (2, 6), (2, 3), (7, 8)])]
    for f in graphs:
        twins = [StarGraph(f.x, f.ground, dict(reversed(f.masks.items()))),
                 star_graph_from_edges(f.x, f.ground, sorted(f.edges, reverse=True)),
                 pickle.loads(pickle.dumps(f))]
        for h in twins:
            assert h == f and hash(h) == hash(f)
            assert (h.masks, h.leaves) == (f.masks, f.leaves)
            assert verify_structure_theorem(h) == verify_structure_theorem(f)
            assert _outcome(realize_star_graph, h) == _outcome(realize_star_graph, f)
    outcomes = [_outcome(realize_star_graph, f) for f in graphs]
    assert [type(o) for o in outcomes] == [Family, Family, tuple, tuple]  # two realize, two fail
    assert StarGraph(2, g.ground, g.masks) != g
    assert "masks" not in repr(g)
    masks = dict(g.masks)
    h = StarGraph(g.x, g.ground, masks)
    masks.clear()  # the graph keeps its own copy
    assert h.masks == g.masks and h.leaves == g.leaves
