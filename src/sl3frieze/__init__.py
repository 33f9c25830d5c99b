"""Tame integral SL3-friezes from maximal weakly separated triangle families."""

from .cyclic import GroundSet
from .errors import FriezeError
from .family import (
    Family,
    canonical_family,
    frozen_triangles,
    greedy_complete,
    is_maximal_family,
    is_weakly_separated_family,
    make_family,
    make_triangle,
)
from .frieze import (
    FriezeGrid,
    QuiddityRows,
    almost_continuous_at,
    extend_rows,
    quiddity_rows,
    render_frieze,
    validate_frieze,
)
from .mutation import (
    MutationMove,
    ValuedFamily,
    exchange_value,
    family_moves,
    mutate,
    oracle_value,
    oracle_values,
    random_maximal_family,
    unit_specialization,
)
from .separation import crossing, crossing_definition
from .stargraph import (
    StarGraph,
    StructureReport,
    border_triangles,
    build_star_graph,
    realize_star_graph,
    star_graph_from_edges,
    star_subfamily,
    verify_structure_theorem,
)

__version__ = "0.1.0"

__all__ = [
    "GroundSet",
    "FriezeError",
    "Family", "canonical_family", "frozen_triangles", "greedy_complete", "is_maximal_family",
    "is_weakly_separated_family", "make_family", "make_triangle",
    "FriezeGrid", "QuiddityRows", "almost_continuous_at",
    "extend_rows", "quiddity_rows", "render_frieze", "validate_frieze",
    "MutationMove", "ValuedFamily", "exchange_value",
    "family_moves", "mutate", "oracle_value", "oracle_values",
    "random_maximal_family", "unit_specialization",
    "crossing", "crossing_definition",
    "StarGraph", "StructureReport", "border_triangles", "build_star_graph",
    "realize_star_graph", "star_graph_from_edges", "star_subfamily",
    "verify_structure_theorem",
    "__version__",
]
