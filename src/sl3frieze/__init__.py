"""Tame integral SL3-friezes from maximal weakly separated triangle families."""

from .cyclic import GroundSet, cyclically_ordered, interval, less_x
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
    build_plucker_frieze_map,
    extend_rows,
    quiddity_rows,
    render_frieze,
    validate_frieze,
)
from .mutation import (
    MutationMove,
    ValuedFamily,
    contract_degree2,
    exchange_value,
    family_moves,
    mutate,
    oracle_value,
    oracle_values,
    random_maximal_family,
    remove_leaf,
    unit_specialization,
)
from .separation import crossing, crossing_cases, crossing_definition, weakly_separated
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
    "GroundSet", "cyclically_ordered", "interval", "less_x",
    "FriezeError",
    "Family", "canonical_family", "frozen_triangles", "greedy_complete", "is_maximal_family",
    "is_weakly_separated_family", "make_family", "make_triangle",
    "FriezeGrid", "QuiddityRows", "almost_continuous_at", "build_plucker_frieze_map",
    "extend_rows", "quiddity_rows", "render_frieze", "validate_frieze",
    "MutationMove", "ValuedFamily", "contract_degree2", "exchange_value",
    "family_moves", "mutate", "oracle_value", "oracle_values",
    "random_maximal_family", "remove_leaf", "unit_specialization",
    "crossing", "crossing_cases", "crossing_definition", "weakly_separated",
    "StarGraph", "StructureReport", "border_triangles", "build_star_graph",
    "realize_star_graph", "star_graph_from_edges", "star_subfamily",
    "verify_structure_theorem",
    "__version__",
]
