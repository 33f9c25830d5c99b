"""Tame integral SL3-friezes from maximal weakly separated triangle families.

The package surface is lazy (PEP 562): ``import sl3frieze`` loads no
submodule, and each exported name imports its submodule on first access, so a
caller pays only for the layers it uses.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_SUBMODULE = {
    "GroundSet": "cyclic",
    "FriezeError": "errors",
    **dict.fromkeys((
        "Family", "canonical_family", "frozen_triangles", "greedy_complete", "is_maximal_family",
        "is_weakly_separated_family", "make_family", "make_triangle",
    ), "family"),
    **dict.fromkeys((
        "FriezeGrid", "QuiddityRows", "almost_continuous_at",
        "extend_rows", "minor_values", "quiddity_rows", "render_frieze", "validate_frieze",
    ), "frieze"),
    **dict.fromkeys((
        "MutationMove", "ValuedFamily", "exchange_value",
        "family_moves", "mutate", "oracle_values",
        "random_maximal_family", "unit_specialization",
    ), "mutation"),
    "crossing": "separation",
    **dict.fromkeys((
        "StarGraph", "StructureReport", "border_triangles", "build_star_graph",
        "realize_star_graph", "star_graph_from_edges", "verify_structure_theorem",
    ), "stargraph"),
}

__all__ = [*_SUBMODULE, "__version__"]


def __getattr__(name):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
