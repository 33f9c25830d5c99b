"""Spans around the benchmark's calls into the library's public functions.

The benchmark never edits the library: each workload calls the public
functions through a namespace built by ``layer_functions``. Without a tracer
the namespace holds the functions themselves, so an untraced run pays nothing;
with a tracer every function is wrapped in a span named ``<module>.<function>``.

Spans are recorded only at the benchmark's own call sites, one level deep
inside an op, so they never nest and a span's self time is its duration.
"""

from __future__ import annotations

import importlib
from time import perf_counter
from types import SimpleNamespace

# Public functions the workloads call, by module of src/sl3frieze. The
# crossing predicates of `cyclic` and `separation` are reached only through
# `family`; `fixtures` and `errors` do no work of their own.
LAYERS = {
    "family": ("frozen_triangles", "greedy_complete", "is_weakly_separated_family",
               "load_family", "dump_family"),
    "mutation": ("unit_specialization", "random_maximal_family", "family_moves",
                 "mutate", "oracle_values", "format_trace_line"),
    "frieze": ("quiddity_rows", "extend_rows", "validate_frieze", "dump_frieze"),
    "stargraph": ("build_star_graph", "verify_structure_theorem", "border_triangles",
                  "realize_star_graph"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


class Tracer:
    """In-memory span log: (op index, name, start, end) in perf_counter seconds.

    Spans of one op share its index; the op's own span is named "op".
    """

    def __init__(self):
        self.spans = []
        self.op = 0

    def wrap(self, name, fn):
        spans = self.spans

        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((self.op, name, start, perf_counter()))

        return traced


def layer_functions(tracer=None) -> SimpleNamespace:
    """The functions named in LAYERS, wrapped in spans when a tracer is given."""
    ns = {}
    for mod, names in LAYERS.items():
        module = importlib.import_module(f"sl3frieze.{mod}")
        for fn in names:
            func = getattr(module, fn)
            ns[fn] = func if tracer is None else tracer.wrap(f"{mod}.{fn}", func)
    return SimpleNamespace(**ns)
