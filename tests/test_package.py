"""The public surface: every exported name resolves, once.

Claims covered:
    - `from sl3frieze import *` succeeds and binds exactly the names of
      `sl3frieze.__all__`
    - `__all__` lists each name once, and each resolves on the package
    - the surface is lazy: `import sl3frieze` loads no submodule, a name loads
      only its own submodule's imports and is then cached on the package, and
      an unknown name raises AttributeError
    - every sl3frieze name the benchmark harness imports (perfbench/*.py,
      the Python source in its strings included) and every function its
      tracer wraps (tracing.LAYERS) resolves; the harness is only read
"""

import ast
import importlib
from pathlib import Path

from conftest import run_fresh
import sl3frieze

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_star_import_binds_all_exported_names():
    namespace = {}
    exec("from sl3frieze import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(sl3frieze.__all__)


def test_all_names_resolve_without_duplicates():
    names = sl3frieze.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(sl3frieze, name)]
    assert missing == []


def test_import_loads_no_submodule():
    assert run_fresh("import sl3frieze") == ([], ["sl3frieze"])


def test_a_name_loads_its_submodule_on_first_access_and_is_cached():
    lines, modules = run_fresh(
        "import sl3frieze\n"
        "ground = sl3frieze.GroundSet\n"
        "print(vars(sl3frieze)['GroundSet'] is ground is sl3frieze.cyclic.GroundSet)")
    assert lines == ["True"]
    assert modules == ["sl3frieze", "sl3frieze.cyclic", "sl3frieze.errors"]


def test_unknown_attribute_raises_attribute_error():
    lines, modules = run_fresh(
        "import sl3frieze\n"
        "try:\n"
        "    sl3frieze.no_such_name\n"
        "except AttributeError as e:\n"
        "    print(e)\n"
        "print(hasattr(sl3frieze, 'no_such_name'))")
    assert lines == ["module 'sl3frieze' has no attribute 'no_such_name'", "False"]
    assert modules == ["sl3frieze"]


def test_star_import_in_a_fresh_interpreter_binds_all_exported_names():
    lines, _ = run_fresh(
        "namespace = {}\n"
        "exec('from sl3frieze import *', namespace)\n"
        "namespace.pop('__builtins__')\n"
        "import sl3frieze\n"
        "print(sorted(namespace) == sorted(sl3frieze.__all__))")
    assert lines == ["True"]


def _sl3frieze_imports(tree):
    """(module, name) for each name imported from sl3frieze in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sl3frieze":
            yield from ((node.module, alias.name) for alias in node.names)


def _resolves(module, name) -> bool:
    """Whether `from module import name` succeeds: an attribute of the
    module, or a submodule of it."""
    try:
        if not hasattr(importlib.import_module(module), name):
            importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_every_name_the_benchmark_harness_uses_resolves():
    imports, layers = set(), None
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imports.update(_sl3frieze_imports(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and "sl3frieze" in node.value:
                try:  # source run in a child interpreter, such as the generate op's shim
                    imports.update(_sl3frieze_imports(ast.parse(node.value)))
                except SyntaxError:
                    pass
            if (path.name == "tracing.py" and isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)):
                layers = ast.literal_eval(node.value)
    assert ("sl3frieze.separation", "crossing") in imports and ("sl3frieze.cli", "main") in imports
    assert layers, "perfbench/tracing.py defines no LAYERS"
    imports.update((f"sl3frieze.{mod}", fn) for mod, fns in layers.items() for fn in fns)
    assert sorted(pair for pair in imports if not _resolves(*pair)) == []
