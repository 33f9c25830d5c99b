"""The public surface: every exported name resolves, once.

Claims covered:
    - `from sl3frieze import *` succeeds and binds exactly the names of
      `sl3frieze.__all__`
    - `__all__` lists each name once, and each resolves on the package
    - the surface is lazy: `import sl3frieze` loads no submodule, a name loads
      only its own submodule's imports and is then cached on the package, and
      an unknown name raises AttributeError
"""

from conftest import run_fresh
import sl3frieze


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
