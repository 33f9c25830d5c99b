"""The public surface: every exported name resolves, once.

Claims covered:
    - `from sl3frieze import *` succeeds and binds exactly the names of
      `sl3frieze.__all__`
    - `__all__` lists each name once, and each resolves on the package
"""

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
