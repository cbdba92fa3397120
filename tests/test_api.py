"""Public names: every ``__all__`` entry resolves and star-imports work."""
import importlib
import pkgutil

import dickepair

MODULES = [dickepair] + [importlib.import_module(f"dickepair.{info.name}")
                         for info in pkgutil.iter_modules(dickepair.__path__)]


def test_all_names_resolve():
    for module in MODULES:
        names = getattr(module, "__all__", [])
        assert len(names) == len(set(names)), module.__name__
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"


def test_star_imports():
    for module in MODULES:
        namespace = {}
        exec(f"from {module.__name__} import *", namespace)
        assert set(getattr(module, "__all__", ())) <= namespace.keys()
