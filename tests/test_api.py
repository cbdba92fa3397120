"""Public names: every ``__all__`` entry resolves, star-imports work, no
module-level import is left unused and none reaches past the declared
dependencies."""
import ast
import importlib
import pkgutil
import sys

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


def test_module_imports_are_used():
    # every module-level import is read in its module or re-exported by __all__
    for module in MODULES:
        with open(module.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        imported = set()
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= set(getattr(module, "__all__", ()))
        unused = sorted(imported - used)
        assert not unused, f"{module.__name__} imports {unused} without using them"


def test_module_imports_stay_within_declared_dependencies():
    # numpy is the only declared runtime dependency; scipy, mpmath and the
    # test tools are installed for the tests but stay out of the package
    allowed = set(sys.stdlib_module_names) | {"numpy", dickepair.__name__}
    for module in MODULES:
        with open(module.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        roots = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                roots |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots.add(node.module.split(".")[0])
        foreign = sorted(roots - allowed)
        assert not foreign, f"{module.__name__} imports {foreign}"
