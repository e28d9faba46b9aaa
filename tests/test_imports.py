"""Every name a module of the package imports is used in that module, and
the package exports exactly the names its `__init__` imports."""

import ast
from pathlib import Path

import skolog

SRC = Path(skolog.__file__).parent

# perfbench/tracer.py wraps these by their name in skolog.engine, which
# calls none of them itself
WRAPPED_BY_NAME = {"engine.py": {"apply", "compose", "rename_clause", "unify"}}


def _unused_imports(tree: ast.Module) -> set[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_every_imported_name_is_used():
    modules = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    assert modules
    for path in modules:
        unused = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        unused -= WRAPPED_BY_NAME.get(path.name, set())
        assert not unused, f"{path.relative_to(SRC)} imports {sorted(unused)} without using them"


def test_the_package_exports_exactly_what_it_imports():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert sorted(skolog.__all__) == sorted(imported)
