"""Every module-level import in the package is used by its module."""

import ast
import pathlib

import priorbench

PACKAGE = pathlib.Path(priorbench.__file__).parent


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(name for name in bound if name not in used)


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["os"]
    assert unused_imports("from a import b as c\nc()\n") == []


def test_package_modules_have_no_unused_imports():
    # __init__ imports only to re-export
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}
