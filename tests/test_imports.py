"""Every module-level import and private name in the package is used by its
module."""

import ast
import pathlib

import priorbench

PACKAGE = pathlib.Path(priorbench.__file__).parent


def unused_names(source: str) -> list:
    """Module-level imports, and private (``_name``) functions, classes and
    assignments, that nothing in the module loads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_"):
                bound[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.startswith("_"):
                    bound[target.id] = node.lineno
    used = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(name for name in bound if name not in used)


def test_checker_flags_an_unused_import():
    assert unused_names("import os\nimport sys\nprint(sys.argv)\n") == ["os"]
    assert unused_names("from a import b as c\nc()\n") == []
    assert unused_names("_X = 1\n_Y: int = 2\ndef _f():\n    return _Y\n"
                        "class _C:\n    pass\ndef g():\n    pass\n") == ["_C", "_X", "_f"]


def test_package_modules_have_no_unused_imports():
    # __init__ imports only to re-export
    found = {path.name: unused_names(path.read_text())
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}
