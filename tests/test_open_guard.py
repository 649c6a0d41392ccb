"""Every file the package opens goes through errors.opened, nowhere else, and
only errors.py turns an OSError into an error or puts a path into a message."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted((SRC / "couplemap").glob("*.py"))
# OSError and its two builtin aliases
OS_ERRORS = {"OSError", "IOError", "EnvironmentError"}


def _open_calls(path: Path):
    """(line, inside errors.opened) of each call to open or to any .open."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    boundary = set()
    if path.name == "errors.py":
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "opened":
                boundary.update(map(id, ast.walk(node)))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and (
            getattr(node.func, "id", None) == "open"
            or getattr(node.func, "attr", None) == "open"
        ):
            yield node.lineno, id(node) in boundary


def test_builtin_open_only_inside_opened():
    assert MODULES
    calls = [
        (path.name, lineno, inside)
        for path in MODULES
        for lineno, inside in _open_calls(path)
    ]
    assert [(name, lineno) for name, lineno, inside in calls if not inside] == []
    assert any(inside for _, _, inside in calls), "errors.opened opens no file"


def _boundary_sites(path: Path):
    """(line, what) of each `except OSError` and each f-string formatting `path`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(getattr(t, "id", None) in OS_ERRORS for t in caught):
                yield node.lineno, "except OSError"
        if isinstance(node, ast.JoinedStr) and any(
            isinstance(name, ast.Name) and name.id == "path"
            for part in node.values
            if isinstance(part, ast.FormattedValue)
            for name in ast.walk(part.value)
        ):
            yield node.lineno, "f-string formats path"


def test_paths_named_only_in_errors():
    sites = [
        (path.name, lineno, what)
        for path in MODULES
        if path.name != "errors.py"
        for lineno, what in _boundary_sites(path)
    ]
    assert sites == []
    found = {what for _, what in _boundary_sites(SRC / "couplemap" / "errors.py")}
    assert found == {"except OSError", "f-string formats path"}, "errors.naming is gone"
