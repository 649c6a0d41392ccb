"""Every file the package opens goes through errors.opened, nowhere else."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted((SRC / "couplemap").glob("*.py"))


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
