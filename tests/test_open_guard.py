"""Every file the package opens goes through errors.opened, nowhere else;
only errors.py turns an OSError into an error or puts a path into a message;
and only errors.py and cli.py catch a CoupleMapError kind, since every kind
is one a command prints rather than a signal for other modules to handle;
only cli._write creates a directory, the commands handing it their
writers rather than calling one; only metrics.measure_many cuts a
stream of networks into stacks, the stacked families measuring the one
stack they are given; and no module multiplies matrices."""

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


def _kinds():
    """CoupleMapError and every class errors.py defines on it."""
    tree = ast.parse((SRC / "couplemap" / "errors.py").read_text(encoding="utf-8"))
    return {node.name for node in tree.body if isinstance(node, ast.ClassDef)}


def _caught_kinds(path: Path, kinds):
    """(line, kind) of each except clause that names an error kind."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            for t in caught:
                name = getattr(t, "id", None) or getattr(t, "attr", None)
                if name in kinds:
                    yield node.lineno, name


def test_kinds_caught_only_in_errors_and_cli():
    kinds = _kinds()
    assert "CoupleMapError" in kinds and "IoError" in kinds
    sites = [
        (path.name, lineno, kind)
        for path in MODULES
        if path.name not in ("errors.py", "cli.py")
        for lineno, kind in _caught_kinds(path, kinds)
    ]
    assert sites == []
    assert any(_caught_kinds(SRC / "couplemap" / "cli.py", kinds)), "main catches no kind"


def _calls(path: Path):
    """(innermost enclosing function or None, called name or attribute) of each call."""

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                yield function, getattr(child.func, "id", None) or getattr(child.func, "attr", None)
            defines = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield from visit(child, child.name if defines else function)

    yield from visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), None)


def test_out_created_and_written_only_in_write():
    """--out is created in cli._write alone, and no function in cli.py calls
    a write_* function by name, so every file a command writes passes
    through _write."""
    makedirs = [
        (path.name, function)
        for path in MODULES
        for function, name in _calls(path)
        if name == "makedirs"
    ]
    assert makedirs == [("cli.py", "_write")]
    writers = [
        (function, name)
        for function, name in _calls(SRC / "couplemap" / "cli.py")
        if name and name.startswith("write_")
    ]
    assert writers == []


def test_networks_stacked_only_in_measure_many():
    """Every call to metrics._stacks sits inside metrics.measure_many, so
    degree_stats, clustering_stats and detect_communities each measure one
    stack and never cut their own."""
    stackers = [
        (path.name, function)
        for path in MODULES
        for function, name in _calls(path)
        if name == "_stacks"
    ]
    assert stackers == [("metrics.py", "measure_many")]


# NumPy functions that hand a product to BLAS
MATRIX_PRODUCTS = {"matmul", "dot", "vdot", "inner", "tensordot", "einsum"}


def _matrix_products(path: Path):
    """(line, what) of each @, call of a matrix product, or linalg name."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in MATRIX_PRODUCTS:
                yield node.lineno, name
        names = {getattr(node, "id", None), getattr(node, "attr", None)}
        for dotted in (getattr(node, "name", None), getattr(node, "module", None)):
            if isinstance(dotted, str):
                names.update(dotted.split("."))
        if "linalg" in names:
            yield node.lineno, "linalg"


def test_no_matrix_products():
    """The package makes no BLAS call: no @ operator, no call of a matrix
    product and no linalg function. Where the measure battery multiplied
    matrices, BLAS's own second thread spun between the calls, and each
    surrogate-b200 benchmark operation used 2.1 s of CPU per second of
    wall time."""
    products = [
        (path.name, lineno, what) for path in MODULES for lineno, what in _matrix_products(path)
    ]
    assert products == []
