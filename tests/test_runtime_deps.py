"""The runtime needs Python's standard library and NumPy, nothing else."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted((SRC / "couplemap").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "couplemap"}


def _top_level_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_sources_import_only_stdlib_and_numpy():
    assert MODULES
    outside = [
        f"{path.name}:{lineno}: {package}"
        for path in MODULES
        for lineno, package in _top_level_imports(path)
        if package not in ALLOWED
    ]
    assert outside == []


def test_cli_import_leaves_scipy_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, couplemap.cli; print('scipy' in sys.modules)"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
