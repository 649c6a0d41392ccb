"""Every demo script runs to completion against the package under src/,
with NumPy as the only third-party package it may import."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_four_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo, tmp_path):
    # demos write under tempfile.mkdtemp(); TMPDIR keeps that inside tmp_path
    env = dict(os.environ, TMPDIR=str(tmp_path))
    # a scipy package that refuses to import shadows any installed one
    stub = tmp_path / "stub"
    (stub / "scipy").mkdir(parents=True)
    (stub / "scipy" / "__init__.py").write_text(
        'raise ImportError("scipy is not a runtime dependency")\n'
    )
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(stub), src, env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(demo)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
