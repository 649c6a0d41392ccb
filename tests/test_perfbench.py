"""The benchmark harness in perfbench/ still finds every couplemap name it uses.

perfbench/workloads.py imports names from couplemap submodules, and
perfbench/tracing.py wraps the functions listed in SPANS by module and
attribute name; a rename or deletion in the package must fail here rather
than in the next benchmark run.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def perfbench(monkeypatch):
    """Import perfbench modules by name without writing bytecode there."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module


def test_workloads_import_and_match_the_benchmark(perfbench):
    workloads = perfbench("workloads")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert set(workloads.WORKLOADS) == {w["name"] for w in declared}


def test_every_traced_span_resolves(perfbench):
    tracing = perfbench("tracing")
    for module_name, attr, _, _ in tracing.SPANS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"

    originals = {(m, a): getattr(sys.modules[m], a) for m, a, _, _ in tracing.SPANS}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (module_name, attr), original in originals.items():
            assert getattr(sys.modules[module_name], attr) is not original
    finally:
        tracer.uninstall()
    for (module_name, attr), original in originals.items():
        assert getattr(sys.modules[module_name], attr) is original
