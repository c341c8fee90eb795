"""Guards for the tooling that names library functions from outside it."""

import importlib
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_every_function_the_benchmark_traces_exists(monkeypatch):
    """``benchmarks/tracer.py`` looks up each (module, function) of
    ``layers.SPECS`` by name, so renaming one breaks the traced run."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # write nothing there
    try:
        specs = importlib.import_module("layers").SPECS
    finally:
        for name in ("layers", "workloads"):
            sys.modules.pop(name, None)
    missing = [f"{module}.{function}" for module, function, _, _ in specs
               if not callable(getattr(importlib.import_module(module),
                                       function, None))]
    assert specs and not missing
