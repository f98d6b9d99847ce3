"""The package's public names, and every name the benchmark imports, resolve."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import fracopt

BENCHMARK = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_name_in_all_imports():
    namespace: dict = {}
    exec("from fracopt import *", namespace)
    missing = sorted(set(fracopt.__all__) - set(namespace))
    assert not missing


def test_every_name_the_benchmark_takes_from_fracopt_imports():
    imports = []
    for source in ("workloads.py", "tracing.py"):
        tree = ast.parse((BENCHMARK / source).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fracopt":
                imports.extend((source, node.module, alias.name) for alias in node.names)
    assert imports
    for source, module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{source}: {module}.{name}"
