"""The package's public names, and every name the benchmark imports, resolve."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import fracopt

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "perfbench"


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


def test_import_leaves_the_worker_pool_modules_unloaded():
    # run_experiment imports them itself, so `import fracopt` stays cheap.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = (
        "import sys, fracopt; "
        "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_package_imports_only_the_standard_library_and_numpy():
    # numpy is the one declared dependency; scipy or hypothesis may be
    # installed where the tests run, but the package must not need them.
    allowed = set(sys.stdlib_module_names) | {"numpy", "fracopt"}
    found = []
    for source in sorted((ROOT / "src" / "fracopt").glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Import):
                found.extend((source.name, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.append((source.name, node.module))
    assert found
    assert [(name, module) for name, module in found if module.split(".")[0] not in allowed] == []
