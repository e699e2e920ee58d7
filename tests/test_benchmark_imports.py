"""The benchmark under ``perfbench/`` imports the package by name; the test
suite never runs it, so deleting or renaming a name it imports would break it
silently.  This reads its sources with ``ast`` (writing nothing there) and
checks that every ``from functorcalc.<module> import <name>`` resolves.
"""

import ast
import importlib
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _package_imports():
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "functorcalc":
                for alias in node.names:
                    yield path.name, node.module, alias.name


def test_benchmark_imports_resolve():
    imports = list(_package_imports())
    assert any(name == "workloads.py" for name, _, _ in imports)
    for name, module, attr in imports:
        assert hasattr(importlib.import_module(module), attr), f"{name}: from {module} import {attr}"
