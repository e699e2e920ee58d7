"""The benchmark under ``perfbench/`` imports the package by name, and a
change to the package could break it silently.  This reads its sources with
``ast`` and checks that every ``from functorcalc.<module> import <name>``
resolves, then runs one instance of each kind through its runners.  Nothing
is written under ``perfbench/``: the workloads module is compiled in memory.
"""

import ast
import importlib
import pathlib
import types

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


def _load_workloads():
    """perfbench/workloads.py as a fresh module, compiled in memory (no bytecode file)."""
    path = PERFBENCH / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_benchmark_runs_the_first_instance_of_each_kind():
    workloads = _load_workloads()
    first = {}
    for name in workloads.WORKLOADS:
        for inst in workloads.build(name, 1):
            first.setdefault(inst["kind"], inst)
    assert sorted(first) == ["base", "oracle", "plethysm", "series", "zero"]
    for kind, inst in first.items():
        ok, _, _ = workloads.run(inst, lambda name, fn, *args, **kwargs: fn(*args, **kwargs))
        assert ok, kind
