"""Every routecat name the benchmark reaches exists, so a library trim cannot break it unseen.

``perfbench/tracing.py`` patches the functions listed in its ``STAGES`` and
``HOT`` tables, and ``perfbench/pipeline.py`` calls the library through
module attributes; both would fail only when the benchmark runs.
"""

from __future__ import annotations

import ast
import importlib

import pytest

from conftest import PERFBENCH, import_perfbench


def routecat_reads(source: str) -> list[tuple[str, str]]:
    """(routecat module, name) for each ``from routecat.m import name`` and each ``m.name`` of an imported module."""
    tree = ast.parse(source)
    modules: dict[str, str] = {}
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "routecat":
            for alias in node.names:
                modules[alias.asname or alias.name] = f"routecat.{alias.name}"
        elif isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("routecat."):
            reads += [(node.module, alias.name) for alias in node.names]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            reads.append((modules[node.value.id], node.attr))
    return reads


@pytest.mark.parametrize("table", ["STAGES", "HOT"])
def test_every_traced_function_exists(table):
    entries = getattr(import_perfbench("tracing"), table)
    assert entries
    missing = [label for owner, attr, label in entries if not hasattr(owner, attr)]
    assert missing == []


def test_every_library_name_the_bench_pipeline_reads_exists():
    reads = routecat_reads((PERFBENCH / "pipeline.py").read_text(encoding="utf-8"))
    assert ("routecat.corpus", "vectorize") in reads and ("routecat.centroid", "Mode") in reads
    missing = [f"{module}.{name}" for module, name in reads if not hasattr(importlib.import_module(module), name)]
    assert missing == []
