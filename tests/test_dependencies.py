"""routecat and its experiment script import nothing but the standard library and routecat itself.

numpy or scipy may be installed where the tests run, so a stray import of
one would pass every other test and fail only on a clean install.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "routecat").glob("*.py")) + [ROOT / "scripts" / "run_boost_experiment.py"]


def imported_top_level_modules(path: Path) -> set[str]:
    """The first dotted part of every module ``path`` imports; a relative import counts as routecat."""
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            modules.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add("routecat" if node.level else node.module.partition(".")[0])
    return modules


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_imports_only_the_standard_library_and_routecat(path):
    foreign = {m for m in imported_top_level_modules(path) if m != "routecat" and m not in sys.stdlib_module_names}
    assert not foreign, f"{path.relative_to(ROOT)} imports {sorted(foreign)}"
