"""routecat and its scripts import nothing but the standard library and the repository's own modules.

numpy or scipy may be installed where the tests run, so a stray import of
one would pass every other test and fail only on a clean install.  The same
holds for pytest in a script: CI installs it before it runs the scripts,
which must run on an interpreter without it.  And each CLI command imports
only the modules it runs, checked in a fresh interpreter, since this one
has imported them all.  And the tests' reference of the method imports
none of the code it checks.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from routecat import centroid, evaluation, policies, synthetic

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "routecat").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
# reach.py alone may also import the other scripts and the benchmark's modules, which sit beside it or on the path it sets
REACH_OWN = {p.stem for p in (ROOT / "scripts").glob("*.py")} | {p.stem for p in (ROOT / "perfbench").glob("*.py")}


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
    own = {"routecat"} | (REACH_OWN if path == ROOT / "scripts" / "reach.py" else set())
    foreign = {m for m in imported_top_level_modules(path) if m not in own and m not in sys.stdlib_module_names}
    assert not foreign, f"{path.relative_to(ROOT)} imports {sorted(foreign)}"


# runs cli.main on the arguments after the checkout's src directory, then prints its status and every loaded module
COMMAND_IN_FRESH_INTERPRETER = """
import sys
sys.path.insert(0, sys.argv[1])
from routecat.cli import main
status = main(sys.argv[2:])
print(status, *sorted(sys.modules), file=sys.stderr)
"""


def modules_loaded_by(*argv: object) -> set[str]:
    """The modules a fresh interpreter holds after ``routecat argv``, which must succeed."""
    child = subprocess.run(
        [sys.executable, "-c", COMMAND_IN_FRESH_INTERPRETER, str(ROOT / "src"), *argv],
        capture_output=True, text=True, check=True,
    )
    status, *modules = child.stderr.splitlines()[-1].split()
    assert status == "0"
    return set(modules)


def test_generate_loads_neither_the_model_nor_the_scoring_modules(tmp_path):
    generate = ("generate", "--depth", "2", "--branching", "2", "--docs-per-leaf", "3", "--tokens-per-doc", "4")
    loaded = modules_loaded_by(*generate, "--out-dir", tmp_path)
    unneeded = {f"routecat.{m}" for m in ("corpus", "centroid", "router", "evaluation", "policies", "taxonomy")}
    assert loaded & (unneeded | {"hashlib", "json", "base64"}) == set()
    assert "routecat.synthetic" in loaded
    # nor the dataclass machinery, unless a bare interpreter of this environment already holds it at start-up
    bare = subprocess.run(
        [sys.executable, "-c", "import sys; print(*sys.modules)"], capture_output=True, text=True, check=True
    ).stdout.split()
    assert (loaded - set(bare)) & {"dataclasses", "inspect"} == set()


def test_classify_loads_no_evaluation_code(trained):
    loaded = modules_loaded_by(*trained.classify)
    assert loaded & {"routecat.evaluation", "routecat.synthetic"} == set()
    assert "routecat.router" in loaded


def test_moved_names_are_read_back_as_the_same_objects():
    # the benchmark reads the generator through evaluation and the mode through centroid
    assert evaluation.SyntheticSpec is synthetic.SyntheticSpec
    assert evaluation.generate_synthetic is synthetic.generate_synthetic
    assert centroid.Mode is policies.Mode


REFERENCE = ROOT / "tests" / "reference.py"
# the input's types and parsing, the tokenizer and the split; never centroid, router or evaluation, whose bugs
# the reference would then share
REFERENCE_MAY_BORROW = {
    "routecat.taxonomy": {"Taxonomy", "parse_taxonomy"},
    "routecat.corpus": {"Document", "load_corpus", "split_corpus", "tokenize"},
    "routecat.policies": {"Mode", "PolicyKind"},
}


def test_the_reference_borrows_from_routecat_only_the_input_the_tokenizer_and_the_split():
    borrowed = set()
    for node in ast.walk(ast.parse(REFERENCE.read_text(encoding="utf-8"), filename=str(REFERENCE))):
        if isinstance(node, ast.Import):  # a whole module, which no entry allows
            borrowed.update((alias.name, "*") for alias in node.names if alias.name.partition(".")[0] == "routecat")
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.partition(".")[0] == "routecat"):
            borrowed.update((node.module, alias.name) for alias in node.names)
    allowed = {(module, name) for module, names in REFERENCE_MAY_BORROW.items() for name in names}
    assert borrowed and borrowed <= allowed, sorted(borrowed - allowed)
    # nor a test module, such as conftest, that imports the rest of routecat
    assert imported_top_level_modules(REFERENCE) <= {"routecat"} | sys.stdlib_module_names
