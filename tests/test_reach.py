"""scripts/reach.py: every function of src/routecat/ runs in a command or in the benchmark, or the tracer names it.

Each run starts a fresh interpreter: in this one pytest has already imported
routecat, so the calls made at import time would not be seen.
"""

import os
import shutil
import subprocess
import sys

from conftest import PERFBENCH, ROOT, SCRIPTS

SCRIPT = SCRIPTS / "reach.py"


def reach(src=ROOT / "src", code=None):
    """The script's result in a fresh interpreter with ``src`` on its path, or that of ``code`` run in its place."""
    argv = [sys.executable, str(SCRIPT)] if code is None else [sys.executable, "-c", code]
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(argv, capture_output=True, text=True, env=env)


def test_every_library_function_is_reached():
    result = reach()
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.startswith(f"Python {sys.version.split()[0]}: all ")
    assert result.stdout.endswith(" functions reached\n")


def test_a_function_no_command_runs_is_named(tmp_path):
    shutil.copytree(ROOT / "src" / "routecat", tmp_path / "routecat")
    with open(tmp_path / "routecat" / "router.py", "a", encoding="utf-8") as router:
        router.write("\n\ndef unused_helper() -> None:\n    pass\n")
    result = reach(src=tmp_path)
    lines = result.stdout.splitlines()
    assert result.returncode == 1 and len(lines) == 2
    assert lines[0].startswith("unreached: router.unused_helper (router.py:")
    assert ": 1 of " in lines[1] and lines[1].endswith(" functions unreached")


def test_a_function_the_tracer_stops_naming_is_named():
    # the script run with a tracer whose HOT table no longer wraps node_score, which only the tests call
    code = "\n".join([
        "import runpy, sys",
        f"sys.path[:0] = [{str(PERFBENCH)!r}, {str(SCRIPTS)!r}]",
        "import tracing",
        "tracing.HOT = [row for row in tracing.HOT if row[1] != 'node_score']",
        f"runpy.run_path({str(SCRIPT)!r}, run_name='__main__')",
    ])
    result = reach(code=code)
    assert result.returncode == 1
    assert "unreached: centroid.node_score (centroid.py:" in result.stdout
