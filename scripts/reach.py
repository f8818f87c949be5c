#!/usr/bin/env python3
"""Check that every function of ``src/routecat/`` runs in a command or in the benchmark, using only the standard library.

A call-only profiler (``sys.setprofile``) is started before routecat is
imported, so calls made at import time count too.  Under it the script runs:

- the commands of every ``ci_artifacts`` entry of ``tests/pins.json``,
  through ``check_pins.artifacts``: ``generate``, ``train``, ``evaluate``
  and ``classify`` under every training mode and policy;
- one ``classify`` on a model file that is not JSON, which must exit 1,
  so the CLI's error path runs;
- ``generate``, ``train`` and ``evaluate`` of ``perfbench/pipeline.py`` on
  the benchmark's smoke workload at seed 0.

It then prints each function a ``def`` in ``src/routecat/*.py`` defines
that no run entered and that ``perfbench/tracing.py``'s ``STAGES`` and
``HOT`` tables do not name, and exits 1 if it printed any.  The tracer's
tables are the only allowance: a function the benchmark wraps must stay
while the benchmark wraps it, and there is no list of exempt functions.

Run it in a fresh interpreter, as below: where routecat is already
imported, the calls it made while importing are not seen.

Example:
    PYTHONPATH=src python scripts/reach.py
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import sys
import tempfile
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# (file, first line, name) of a code object: the same for the code that ran and for the code compiled here
Key = tuple[str, int, str]


def key(code: CodeType) -> Key:
    return code.co_filename, code.co_firstlineno, code.co_name


def run_everything(work: Path) -> None:
    """The CI-spec commands of every mode and policy, one failing ``classify``, and the benchmark's pipeline."""
    import check_pins
    from routecat.cli import main

    pins = json.loads(check_pins.PINS.read_text(encoding="utf-8"))
    for name, entry in pins["ci_artifacts"].items():
        check_pins.artifacts(entry, work / name)
    not_json = work / "not-json.json"
    not_json.write_text("not JSON\n", encoding="utf-8")
    with contextlib.redirect_stderr(io.StringIO()):
        code = main(["classify", "--model", str(not_json), "--calibration", str(not_json), "--input", str(not_json)])
    if code != 1:
        raise RuntimeError(f"routecat classify on a model that is not JSON exited {code}, not 1")

    sys.path.insert(0, str(PERFBENCH))
    import pipeline
    import workloads

    data, run, report = work / "smoke" / "data", work / "smoke" / "run", work / "smoke" / "report"
    pipeline.generate(workloads.SMOKE, 0, data)
    pipeline.train(workloads.SMOKE, 0, data, run)
    with contextlib.redirect_stdout(io.StringIO()):
        pipeline.evaluate(0, data, run, report)


def defined_functions(package: Path) -> dict[Key, str]:
    """``module.qualname`` of every function a ``def`` in ``package/*.py`` defines, keyed by :func:`key`."""
    found = {}

    def walk(code: CodeType, prefix: str) -> None:
        for const in code.co_consts:
            if not isinstance(const, CodeType) or const.co_name.startswith("<"):  # lambdas and comprehensions
                continue
            is_function = bool(const.co_flags & inspect.CO_NEWLOCALS)  # a class body has no locals of its own
            if is_function:
                found[key(const)] = prefix + const.co_name
            walk(const, f"{prefix}{const.co_name}{'.<locals>.' if is_function else '.'}")

    for path in sorted(package.glob("*.py")):
        walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), f"{path.stem}.")
    return found


def main() -> int:
    entered: set[CodeType] = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        with tempfile.TemporaryDirectory() as work:
            run_everything(Path(work))
    finally:
        sys.setprofile(None)

    import routecat
    import tracing

    functions = defined_functions(Path(routecat.__file__).parent)
    named = {key(getattr(owner, attr).__code__) for owner, attr, _ in tracing.STAGES + tracing.HOT}
    reached = {key(code) for code in entered} | named
    unreached = sorted((name, where) for where, name in functions.items() if where not in reached)
    for name, (path, line, _) in unreached:
        print(f"unreached: {name} ({Path(path).name}:{line})")
    verdict = f"{len(unreached)} of {len(functions)} functions unreached" if unreached else (
        f"all {len(functions)} functions reached"
    )
    print(f"Python {sys.version.split()[0]}: {verdict}")
    return 1 if unreached else 0


if __name__ == "__main__":
    raise SystemExit(main())
