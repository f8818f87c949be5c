#!/usr/bin/env python3
"""Check the pinned sha256 of every CLI artifact in ``tests/pins.json``, using only the standard library.

Each entry of the file gives the flags of a ``generate`` run and the sha256
of the files and output it must produce.  An entry with ``train`` flags
also runs ``train``, ``evaluate`` (both with its ``split`` flags) and
``classify`` on the corpus itself, all through ``routecat.cli.main``:

- ``ci_artifacts``: the CI spec under every training mode and policy;
- ``bench_artifacts``: each benchmark workload's corpus at seed 0;
- ``generated_bytes``: the taxonomy and corpus text of ``generate`` alone.

The tests assert the same pins under pytest; this script needs neither
pytest nor hypothesis, so every interpreter can run it.  It prints each
mismatch and exits 1, or exits 0 when every pin holds.

Example:
    PYTHONPATH=src python scripts/check_pins.py
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from routecat.cli import main

PINS = Path(__file__).resolve().parent.parent / "tests" / "pins.json"


def cli(*argv: str) -> str:
    """Run one routecat command in this process and return its stdout; a nonzero exit status raises."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"routecat {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def artifacts(entry: dict, work: Path) -> dict[str, bytes]:
    """The bytes of each file and output the entry's commands produce, keyed as in its ``sha256``."""
    data, run, report = work / "data", work / "run", work / "report"
    cli("generate", *entry["generate"], "--out-dir", str(data))
    files = [data / "taxonomy.tsv", data / "corpus.tsv"]
    classify = ""
    if "train" in entry:
        corpus = str(data / "corpus.tsv")
        model, calibration = str(run / "model.json"), str(run / "calibration.json")
        cli("train", "--taxonomy", str(data / "taxonomy.tsv"), "--corpus", corpus, *entry["split"], *entry["train"],
            "--out-dir", str(run))
        cli("evaluate", "--model", model, "--calibration", calibration, "--corpus", corpus, *entry["split"],
            "--out-dir", str(report))
        classify = cli("classify", "--model", model, "--calibration", calibration, "--input", corpus)
        files += [run / "model.json", run / "calibration.json", report / "summary.csv", report / "comparison.csv"]
    return {"classify": classify.encode("utf-8"), **{path.name: path.read_bytes() for path in files}}


def mismatches(pins: dict) -> list[str]:
    """One line per pinned sha256 the commands do not reproduce: table, entry, artifact, pinned and actual hash."""
    found = []
    for table, entries in pins.items():
        for name, entry in entries.items():
            with tempfile.TemporaryDirectory() as work:
                try:
                    produced = artifacts(entry, Path(work))
                except RuntimeError as exc:
                    found.append(f"{table}/{name}: {exc}")
                    continue
            for artifact, pinned in entry["sha256"].items():
                actual = hashlib.sha256(produced[artifact]).hexdigest()
                if actual != pinned:
                    found.append(f"{table}/{name} {artifact}: pinned {pinned}, got {actual}")
    return found


def check(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--pins", type=Path, default=PINS, help="pins file (default: tests/pins.json)")
    args = parser.parse_args(argv)
    pins = json.loads(args.pins.read_text(encoding="utf-8"))
    found = mismatches(pins)
    for line in found:
        print(f"mismatch: {line}")
    count = sum(len(entry["sha256"]) for entries in pins.values() for entry in entries.values())
    verdict = f"{len(found)} mismatch{'es' if len(found) > 1 else ''}" if found else f"all {count} pins hold"
    print(f"Python {sys.version.split()[0]}: {verdict}")
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(check())
