#!/usr/bin/env python3
"""Check the pinned sha256 of every CLI artifact in ``tests/pins.json``, and the tokenizer, using only the standard library.

Each entry of the file gives the flags of a ``generate`` run and the sha256
of the files and output it must produce.  An entry with ``train`` flags
also runs ``train``, ``evaluate`` (both with its ``split`` flags) and
``classify`` on the corpus itself, all through ``routecat.cli.main``:

- ``ci_artifacts``: the CI spec under every training mode and policy, and
  a 200-leaf spec whose scores run on postings;
- ``bench_artifacts``: each benchmark workload's corpus at seed 0;
- ``generated_bytes``: the taxonomy and corpus text of ``generate`` alone.

It also checks that ``routecat.corpus.tokenize`` gives the tokens of
``[^\\W_]{2,}`` over the lowered text on every string of one or two ASCII
characters, which covers its ASCII branch on this interpreter, and prints
the first string where they differ.

This script needs neither pytest nor hypothesis, so every interpreter can
run it, and it is the only code that runs and hashes the pinned commands:
the tests import it and assert that :func:`entry_mismatches` of each entry
and :func:`token_mismatches` are empty, so a check added here runs under
pytest too.  Its :func:`cli` is also the CLI tests' runner.  It prints
each mismatch, a command that exits nonzero included, and exits 1, or
exits 0 when every pin holds.

Example:
    PYTHONPATH=src python scripts/check_pins.py
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

from routecat import corpus
from routecat.cli import main

PINS = Path(__file__).resolve().parent.parent / "tests" / "pins.json"


def cli(*argv: object) -> tuple[int, str, str]:
    """``routecat argv`` in this process: its exit status, stdout and stderr.

    argparse's exit is a status too, 2 for a usage error.  An exception that
    escapes the command's error policy escapes this call.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main([str(arg) for arg in argv])
        except SystemExit as exc:  # argparse's exit
            status = exc.code
    return status, out.getvalue(), err.getvalue()


def output(*argv: object) -> bytes:
    """The stdout of ``routecat argv`` as UTF-8; a nonzero status raises ``RuntimeError`` with stderr's last line."""
    status, out, err = cli(*argv)
    if status != 0:
        last = err.strip().rpartition("\n")[2]
        raise RuntimeError(f"routecat {' '.join(map(str, argv))} exited {status}: {last}")
    return out.encode()


def artifacts(entry: dict, work: Path) -> dict[str, bytes]:
    """The bytes of each file and output the entry's commands produce, keyed as in its ``sha256``."""
    data, run, report = work / "data", work / "run", work / "report"
    output("generate", *entry["generate"], "--out-dir", data)
    files = [data / "taxonomy.tsv", data / "corpus.tsv"]
    outputs = {}
    if "train" in entry:
        corpus = data / "corpus.tsv"
        model, calibration = run / "model.json", run / "calibration.json"
        output("train", "--taxonomy", data / "taxonomy.tsv", "--corpus", corpus, *entry["split"], *entry["train"],
               "--out-dir", run)
        output("evaluate", "--model", model, "--calibration", calibration, "--corpus", corpus, *entry["split"],
               "--out-dir", report)
        outputs["classify"] = output("classify", "--model", model, "--calibration", calibration, "--input", corpus)
        files += [run / "model.json", run / "calibration.json", report / "summary.csv", report / "comparison.csv"]
    return {**outputs, **{path.name: path.read_bytes() for path in files}}


def entry_mismatches(table: str, name: str, entry: dict) -> list[str]:
    """One line per pinned sha256 of one entry that its commands do not reproduce, naming table, entry and artifact."""
    with tempfile.TemporaryDirectory() as work:
        try:
            produced = artifacts(entry, Path(work))
        except RuntimeError as exc:
            return [f"{table}/{name}: {exc}"]
    found = []
    for artifact, pinned in entry["sha256"].items():
        if artifact not in produced:
            found.append(f"{table}/{name} {artifact}: pinned {pinned}, but the entry's commands make no {artifact}")
            continue
        actual = hashlib.sha256(produced[artifact]).hexdigest()
        if actual != pinned:
            found.append(f"{table}/{name} {artifact}: pinned {pinned}, got {actual}")
    return found


def mismatches(pins: dict) -> list[str]:
    """The :func:`entry_mismatches` of every entry of every table."""
    return [line for table, entries in pins.items() for name, entry in entries.items()
            for line in entry_mismatches(table, name, entry)]


def token_mismatches() -> list[str]:
    """The first string of one or two ASCII characters on which ``tokenize`` and ``[^\\W_]{2,}`` disagree, if any."""
    unicode_token = re.compile(r"[^\W_]{2,}")
    ascii = [chr(c) for c in range(128)]
    for text in ascii + [a + b for a in ascii for b in ascii]:
        expected, actual = unicode_token.findall(text.lower()), corpus.tokenize(text)
        if actual != expected:
            return [f"tokenize({text!r}) gives {actual}, [^\\W_]{{2,}} gives {expected}"]
    return []


def check(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--pins", type=Path, default=PINS, help="pins file (default: tests/pins.json)")
    args = parser.parse_args(argv)
    pins = json.loads(args.pins.read_text(encoding="utf-8"))
    found = token_mismatches() + mismatches(pins)
    for line in found:
        print(f"mismatch: {line}")
    count = sum(len(entry["sha256"]) for entries in pins.values() for entry in entries.values())
    verdict = f"{len(found)} mismatch{'es' if len(found) > 1 else ''}" if found else f"all {count} pins hold"
    print(f"Python {sys.version.split()[0]}: {verdict}")
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(check())
