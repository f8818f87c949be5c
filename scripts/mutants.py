#!/usr/bin/env python3
"""Run tier-1 against each mutant of a fixed catalogue and print which tests kill it, using only the standard library.

A mutant is one edit of one source file: its ``old`` text, which must occur
exactly once in the file, replaced by its ``new`` text.  The script copies
the checkout to a temporary directory (without ``.git``, ``.hypothesis``,
``.perfbench_run`` and bytecode caches).  For each mutant, and once for
the unmutated checkout, it copies that copy again, applies the edit and
runs tier-1 on it once, with hypothesis seeded, so the table repeats from
run to run.  A test that fails or errors on the mutant kills it.
``os.cpu_count()`` runs go at a time.

The script prints the kill table: each mutant, its killers and the
intent of the edit.  It exits 1 if the unmutated checkout fails a test or
a mutant survives, except a mutant recorded as ``equivalent``, whose
reason says why no test can tell it from the checkout.

A change that deletes a test or a check quotes the table before and after
it: no mutant may lose its last killer.

Example:
    python scripts/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
LEFT_OUT = shutil.ignore_patterns(".git", ".hypothesis", ".perfbench_run", ".pytest_cache", "__pycache__")
# tier-1 as ROADMAP.md runs it, with a short report that names every failing or erroring test.  It leaves out the
# test that each catalogued edit still applies to the checkout: on a mutant, its own edit no longer does
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--tb=no", "-rfE", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", "--deselect", "tests/test_mutants.py::test_every_catalogued_mutant_applies_once"]
# a run this long counts as a kill: the mutant hangs some test
TIMEOUT_S = 1800


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    intent: str
    equivalent: str | None = None  # why no test can tell the mutant from the checkout


ROUTER, CENTROID, CORPUS = "src/routecat/router.py", "src/routecat/centroid.py", "src/routecat/corpus.py"
CATALOGUE = (
    # the method: decoding, confidence, level weights, reliability, the EER threshold and the accept rule
    Mutant(ROUTER, "return scores.index(max(scores))", "return len(scores) - 1 - scores[::-1].index(max(scores))",
           "ties go to the last child"),
    Mutant(ROUTER, "rel > calibration.threshold", "rel >= calibration.threshold",
           "accept at a reliability equal to the threshold"),
    Mutant(ROUTER, "return 1.0 / len(scores)", "return 0.0", "a zero-mass group's confidence is 0"),
    Mutant(CENTROID, "[max(0.0, pos - neg) for pos, neg", "[pos - neg for pos, neg",
           "binary group scores are not clamped at 0"),
    Mutant(ROUTER, "route[depth - 1] == node", "route[-1] == node",
           "a level weight compares the decoded leaf, not the route's node at the depth"),
    Mutant(CORPUS, "(n_docs + 1) / (df + 1)", "(n_docs + 1) / df", "idf without the +1 in df"),
    Mutant(ROUTER, "if gap <= best_gap:", "if gap < best_gap:", "EER ties go to the lower threshold"),
    Mutant(ROUTER, "if len(steps) > len(level_weights):", "if False:",
           "reliability weighs a route deeper than its weights by the weights it has"),
    Mutant("src/routecat/evaluation.py", "routed_correctly(taxonomy, doc.label, p)", "p == doc.label",
           "the flat baseline counts only an exact leaf, not a label on the predicted leaf's path"),
    # tokens and vectors
    Mutant(CORPUS, 're.compile(r"[a-z0-9]{2,}")', 're.compile(r"[a-z0-9]{1,}")', "one-letter ASCII tokens"),
    Mutant(CORPUS, "{i: tf * weight for i, tf in zip(indices, tfs)", "{i ^ (i < 2): tf * weight for i, tf in zip(indices, tfs)",
           "index_training swaps the vectors' term indices 0 and 1"),
    Mutant(CORPUS, "DENSE_MIN_FILL = 0.05", "DENSE_MIN_FILL = 0", "every scoring table dense"),
    # exact sums of training vectors
    Mutant(CENTROID, "map(float.__trunc__, map(mul, v.weights, repeat(scale)))", "map(mul, v.weights, repeat(scale))",
           "label sums in floats, not exact integers"),
    Mutant(CENTROID, "self.sum_of[label].values(), sub)", "self.sum_of[label].values())",
           "a complement adds the labels outside the set instead of subtracting them"),
    Mutant(CENTROID, "acc = dict(compress(acc.items(), acc.values()))", "acc = dict(acc)",
           "a complement keeps the terms whose sum is 0"),
    Mutant(CENTROID, "self.shift = 53 - math.frexp(smallest)[1]", "self.shift = 52 - math.frexp(smallest)[1]",
           "label sums scaled one bit short"),
    Mutant(CENTROID, "MAX_SHIFT = 970", "MAX_SHIFT = 1023", "label sums allow weights whose sums overflow"),
    Mutant(CENTROID, "if inside <= outside + len(self._total) // 2:", "if True:", "mean_of never takes the complement",
           equivalent="both paths give the same exact sums; only tests/test_reach.py fails, as LabelSums._total is "
                      "then reached by no command"),
    # what a model, a calibration, a split or a vocabulary must be
    Mutant(CORPUS, " or term in seen:", ":", "a vocabulary allows a repeated term"),
    Mutant(CENTROID, 'terms = _json_typed(vocab_payload["terms"], list, "vocabulary terms")',
           'terms = vocab_payload["terms"]', "a model's vocabulary terms need not be a list"),
    Mutant(CENTROID, "if not previous < i < n_terms:", "if not previous <= i < n_terms:",
           "a centroid may repeat a term index"),
    Mutant(CENTROID, "if not 0.0 <= w <= 1.0:", "if w < 0.0 or w > 1.0:", "a centroid weight may be NaN"),
    Mutant(ROUTER, "if not 0.0 <= value <= 1.0:", "if not 0.0 <= value:", "a level weight or EER gap above 1"),
    Mutant(ROUTER, "if not self.level_weights:", "if False:", "a calibration without level weights"),
    Mutant(ROUTER, "if not isinstance(self.level_weights, (list, tuple)):", "if False:",
           "a calibration reads any iterable as its level weights"),
    Mutant(ROUTER, "if calibration.model_identity != model_identity(model):", "if False:",
           "check_pairing skips the model identity"),
    Mutant(ROUTER, "if n != depth:", "if n < depth:", "check_pairing takes more level weights than depths"),
    Mutant("src/routecat/cli.py", "if len(split.validation) != calibration.validation_size:", "if False:",
           "evaluate skips the validation-size check"),
    # later entries go last, so that a mutant keeps its number from table to table
    Mutant(CENTROID, "if type(value) is not kind:", "if False:",
           "a model's vocabulary, terms, taxonomy and centroids need not have their JSON types"),
    Mutant(ROUTER, "if type(self.threshold) is not float:", "if False:", "a calibration's threshold need not be a float"),
    Mutant(CENTROID, "a = array(a.typecode, a)\n        a.byteswap()", "a = array(a.typecode, a)",
           "a big-endian host stores its native bytes"),
    Mutant(CENTROID, "a = array(a.typecode, a)\n        a.byteswap()", "a.byteswap()",
           "a big-endian host swaps the caller's array in place"),
)


def edited(checkout: Path, mutant: Mutant) -> str:
    """The text of the mutant's file with its edit applied; an ``old`` text that does not occur exactly once raises."""
    text = (checkout / mutant.file).read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.file}: {mutant.old!r} occurs {count} times, not once")
    return text.replace(mutant.old, mutant.new)


def failing_tests(checkout: Path, edit: tuple[str, str] | None) -> list[str]:
    """The ids of the tier-1 tests that fail or error on a copy of ``checkout`` whose file ``edit[0]`` holds ``edit[1]``."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(checkout, copy)
        if edit is not None:
            (copy / edit[0]).write_text(edit[1], encoding="utf-8")
        # the copy's own src alone, so that a test's subprocess imports the mutant too
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        try:
            run = subprocess.run([sys.executable, *TIER1], cwd=copy, env=env, capture_output=True, text=True,
                                 timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return [f"(no result within {TIMEOUT_S} s)"]
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0] for line in run.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    if run.returncode != 0 and not failed:
        return [f"(pytest exited {run.returncode} and named no test)"]
    return failed


def main() -> int:
    start = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        # every run starts from the checkout as it was when the script started
        snapshot = Path(tmp) / "checkout"
        shutil.copytree(ROOT, snapshot, ignore=LEFT_OUT)
        edits = [(mutant.file, edited(snapshot, mutant)) for mutant in CATALOGUE]  # each applies before any run
        with ThreadPoolExecutor(max_workers=os.cpu_count()) as pool:
            unmutated, *killers = pool.map(lambda edit: failing_tests(snapshot, edit), [None, *edits])
    if unmutated:
        print("the unmutated checkout fails tier-1, so no mutant can be judged:", *unmutated, sep="\n  ")
        return 1
    live = 0
    for number, (mutant, killed_by) in enumerate(zip(CATALOGUE, killers), start=1):
        if mutant.equivalent is not None:
            status = "equivalent"
        elif killed_by:
            status = "killed"
        else:
            status, live = "LIVE", live + 1
        print(f"{number:2}  {status:<10} {len(killed_by):3}  {mutant.intent} ({mutant.file})")
        if mutant.equivalent is not None:
            print(f"{'':18}{mutant.equivalent}")
        for test in killed_by:
            print(f"{'':18}{test}")
    print(f"{len(CATALOGUE)} mutants, {live} live, in {time.monotonic() - start:.0f} s, {os.cpu_count()} at a time")
    return 1 if live else 0


if __name__ == "__main__":
    sys.exit(main())
