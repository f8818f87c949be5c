"""scripts/mutants.py: every mutant of its catalogue still applies to the source it names, checked without running one.

A change that moves or rewrites a mutated line fails here, and updates the
catalogue in the same change.
"""

import pytest

from conftest import ROOT, SCRIPTS, import_script

MUTANTS = import_script(SCRIPTS, "mutants")


@pytest.mark.parametrize("mutant", MUTANTS.CATALOGUE, ids=lambda mutant: mutant.intent)
def test_every_catalogued_mutant_applies_once(mutant):
    path = ROOT / mutant.file
    assert path.is_file()
    assert path.read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.equivalent is None or mutant.equivalent.strip()
