"""The mutant catalog of ``deep/mutants.py`` still applies: each old text
occurs exactly once in its file, and each selected test exists.  Running
the mutants is the deep catalog's job; this only keeps it from going
stale as the code moves.
"""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = runpy.run_path(str(ROOT / "deep" / "mutants.py"))["MUTANTS"]


def test_names_are_distinct():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names)) >= 10


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_once(mutant):
    text = (ROOT / mutant.path).read_text()
    assert mutant.old != mutant.new
    assert text.count(mutant.old) == 1


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_selected_tests_exist(mutant):
    for arg in mutant.selection:
        if not arg.startswith("tests/"):
            continue
        path, *names = arg.split("::")
        source = (ROOT / path).read_text()
        for name in names:
            assert re.search(rf"^\s*(class|def) {re.escape(name)}\b", source, re.M), arg
