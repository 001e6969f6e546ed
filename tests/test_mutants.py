"""The mutant table in tools/mutants.py still points at live code.

The runner stays out of this suite; this only checks that each row's old
text occurs exactly once in its file, so that a refactor of the mutated
code updates the table instead of leaving a row that mutates nothing.
"""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "mutants.py")
_SPEC = importlib.util.spec_from_file_location("mutants", _PATH)
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=[m.name for m in mutants.MUTANTS])
def test_each_mutant_old_text_occurs_exactly_once(mutant):
    assert mutants.occurrences(mutant) == 1
