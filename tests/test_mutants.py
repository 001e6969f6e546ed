"""The mutant table in tools/mutants.py still points at live code.

The runner stays out of this suite; this only checks that each row's old
text occurs exactly once in its file, so that a refactor of the mutated
code updates the table instead of leaving a row that mutates nothing,
and that each row's test nodes name test functions defined in their
files, so that a renamed test fails here instead of as a runner error.
"""

import ast
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


def _test_functions(path):
    with open(os.path.join(mutants.ROOT, path), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=[m.name for m in mutants.MUTANTS])
def test_each_mutant_node_names_a_test_in_its_file(mutant):
    for node in mutant.nodes:
        path, name = node.split("::")
        assert name.split("[")[0] in _test_functions(path), node
