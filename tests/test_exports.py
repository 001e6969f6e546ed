"""The package's public surface: its exports and the README's library example."""

import re
import types
from pathlib import Path

import metriclab

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    assert [name for name in metriclab.__all__ if not hasattr(metriclab, name)] == []
    namespace = {}
    exec("from metriclab import *", namespace)
    assert set(metriclab.__all__) <= set(namespace)


def test_all_is_sorted_and_lists_every_public_name():
    public = {
        name
        for name, value in vars(metriclab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert metriclab.__all__ == sorted(metriclab.__all__)
    assert set(metriclab.__all__) == public


def test_readme_library_example_runs_and_its_bounds_hold(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "(1, 1, 0)"
    bounds = [line.split(" <= ") for line in lines[1:]]
    assert len(bounds) == 2
    for achieved, bound in bounds:
        assert 0 < float(achieved) <= float(bound)
