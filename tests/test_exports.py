"""The package's public surface: every exported name resolves."""

import metriclab


def test_every_exported_name_resolves():
    assert [name for name in metriclab.__all__ if not hasattr(metriclab, name)] == []
    namespace = {}
    exec("from metriclab import *", namespace)
    assert set(metriclab.__all__) <= set(namespace)
