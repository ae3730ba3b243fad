"""The package namespace: every exported name resolves."""

import qcrlab


def test_all_names_are_attributes():
    missing = [name for name in qcrlab.__all__ if not hasattr(qcrlab, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from qcrlab import *", namespace)
    assert set(qcrlab.__all__) <= set(namespace)
