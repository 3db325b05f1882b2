"""Tests for the package's export list."""

import carrychain


def test_export_list_resolves():
    assert len(set(carrychain.__all__)) == len(carrychain.__all__)
    namespace: dict = {}
    exec("from carrychain import *", namespace)  # fails on any unresolved name
    assert set(carrychain.__all__) <= namespace.keys()
