"""The package's export list."""

import dlesim


def test_every_exported_name_resolves():
    assert len(set(dlesim.__all__)) == len(dlesim.__all__)
    for name in dlesim.__all__:
        assert hasattr(dlesim, name), name


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from dlesim import *", namespace)
    assert set(dlesim.__all__) <= set(namespace)
