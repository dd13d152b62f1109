"""Public surface: every exported name resolves, deleted names stay gone."""

import importlib

import pytest

import bisimkit

MODULES = ["cli", "coalgebra", "engine", "formats", "functors", "gen", "oracle", "values", "wtree"]

DELETED = ["block_weight", "reachable_targets", "occurring_states"]


def test_package_exports_resolve():
    for name in bisimkit.__all__:
        assert hasattr(bisimkit, name), name


@pytest.mark.parametrize("mod", MODULES)
def test_module_exports_resolve(mod):
    m = importlib.import_module(f"bisimkit.{mod}")
    for name in getattr(m, "__all__", ()):
        assert hasattr(m, name), f"bisimkit.{mod}.{name}"


@pytest.mark.parametrize("mod", ["", *MODULES])
def test_deleted_names_not_exported(mod):
    m = importlib.import_module(f"bisimkit.{mod}" if mod else "bisimkit")
    for name in DELETED:
        assert name not in getattr(m, "__all__", ()), (mod, name)
        assert not hasattr(m, name), (mod, name)
