"""Public surface: every exported name resolves, deleted names stay gone."""

import importlib
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

import bisimkit
from bisimkit.cli import main

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


def test_bench_command_is_gone():
    # gen plus minimize --stats give every counter bench wrote
    res = CliRunner().invoke(main, ["--help"])
    assert res.exit_code == 0
    assert "bench" not in res.output
    assert "minimize" in res.output


def test_audit_loads_no_mpmath():
    # the exact bound check needs only integers, so nothing pulls mpmath in
    code = (
        "import sys, bisimkit\n"
        "from bisimkit import WeightedTree, audit_tree\n"
        "assert audit_tree(WeightedTree([0, 0, 0, 1]), [5, 3, 2, 1]).all_ok()\n"
        "print('mpmath' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(bisimkit.__file__))
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"
