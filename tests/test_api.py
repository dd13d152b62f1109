"""Public surface: every exported name resolves, deleted names stay gone."""

import ast
import dataclasses
import importlib
import os
import re
import subprocess
import sys

import pytest
from util import invoke_cli

import bisimkit

MODULES = ["cli", "coalgebra", "engine", "formats", "functors", "gen", "oracle", "values", "wtree"]

DELETED = ["block_weight", "reachable_targets", "occurring_states", "RigidForm", "edges",
           "PairRelation", "check_r_partitioning", "quotient", "map_state_refs",
           "FLOAT_BOUND_RELTOL", "_factorize", "_components", "_successors", "_predecessors",
           "_check_heavy_shape", "_check_hcc", "_related", "_flat_masses", "_bucket_masses"]


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


def test_deleted_tree_methods_stay_gone():
    assert not hasattr(bisimkit.WeightedTree, "edges")


def test_audit_report_has_one_bound_verdict():
    # theorem1_ok is the exact verdict; no second, float-only verdict
    fields = {f.name for f in dataclasses.fields(bisimkit.AuditReport)}
    assert "theorem1_ok" in fields and "bound_exact_ok" not in fields


def test_refinement_tree_is_four_per_node_arrays():
    # the heavy choice and the leaf members are per-node lists, the tree
    # document's arrays; the dict forms and their converters are gone
    tree = bisimkit.refine_hopcroft(bisimkit.generate(bisimkit.GenSpec("dfa", 8, seed=1))).tree
    for name in ("heavy_choice", "leaf_members", "node_count"):
        assert not hasattr(bisimkit.RefinementTree, name), name
        assert not hasattr(tree, name), name
    assert list(vars(tree)) == ["parent", "weight", "members", "heavy"]


def test_oracle_stays_independent_of_the_engine():
    # the oracle shares no code with refinement: from the engine it takes
    # only the Partition it answers with, from coalgebra only the type it
    # reads, and it never reads the compiled form
    path = os.path.join(os.path.dirname(bisimkit.__file__), "oracle.py")
    with open(path, encoding="utf-8") as f:
        module = ast.parse(f.read())
    from_engine, from_coalgebra = set(), set()
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("bisimkit") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            # a whole-module import such as "from . import engine" would
            # get round the name checks below
            assert node.module not in (None, "bisimkit"), ast.unparse(node)
            names = {a.name for a in node.names}
            if node.module.endswith("engine"):
                from_engine |= names
            elif node.module.endswith("coalgebra"):
                from_coalgebra |= names
    assert from_engine == {"Partition"}
    assert from_coalgebra <= {"Coalgebra"}
    reads = {n.attr for n in ast.walk(module) if isinstance(n, ast.Attribute)}
    assert "form" not in reads


def _layer_of_span():
    """``LAYER_OF_SPAN`` from the benchmark's tracer, parsed without running it."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
    with open(path, encoding="utf-8") as f:
        module = ast.parse(f.read())
    for node in module.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYER_OF_SPAN"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no LAYER_OF_SPAN")


def test_names_the_benchmark_traces_resolve():
    # the tracer skips a name the program no longer has, and the name's
    # layer metric then reads 0 without a word
    names = [n for n in _layer_of_span() if n.split(".")[0] in ("cli", "engine", "coalgebra")]
    assert "engine.SignatureEvaluator" in names
    missing = []
    for name in names:
        if name == "engine.signature":  # the evaluator's method
            name = "engine.SignatureEvaluator.signature"
        mod, *attrs = name.split(".")
        obj = importlib.import_module(f"bisimkit.{mod}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(name)
    assert missing == []


# every option of every command and its help text, defaults as click showed them
HELP = {
    "minimize": {
        "--help": "show this help message and exit",
        "--format": "[default: auto]",
        "--algo": "[default: hopcroft]",
        "--weight": "Block weight for the hopcroft algorithm [default: card].",
        "--out": "Partition JSON destination ('-' for stdout). [default: -]",
        "--audit": "Emit the refinement tree and verify its weight bounds.",
        "--tree-out": "Refinement tree destination, with --audit "
                      "[default: OUT.tree.json; ./refinement-tree.json when OUT is '-'].",
        "--stats": "Emit run counters.",
        "--stats-out": "Counters destination, with --stats [default: stderr].",
    },
    "compare": {"--help": "show this help message and exit", "--format": "[default: auto]"},
    "audit-tree": {"--help": "show this help message and exit"},
    "gen": {
        "--help": "show this help message and exit",
        "--family": "",
        "--states": "",
        "--alphabet": "[default: 2]",
        "--branching": "[default: 2]",
        "--seed": "[default: 0]",
        "--out": "[default: -]",
    },
}


def options_help(text):
    """Each option of a ``--help`` text with its help, wrapped lines joined."""
    helps, option = {}, None
    for line in text.split("\noptions:\n")[1].splitlines():
        m = re.fullmatch(r"  (?:-h, )?(--[\w-]+)(?: [A-Z_]+| \{[^}]*\})?(?:  +(.*))?", line)
        if m:
            option = m[1]
            helps[option] = m[2] or ""
        else:
            helps[option] = f"{helps[option]} {line.strip()}".strip()
    return helps


def test_bench_command_is_gone():
    # gen plus minimize --stats give every counter bench wrote
    res = invoke_cli(["--help"])
    assert res.exit_code == 0
    assert "bench" not in res.output
    assert re.findall(r"^    ([\w-]+)", res.stdout, re.M) == list(HELP)
    for command, helps in HELP.items():
        res = invoke_cli([command, "--help"])
        assert (res.exit_code, res.stderr) == (0, ""), command
        assert options_help(res.stdout) == helps, command


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


def test_cli_loads_no_click():
    # commands are parsed by argparse; click is only a test-time dependency
    code = "import sys, bisimkit, bisimkit.cli\nprint('click' in sys.modules)\n"
    src = os.path.dirname(os.path.dirname(bisimkit.__file__))
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"
