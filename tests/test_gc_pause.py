"""Runs pause the cyclic garbage collector and hand the caller's setting back.

``refine_naive`` and ``refine_hopcroft`` pause it for their run, and every
CLI command pauses it from load to output.  A caller that runs commands
in-process, as the benchmark's worker does, must find the collector as it
left it after every exit path, or all its later work would run without it.
The CLI's own lines must not keep a redirected stream alive either.
"""

import gc
import inspect
import io
import json
import weakref
from contextlib import redirect_stderr, redirect_stdout

import pytest

import bisimkit.cli as cli
from bisimkit.engine import ConfigurationError, refine_hopcroft, refine_naive
from bisimkit.formats import dump_coalgebra
from bisimkit.gen import GenSpec, generate


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def collector(request):
    """The caller's collector setting, put back after the test whatever it does."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def invoke(argv):
    """Run one command in-process with stdout and stderr redirected.

    Returns the exit code (or the exception's type name) and weak references
    to the two streams, which the caller has dropped.
    """
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            cli.main(argv, standalone_mode=False)
        code = 0
    except SystemExit as e:
        code = e.code
    except Exception as e:
        code = type(e).__name__
    return code, (weakref.ref(out), weakref.ref(err))


@pytest.fixture
def inputs(tmp_path):
    coalg = tmp_path / "in.json"
    coalg.write_text(dump_coalgebra(generate(GenSpec("dfa", 30, seed=3))), encoding="utf-8")
    bad_dfa = tmp_path / "bad.dfa"
    bad_dfa.write_text("dfa 2 1\n1 5\n0 0\n", encoding="utf-8")
    tight = tmp_path / "tight.json"
    tight.write_text(json.dumps({"parent": [0, 0, 0], "w": [3, 2, 1]}), encoding="utf-8")
    law_broken = tmp_path / "broken.json"
    law_broken.write_text(json.dumps({"parent": [0, 0, 0], "w": [3, 2, 2]}), encoding="utf-8")
    return {"in": str(coalg), "bad_dfa": str(bad_dfa), "tight": str(tight),
            "broken": str(law_broken)}


def failing_audit(*args):
    raise ValueError("heavy child 1 of 0 is not of maximal weight")


def crashing_refine(*args):
    raise RuntimeError("engine crashed")


# (id, argv with {placeholders} for the inputs, expected code, attribute of
# cli to replace and its stand-in)
CASES = [
    ("minimize-0", ["minimize", "{in}", "--audit", "--stats", "--tree-out", "-"], 0, None),
    ("minimize-naive-0", ["minimize", "{in}", "--algo", "naive"], 0, None),
    ("minimize-malformed-2", ["minimize", "{bad_dfa}"], 2, None),
    ("minimize-conflict-2", ["minimize", "{in}", "--algo", "naive", "--audit"], 2, None),
    ("minimize-audit-1", ["minimize", "{in}", "--audit", "--tree-out", "-"], 1,
     ("audit_tree", failing_audit)),
    ("minimize-crash", ["minimize", "{in}"], "RuntimeError",
     ("refine_hopcroft", crashing_refine)),
    ("compare-0", ["compare", "{in}"], 0, None),
    ("audit-tree-0", ["audit-tree", "{tight}"], 0, None),
    ("audit-tree-1", ["audit-tree", "{broken}"], 1, None),
    ("no-such-option", ["minimize", "{in}", "--no-such-option"], 2, None),
    ("no-such-command", ["no-such-command"], 2, None),
]


@pytest.mark.parametrize("argv, code, patch", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_cli_restores_the_callers_collector_setting(collector, inputs, monkeypatch,
                                                     argv, code, patch):
    if patch is not None:
        monkeypatch.setattr(cli, *patch)
    loads, load = [], cli.load_coalgebra

    def load_spy(*args):
        loads.append(gc.isenabled())
        return load(*args)

    monkeypatch.setattr(cli, "load_coalgebra", load_spy)
    got, _ = invoke([a.format(**inputs) for a in argv])
    assert got == code
    assert gc.isenabled() is collector
    # loading runs outside refine_*, so only the command's own pause covers it
    assert not any(loads)


@pytest.mark.parametrize("refine", [refine_naive, refine_hopcroft])
def test_refine_restores_the_callers_collector_setting(collector, refine):
    seen = []
    coalg = generate(GenSpec("lts", 40, seed=2))
    refine(coalg, snapshots=seen)
    assert gc.isenabled() is collector
    assert len(seen) > 1


def test_refine_restores_the_setting_when_it_raises(collector):
    with pytest.raises(ConfigurationError):
        refine_hopcroft(generate(GenSpec("dfa", 5, seed=1)), "no-such-weight")
    assert gc.isenabled() is collector


def test_refine_functions_keep_their_names_and_signatures():
    # the benchmark's tracer and the spy tests find them by name
    assert (refine_naive.__name__, refine_hopcroft.__name__) == ("refine_naive", "refine_hopcroft")
    assert list(inspect.signature(refine_hopcroft).parameters) == ["coalg", "weight", "snapshots"]


@pytest.mark.parametrize("argv, code", [
    (["minimize", "{in}", "--audit", "--stats", "--tree-out", "-"], 0),
    (["minimize", "{bad_dfa}"], 2),
    (["compare", "{in}"], 0),
    (["audit-tree", "{tight}"], 0),
    (["audit-tree", "{broken}"], 1),
], ids=["minimize-audit", "minimize-error", "compare", "audit-tree", "audit-tree-violated"])
def test_redirected_streams_are_collectable_after_the_command(inputs, argv, code):
    got, refs = invoke([a.format(**inputs) for a in argv])
    assert got == code
    gc.collect()
    assert [r() for r in refs] == [None, None]
