"""The routines the benchmark times still carry the work.

The benchmark's tracer times ``engine.mark_dirty``,
``SignatureEvaluator.signature``, ``cli.audit_tree``,
``coalgebra.value_from_obj`` and ``coalgebra.validate_value`` by wrapping
those names from outside the program; a split's signatures are computed in
``engine.split_leaf``.  Inlining one of them into its caller would leave
the program correct and zero that layer's metric without a word, so these
tests count the calls through each name.  A coalgebra JSON document goes
through the two value names only when the direct decoder leaves it to the
reference decoding, as it does every rejected document.

A naive sweep computes every state's key in one call of
``SignatureEvaluator.sweep_keys``, and a split of a leaf of a ``P`` or
``D`` functor computes its dirty states' keys in one call of
``SignatureEvaluator.keys``.  The tracer does not wrap those names yet, so
their time shows in the run's ``engine.self_s``; counting their calls
keeps the work behind the one name a tracer can wrap.
"""

import gc
import json

import pytest

from util import invoke_cli, labelled_mc

import bisimkit.cli as cli
from bisimkit import coalgebra, engine
from bisimkit.coalgebra import SignatureEvaluator
from bisimkit.engine import WEIGHT_KINDS, refine_hopcroft, refine_naive
from bisimkit.formats import FormatError, dump_coalgebra, load_coalgebra
from bisimkit.gen import GenSpec, generate

FAMILIES = ("dfa", "chain", "lts")


def counting(calls, key, fn):
    def spy(*args, **kwargs):
        calls[key] = calls.get(key, 0) + 1
        return fn(*args, **kwargs)

    return spy


@pytest.mark.parametrize("weight", WEIGHT_KINDS)
@pytest.mark.parametrize("family", FAMILIES)
def test_engine_work_goes_through_the_timed_routines(monkeypatch, family, weight):
    coalg = generate(GenSpec(family, 40, seed=7))
    calls = {}
    pops = {"non_singleton": int(coalg.n_states > 1), "lone": 0}  # leaf 0 is queued first
    split_leaf, mark_dirty = engine.split_leaf, engine.mark_dirty

    def mark_dirty_spy(light, pidx, part, queue):
        # every leaf queued here is popped later with the slice it has now:
        # only a popped leaf is split
        queued = len(queue)
        out = mark_dirty(light, pidx, part, queue)
        for leaf in list(queue)[queued:]:
            pops["non_singleton"] += part.end[leaf] - part.first[leaf] > 1
        return out

    def split_leaf_spy(part, leaf, ev):
        assert part.end[leaf] - part.first[leaf] > 1
        assert not gc.isenabled()  # refine_hopcroft pauses the collector
        pops["lone"] += part.mid[leaf] - part.first[leaf] == 1  # split off unkeyed
        return split_leaf(part, leaf, ev)

    keys = SignatureEvaluator.keys

    def keys_spy(ev, states, block_of):
        calls["keyed states"] = calls.get("keyed states", 0) + len(states)
        return keys(ev, states, block_of)

    monkeypatch.setattr(engine, "split_leaf", counting(calls, "split_leaf", split_leaf_spy))
    monkeypatch.setattr(engine, "mark_dirty", counting(calls, "mark_dirty", mark_dirty_spy))
    for name in ("signature", "sweep_keys"):
        monkeypatch.setattr(SignatureEvaluator, name,
                            counting(calls, name, getattr(SignatureEvaluator, name)))
    monkeypatch.setattr(SignatureEvaluator, "keys", counting(calls, "keys", keys_spy))
    monkeypatch.setattr(coalgebra, "zip_longest", counting(calls, "columns", coalgebra.zip_longest))
    stats = refine_hopcroft(coalg, weight).stats
    assert stats.splits > 1
    assert calls["split_leaf"] == pops["non_singleton"]
    assert calls["mark_dirty"] == stats.splits
    if coalg.form.shape is not None:  # rigid: one signature call per state
        assert calls["signature"] == stats.signatures_computed
        assert "keys" not in calls
    else:  # one keys call per keyed split, and no per-state signature call
        assert calls.get("keys", 0) == calls["split_leaf"] - pops["lone"]
        assert calls.get("keyed states", 0) == stats.signatures_computed
        assert "signature" not in calls
    assert "sweep_keys" not in calls and "columns" not in calls  # no sweep, no columns


@pytest.mark.parametrize("family", [*FAMILIES, "lmc"])
def test_naive_sweep_keys_go_through_one_evaluator_method(monkeypatch, family):
    coalg = labelled_mc(40, 5) if family == "lmc" else generate(GenSpec(family, 40, seed=7))
    calls = {}
    for name in ("signature", "keys", "sweep_keys"):
        monkeypatch.setattr(SignatureEvaluator, name,
                            counting(calls, name, getattr(SignatureEvaluator, name)))
    monkeypatch.setattr(coalgebra, "zip_longest", counting(calls, "columns", coalgebra.zip_longest))
    stats = refine_naive(coalg).stats
    assert stats.iterations > 1
    assert stats.signatures_computed == stats.iterations * coalg.n_states
    # one call per sweep; a rigid functor's columns are built once per run
    rigid = coalg.form.shape is not None
    assert calls == {"sweep_keys": stats.iterations, **({"columns": 1} if rigid else {})}


def test_minimize_audit_goes_through_cli_audit_tree(monkeypatch, tmp_path):
    path = tmp_path / "in.json"
    path.write_text(dump_coalgebra(generate(GenSpec("dfa", 30, seed=3))), encoding="utf-8")
    calls = {}
    monkeypatch.setattr(cli, "audit_tree", counting(calls, "audit_tree", cli.audit_tree))
    res = invoke_cli(["minimize", str(path), "--audit", "--stats",
                      "--tree-out", "-"])
    assert res.exit_code == 0, res.output
    assert calls == {"audit_tree": 1}


def _first_ref_out_of_range(obj, n):
    """A copy of JSON value ``obj`` with its first state reference set to n,
    or None when it has none."""
    if isinstance(obj, dict) and isinstance(obj.get("x"), int):
        return {**obj, "x": n}
    items = list(obj.items()) if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for k, v in items:
        bad = _first_ref_out_of_range(v, n)
        if bad is not None:
            copy = dict(obj) if isinstance(obj, dict) else list(obj)
            copy[k] = bad
            return copy
    return None


@pytest.mark.parametrize("family", ["nfa", "mdp", "lmc"])
def test_coalg_json_load_goes_through_the_traced_value_names(monkeypatch, tmp_path, family):
    # values.from_obj_s and values.validate_s time exactly these two names,
    # once per state, on the reference decoding, which decides the documents
    # the direct decoder does not accept; a valid document calls neither
    coalg = labelled_mc(12, 3) if family == "lmc" else generate(GenSpec(family, 12, seed=3))
    doc = json.loads(dump_coalgebra(coalg))
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(doc), encoding="utf-8")
    # the last state refers past the state count
    doc["c"][-1] = next(filter(None, (_first_ref_out_of_range(v, 12) for v in doc["c"])))
    bad.write_text(json.dumps(doc), encoding="utf-8")
    calls = {}
    for name in ("value_from_obj", "validate_value"):
        monkeypatch.setattr(coalgebra, name, counting(calls, name, getattr(coalgebra, name)))
    assert load_coalgebra(str(good)) == coalg
    assert calls == {}
    with pytest.raises(FormatError, match=r"^state 11: state 12 out of range \[0, 12\)$"):
        load_coalgebra(str(bad))
    assert calls == {"value_from_obj": 12, "validate_value": 12}
