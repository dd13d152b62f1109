"""Coalgebra construction, predecessor index, signature evaluator."""

import random
from collections import Counter

import pytest
from util import MIXED_ARITY_FUNCTORS, random_value

import bisimkit.coalgebra
from bisimkit.coalgebra import (
    Coalgebra,
    CompiledForm,
    SignatureEvaluator,
    build_pred_index,
    coalgebra_from_obj,
    coalgebra_to_obj,
)
from bisimkit.functors import parse_functor
from bisimkit.engine import WEIGHT_KINDS, refine_hopcroft, refine_naive
from bisimkit.gen import GenSpec, generate
from bisimkit.oracle import related
from bisimkit.values import (
    DistVal,
    FunVal,
    InjVal,
    InvalidValueError,
    Label,
    SetVal,
    StateRef,
    TupleVal,
    signature_of,
    value_to_obj,
)

PX = parse_functor("P X")


def kripke(*succ_lists):
    values = [SetVal(tuple(StateRef(s) for s in succs)) for succs in succ_lists]
    return Coalgebra.make(PX, values)


def test_make_validates_every_state():
    with pytest.raises(InvalidValueError):
        kripke([0], [7])


def test_pred_index_simple():
    c = kripke([1], [])
    idx = build_pred_index(SignatureEvaluator(c))
    assert idx.preds == ((), (0,))
    assert idx.m == 1 and idx.max_indegree == 1


def test_pred_index_self_loop():
    c = kripke([0])
    assert build_pred_index(SignatureEvaluator(c)).preds == ((0,),)


def test_pred_index_complete_graph():
    n = 4
    c = kripke(*[range(n)] * n)
    idx = build_pred_index(SignatureEvaluator(c))
    assert idx.m == n * n and idx.max_indegree == n
    assert all(p == tuple(range(n)) for p in idx.preds)


def test_pred_index_matches_erasure_oracle():
    # Def-style cross-check on the JSON encoding: y is a predecessor target
    # of x exactly when the value's JSON mentions {"x": y}
    for fam in ("dfa", "nfa", "lts", "mc", "mdp"):
        c = generate(GenSpec(fam, 15, seed=42))
        idx = build_pred_index(SignatureEvaluator(c))
        for y in range(c.n_states):
            expected = sorted(
                x
                for x in range(c.n_states)
                if y in _json_refs(c.values[x])
            )
            assert list(idx.preds[y]) == expected


def _collect_json_refs(obj, out):
    if isinstance(obj, dict):
        if "x" in obj and isinstance(obj["x"], int):
            out.add(obj["x"])
        for v in obj.values():
            _collect_json_refs(v, out)
    elif isinstance(obj, list):
        for v in obj:
            _collect_json_refs(v, out)


def _json_refs(value):
    out = set()
    _collect_json_refs(value_to_obj(value), out)
    return out


def _ordered_json_refs(obj, out):
    if isinstance(obj, dict):
        if isinstance(obj.get("x"), int):
            out.append(obj["x"])
        for v in obj.values():
            _ordered_json_refs(v, out)
    elif isinstance(obj, list):
        for v in obj:
            _ordered_json_refs(v, out)
    return out


@pytest.mark.parametrize("fam", ["dfa", "nfa", "lts", "mc", "mdp", "chain"])
def test_evaluator_refs_list_every_occurrence_in_value_order(fam):
    # both kinds of compiled form: rigid (with shapes) and general (refs only)
    c = generate(GenSpec(fam, 40, seed=8))
    ev = SignatureEvaluator(c)
    assert ev.refs == [
        tuple(_ordered_json_refs(value_to_obj(v), [])) for v in c.values
    ]


def test_pred_index_empty_set_has_no_refs():
    c = kripke([], [0])
    assert build_pred_index(SignatureEvaluator(c)).preds == ((1,), ())


def test_pred_index_shared_target_counted_once():
    # both letters of state 0 lead to state 1: one predecessor pair
    dfa = parse_functor("{0,1} * (X ^ {a,b})")
    v = TupleVal((Label("1"), FunVal((("a", StateRef(1)), ("b", StateRef(1))))))
    w = TupleVal((Label("0"), FunVal((("a", StateRef(1)), ("b", StateRef(0))))))
    idx = build_pred_index(SignatureEvaluator(Coalgebra.make(dfa, [v, w])))
    assert idx.preds == ((1,), (0, 1))
    assert idx.m == 3


def test_pred_index_distribution_target():
    dx = parse_functor("D X")
    c = Coalgebra.make(dx, [DistVal(((StateRef(1), 1),)), DistVal(((StateRef(1), 1),))])
    assert build_pred_index(SignatureEvaluator(c)).preds == ((), (0, 1))


def test_reachable_targets():
    # the reachable targets are the states with a nonempty predecessor list
    def reachable(c):
        return {y for y, p in enumerate(build_pred_index(SignatureEvaluator(c)).preds) if p}

    assert reachable(kripke([1], [])) == {1}
    assert reachable(kripke([0], [1], [2])) == {0, 1, 2}


def test_reachable_matches_bruteforce_union():
    c = generate(GenSpec("nfa", 20, seed=5))
    expected = set()
    for x in range(c.n_states):
        expected |= _json_refs(c.values[x])
    preds = build_pred_index(SignatureEvaluator(c)).preds
    assert {y for y, p in enumerate(preds) if p} == expected


def test_coalgebra_json_round_trip():
    for fam in ("dfa", "nfa", "lts", "mc", "mdp"):
        c = generate(GenSpec(fam, 9, seed=3))
        c2 = coalgebra_from_obj(coalgebra_to_obj(c))
        assert c2 == c


def test_evaluator_fast_path_matches_generic(seed=17):
    # rigid functors use a flat signature; equality verdicts must coincide
    # with the generic nested form under any block labelling
    rng = random.Random(seed)
    for trial in range(30):
        c = generate(GenSpec("dfa", rng.randint(1, 30), alphabet_size=rng.randint(1, 3),
                             seed=trial))
        ev = SignatureEvaluator(c)
        blocks = [rng.randrange(4) for _ in range(c.n_states)]
        for x in range(c.n_states):
            for y in range(c.n_states):
                fast_eq = ev.signature(x, blocks) == ev.signature(y, blocks)
                slow_eq = signature_of(c.values[x], blocks) == signature_of(c.values[y], blocks)
                assert fast_eq == slow_eq


def test_evaluator_general_path_matches_signature_of(seed=23):
    rng = random.Random(seed)
    for fam in ("nfa", "lts", "mc", "mdp"):
        c = generate(GenSpec(fam, 12, seed=99))
        ev = SignatureEvaluator(c)
        blocks = [rng.randrange(3) for _ in range(c.n_states)]
        for x in range(c.n_states):
            assert ev.signature(x, blocks) == signature_of(c.values[x], blocks)


@pytest.mark.parametrize("functor", [
    "{0,1} * P ({a,b} * D (X + {stop}))",
    "(X ^ {a}) + P X",
    "D (X + {stop})",
    "P D X",
    "P ((X * X) + {z})",
    "X + {stop}",
])
def test_evaluator_key_equality_matches_oracle_relatedness(functor, seed=41):
    # the oracle decides one-step relatedness by direct matching, with no
    # canonical form, so it checks both evaluator modes independently
    expr = parse_functor(functor)
    rng = random.Random(seed)
    verdicts = set()
    for _ in range(8):
        c = Coalgebra.make(expr, [random_value(expr, rng, 8) for _ in range(8)])
        ev = SignatureEvaluator(c)
        for _ in range(4):
            blocks = [rng.randrange(3) for _ in range(c.n_states)]
            for x in range(c.n_states):
                for y in range(c.n_states):
                    same = ev.signature(x, blocks) == ev.signature(y, blocks)
                    assert same == related(c.values[x], c.values[y], blocks)
                    verdicts.add(same)
    assert verdicts == {True, False}


@pytest.mark.parametrize("functor", [*MIXED_ARITY_FUNCTORS, "{0,1} * (X ^ {a,b})", "D X"])
def test_sweep_keys_are_equal_when_blocks_and_signatures_are(functor, seed=13):
    expr = parse_functor(functor)
    rng = random.Random(seed)
    verdicts = set()
    for _ in range(6):
        c = Coalgebra.make(expr, [random_value(expr, rng, 10) for _ in range(10)])
        ev = SignatureEvaluator(c)
        for _ in range(4):
            blocks = [rng.randrange(3) for _ in range(c.n_states)]
            keys = list(ev.sweep_keys(blocks))
            pairs = [(blocks[x], ev.signature(x, blocks)) for x in range(c.n_states)]
            assert len(keys) == c.n_states
            for x in range(c.n_states):
                for y in range(c.n_states):
                    same = keys[x] == keys[y]
                    assert same == (pairs[x] == pairs[y])
                    verdicts.add(same)
    assert verdicts == {True, False}


@pytest.mark.parametrize("functor", [
    "X + {stop}",
    "(X * X) + {z}",
    "{0,1} * (X ^ {a,b,c})",
    "(X ^ {b,a}) * {p,q}",
    "{a,b}",
    "({a,b} * X) + ({p} * X * X)",
])
def test_rigid_form_decodes_to_the_values_it_was_compiled_from(functor, seed=5):
    expr = parse_functor(functor)
    rng = random.Random(seed)
    made = Coalgebra.make(expr, [random_value(expr, rng, 9) for _ in range(9)])
    flat = Coalgebra.from_form(expr, made.form)
    assert flat.values == made.values
    assert flat == made


def test_shape_key_is_labels_and_tags_in_value_order():
    # the functor supplies the nesting, so the key is flat
    expr = parse_functor("({a,b} * X) + ({p} * X * X)")
    values = [
        InjVal(1, TupleVal((Label("p"), StateRef(2), StateRef(0)))),
        InjVal(0, TupleVal((Label("b"), StateRef(1)))),
        InjVal(1, TupleVal((Label("p"), StateRef(1), StateRef(1)))),
    ]
    form = Coalgebra.make(expr, values).form
    assert form == CompiledForm([(2, 0), (1,), (1, 1)], [0, 1, 0], ((1, "p"), (0, "b")))
    assert Coalgebra.from_form(expr, form).values == tuple(values)


def test_general_functors_have_no_rigid_form():
    c = generate(GenSpec("nfa", 5, seed=1))
    assert c.form.shape is None and c.form.keys == ()
    assert len(c.form.refs) == 5
    # refs alone cannot stand in for the values
    with pytest.raises(InvalidValueError):
        Coalgebra.from_form(c.functor, c.form)


@pytest.mark.parametrize("fam", ["nfa", "lts", "mdp"])
def test_engines_walk_each_value_once_in_total(fam, monkeypatch):
    walked, compiled = [], []
    walk, compile_ = bisimkit.coalgebra._walk, bisimkit.coalgebra._compile

    def walk_spy(v, refs, key):
        walked.append(v)
        walk(v, refs, key)

    def compile_spy(*args):
        compiled.append(args)
        return compile_(*args)

    monkeypatch.setattr(bisimkit.coalgebra, "_walk", walk_spy)
    monkeypatch.setattr(bisimkit.coalgebra, "_compile", compile_spy)
    c = generate(GenSpec(fam, 30, seed=4))
    refine_naive(c)
    for w in WEIGHT_KINDS:
        refine_hopcroft(c, w)
    # the walk recurses through the spy, so count the calls on whole values
    states = Counter(map(id, c.values))
    assert Counter(id(v) for v in walked if id(v) in states) == states
    assert len(compiled) == 1
