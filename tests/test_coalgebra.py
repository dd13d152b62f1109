"""Coalgebra construction, predecessor index, signature evaluator."""

import random
from collections import Counter

from fractions import Fraction

import pytest
from util import MIXED_ARITY_FUNCTORS, labelled_mc, random_value

import bisimkit.coalgebra
from bisimkit.coalgebra import (
    Coalgebra,
    CompiledForm,
    SignatureEvaluator,
    build_pred_index,
    coalgebra_from_obj,
    coalgebra_to_obj,
)
from bisimkit.functors import is_rigid, parse_functor
from bisimkit.engine import WEIGHT_KINDS, refine_hopcroft, refine_naive
from bisimkit.formats import dump_coalgebra, load_coalgebra
from bisimkit.gen import FAMILIES, GenSpec, generate
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


# values nesting every layer: P and D over rigid parts, over each other and
# under sums and exponents
NESTED_FUNCTORS = (
    "{0,1} * D X",
    "P ({a,b} * D X)",
    "(D X) ^ {a,b}",
    "P X + D (X * X)",
    "P P X",
    "D D X",
    "P D X",
    "D ({a,b} * X + {stop})",
)


def _key_inputs():
    """Coalgebras of every gen family, the labelled Markov chain and random
    values of the nested functors, each with labellings to try beside the
    test's own.  Four small general gen coalgebras come with one labelling
    of three blocks each, drawn in turn from one generator."""
    inputs = {fam: (generate(GenSpec(fam, 24, seed=3)), []) for fam in FAMILIES}
    inputs["labelled_mc"] = (labelled_mc(24, 5), [])
    for functor in NESTED_FUNCTORS:
        expr = parse_functor(functor)
        rng = random.Random(functor)
        values = [random_value(expr, rng, 12) for _ in range(12)]
        inputs[functor] = (Coalgebra.make(expr, values), [])
    rng = random.Random(23)
    for fam in ("nfa", "lts", "mc", "mdp"):
        blocks = [rng.randrange(3) for _ in range(12)]
        inputs[f"{fam} 12 states"] = (generate(GenSpec(fam, 12, seed=99)), [blocks])
    return inputs


KEY_INPUTS = _key_inputs()


@pytest.mark.parametrize("name", KEY_INPUTS)
def test_compiled_keys_are_equal_exactly_when_signatures_are(name, seed=29):
    # under the all-zero labelling every distribution's entries merge into
    # one mass, which only the gcd reduction makes equal to a point mass
    c, extra = KEY_INPUTS[name]
    n = c.n_states
    rng = random.Random(seed)
    labellings = [[0] * n] + [[rng.randrange(k) for _ in range(n)] for k in (2, 3, 5)] + extra
    verdicts = set()
    for blocks in labellings:
        ev = SignatureEvaluator(c)
        keys = [ev.signature(x, blocks) for x in range(n)]
        swept = list(ev.sweep_keys(blocks))
        sigs = [signature_of(v, blocks) for v in c.values]
        assert len(swept) == n
        if ev._shape is None:  # one key form for both methods
            assert swept == [(blocks[x], keys[x]) for x in range(n)]
        for x in range(n):
            for y in range(n):
                same = sigs[x] == sigs[y]
                assert (keys[x] == keys[y]) == same, (x, y, blocks)
                assert (swept[x] == swept[y]) == (same and blocks[x] == blocks[y])
                verdicts.add(same)
        if ev.rigid:
            continue
        # keys of subsets back to back on one evaluator, so that a column
        # left over from the call before would show
        for size in (n, 1, n // 2 + 1, 2, n):
            states = sorted(rng.sample(range(n), size))
            bulk = list(ev.keys(states, blocks))
            assert bulk == [keys[x] for x in states], (states, blocks)
            for kx, x in zip(bulk, states):
                assert [kx == ky for ky in bulk] == [sigs[x] == sigs[y] for y in states]
    assert verdicts == {True, False}


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
    *[f for f in MIXED_ARITY_FUNCTORS if is_rigid(parse_functor(f))],
    "{0,1} * (X ^ {a,b})",
])
def test_shape_free_sweep_keys_equate_the_same_pairs_once_blocks_refine_shapes(functor, seed=17):
    expr = parse_functor(functor)
    rng = random.Random(seed)
    verdicts = set()
    for _ in range(6):
        c = Coalgebra.make(expr, [random_value(expr, rng, 10) for _ in range(10)])
        ev = SignatureEvaluator(c)
        shape = c.form.shape
        # k = 1 gives the shape classes, as sweep 1 leaves them
        for k in (1, 2, 3, 3):
            blocks = [s * k + rng.randrange(k) for s in shape]
            shaped = list(ev.sweep_keys(blocks))
            free = list(ev.sweep_keys(blocks, shaped=False))
            for x in range(c.n_states):
                for y in range(c.n_states):
                    same = shaped[x] == shaped[y]
                    assert (free[x] == free[y]) == same, (x, y, blocks)
                    verdicts.add(same)
        # before blocks fix the shapes, only the shape id tells them apart
        zero = [0] * c.n_states
        assert len(set(ev.sweep_keys(zero))) == len(set(shape))
        assert len(set(ev.sweep_keys(zero, shaped=False))) == 1
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


@pytest.mark.parametrize("functor", [*NESTED_FUNCTORS, "P X", "D X", "P ({a,b} * X)",
                                     "{0,1} * (P X) ^ {a,b}", "P ((X * X) + {z})"])
def test_every_form_decodes_to_the_values_it_was_compiled_from(functor, tmp_path, monkeypatch,
                                                             seed=7):
    expr = parse_functor(functor)
    rng = random.Random(seed)
    made = Coalgebra.make(expr, [random_value(expr, rng, 9) for _ in range(9)])
    form = made.form
    # a general form holds a code per state in place of shapes
    assert form.shape is None and form.keys == () and len(form.code) == 9
    flat = Coalgebra.from_form(expr, form)
    # the code is canonical already, so decoding sorts and merges nothing
    keyed = []
    monkeypatch.setattr(bisimkit.values, "structure_key", keyed.append)
    decoded = flat.values
    monkeypatch.undo()
    assert keyed == []
    assert decoded == made.values
    assert flat == made
    # read back from a file, the form is the one compiled from the values
    path = tmp_path / "c.json"
    path.write_text(dump_coalgebra(made), encoding="utf-8")
    loaded = load_coalgebra(str(path))
    assert loaded.form == form
    assert loaded == made


def test_general_code_holds_counts_and_integer_masses():
    # P ({a,b} * D X): a member count, then per member its label, the entry
    # count and each entry's mass over the least common denominator
    expr = parse_functor("P ({a,b} * D X)")
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    values = [
        SetVal((
            TupleVal((Label("b"), DistVal(((StateRef(1), half), (StateRef(0), half))))),
            TupleVal((Label("a"), DistVal(((StateRef(1), quarter), (StateRef(1), 3 * quarter))))),
        )),
        SetVal(()),
    ]
    form = Coalgebra.make(expr, values).form
    assert form == CompiledForm([(1, 0, 1), ()], code=[(2, "a", 1, 1, "b", 2, 1, 1), (0,)])


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
