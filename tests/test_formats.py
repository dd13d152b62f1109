"""Input format parsers and canonical output documents."""

import json
import random
from fractions import Fraction

import pytest
from test_fuzz import CASES as FUZZ_CASES
from test_fuzz import EXTENSIONS, mutate, seed_documents
from util import dfa_text, invoke_cli, labelled_mc, random_value, reference_load

import bisimkit.coalgebra
from bisimkit.coalgebra import Coalgebra, CompiledForm, SignatureEvaluator, build_pred_index
from bisimkit.engine import refine_hopcroft, refine_naive
from bisimkit.formats import (
    FormatError,
    detect_format,
    dump_coalgebra,
    load_coalgebra,
    partition_to_json,
    tree_from_json,
    tree_to_json,
)
from bisimkit.functors import parse_functor
from bisimkit.gen import GenSpec, generate
from bisimkit.oracle import bisim_bruteforce
from bisimkit.values import DistVal, FunVal, InjVal, Label, SetVal, StateRef, TupleVal
from bisimkit.wtree import audit_tree


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


# -- dfa-text --------------------------------------------------------------------


def test_dfa_text_two_selfloops(tmp_path):
    path = write(tmp_path, "m.dfa", "dfa 2 1\n1 0\n1 1\n")
    c = load_coalgebra(path, "dfa-text")
    assert c.n_states == 2
    # both states accepting with self-loops: everything collapses
    assert refine_naive(c).partition.blocks == ((0, 1),)
    assert bisim_bruteforce(c).blocks == ((0, 1),)


def test_dfa_text_bad_header(tmp_path):
    path = write(tmp_path, "m.dfa", "nfa 2 1\n1 0\n1 1\n")
    with pytest.raises(FormatError):
        load_coalgebra(path, "dfa-text")


def test_dfa_text_successor_out_of_range(tmp_path):
    path = write(tmp_path, "m.dfa", "dfa 2 1\n1 0\n1 9\n")
    with pytest.raises(FormatError) as e:
        load_coalgebra(path, "dfa-text")
    assert e.value.line == 3


def test_dfa_text_wrong_field_count(tmp_path):
    path = write(tmp_path, "m.dfa", "dfa 1 2\n1 0\n")
    with pytest.raises(FormatError):
        load_coalgebra(path, "dfa-text")


@pytest.mark.parametrize("body, message", [
    ("1 0 1\n0 1\n", "line 2: expected accept bit and 1 successors"),
    ("2 0\n0 1\n", "line 2: accept flag must be 0 or 1, got '2'"),
    ("1 0\n0 x\n", "line 3: successors must be integers"),
    ("1 -1\n0 1\n", "line 2: successor -1 out of range"),
    ("1 0\n0 2\n", "line 3: successor 2 out of range"),
])
def test_dfa_text_line_errors_name_line_and_fault(tmp_path, body, message):
    path = write(tmp_path, "m.dfa", "dfa 2 1\n" + body)
    with pytest.raises(FormatError) as e:
        load_coalgebra(path, "dfa-text")
    assert str(e.value) == message


@pytest.mark.parametrize("k", [1, 2, 3, 27, 30])
def test_dfa_text_loads_what_make_builds(tmp_path, k):
    # past 26 letters the names (s26, s27, ...) sort apart from letter order
    for seed in range(3):
        made = generate(GenSpec("dfa", 25, alphabet_size=k, seed=seed))
        path = write(tmp_path, f"m{seed}.dfa", dfa_text(made))
        flat = load_coalgebra(path)
        # the compiled form, and what the evaluator reads from it
        assert flat.form == made.form
        assert set(flat.form.keys) <= {("0",), ("1",)}
        ev_flat, ev_made = SignatureEvaluator(flat), SignatureEvaluator(made)
        assert ev_flat.refs == ev_made.refs
        assert build_pred_index(ev_flat) == build_pred_index(ev_made)
        # the values decoded from it, and equality of the coalgebras
        assert flat.values == made.values
        assert flat == made and hash(flat) == hash(made)


def _blank_lines(lines):
    # blank and whitespace-only lines before the header, between rows, at the end
    return "\n \n\t\n" + "\n  \n".join(lines) + "\n\n \t \n"


DFA_LAYOUTS = {
    "plain": "\n".join,
    "blank_lines": _blank_lines,
    "crlf": lambda lines: "\r\n".join(lines) + "\r\n",
    "tabs": lambda lines: "\n".join(line.replace(" ", "\t ") for line in lines) + "\n",
}


def _with_bits(made, bit):
    """``made`` with every state's accept bit set to ``bit``, if one is given."""
    if bit is None:
        return made
    values = [TupleVal((Label(bit), v.items[1])) for v in made.values]
    return Coalgebra.make(made.functor, values)


@pytest.mark.parametrize("bit", [None, "0", "1"])
@pytest.mark.parametrize("k", [2, 27])
@pytest.mark.parametrize("layout", DFA_LAYOUTS)
def test_dfa_text_layouts_load_what_make_builds(tmp_path, layout, k, bit):
    made = _with_bits(generate(GenSpec("dfa", 25, alphabet_size=k, seed=k)), bit)
    text = DFA_LAYOUTS[layout](dfa_text(made).splitlines())
    path = tmp_path / "m.dfa"
    path.write_bytes(text.encode())  # as written: no newline translation
    flat = load_coalgebra(str(path))
    assert flat.form == made.form
    if bit is not None:  # all-accepting or all-rejecting: one shape key
        assert flat.form.keys == ((bit,),)
    assert flat == made


@pytest.mark.parametrize("text, message", [
    # \x0c and \x1c separate fields inside a line but end no line
    ("dfa 2 1\n1 0\x0c0 1\n", "line 1: expected 2 state lines, found 1"),
    ("dfa 2 1\n1 0\x1c0 1\n", "line 1: expected 2 state lines, found 1"),
    ("\n \ndfa 2 1\n\n\t\n1 0\n  \n0 x\n", "line 8: successors must be integers"),
    ("\n\ndfa 2 1\n\n2 0\n\n0 1\n", "line 5: accept flag must be 0 or 1, got '2'"),
    ("dfa 2 1\r\n\r\n1 0 1\r\n0 1\r\n", "line 3: expected accept bit and 1 successors"),
    ("dfa 3 1\n0 0\n\n0 -1\n2 0\n", "line 4: successor -1 out of range"),
    ("\n\ndfa 3 1\n1 0\n", "line 3: expected 3 state lines, found 1"),
])
def test_dfa_text_errors_name_the_line_past_blank_lines(tmp_path, text, message):
    path = tmp_path / "m.dfa"
    path.write_bytes(text.encode())
    with pytest.raises(FormatError) as e:
        load_coalgebra(str(path))
    assert str(e.value) == message
    res = invoke_cli(["minimize", str(path)])
    assert res.exit_code == 2
    assert f"error: {message}" in res.output


def test_minimize_dfa_text_never_decodes_values(tmp_path, monkeypatch):
    decoded = []
    decode = bisimkit.coalgebra._decode

    def spy(*args):
        decoded.append(args)
        return decode(*args)

    monkeypatch.setattr(bisimkit.coalgebra, "_decode", spy)
    path = write(tmp_path, "m.dfa", dfa_text(generate(GenSpec("dfa", 40, seed=6))))
    res = invoke_cli(["minimize", path, "--audit", "--tree-out", "-"])
    assert res.exit_code == 0, res.output
    assert decoded == []
    # the oracle reads values, so compare decodes them: the spy sees it
    res = invoke_cli(["compare", path])
    assert res.exit_code == 0, res.output
    assert decoded


def test_coalgebra_needs_values_or_compiled_form():
    made = generate(GenSpec("dfa", 3, seed=1))
    with pytest.raises(ValueError):
        Coalgebra(made.functor, 3)
    with pytest.raises(ValueError):
        Coalgebra(made.functor, 4, made.values)
    # a form without shapes holds no labels, so it cannot stand in for values
    with pytest.raises(ValueError):
        Coalgebra(made.functor, 3, None, CompiledForm(made.form.refs))
    assert Coalgebra(made.functor, 3, None, made.form) == made


# -- decoding into the compiled form ------------------------------------------------

VALUE_CLASSES = (StateRef, Label, TupleVal, InjVal, FunVal, SetVal, DistVal)


def _aut_text(coalg):
    """A ``P ({...} * X)`` coalgebra written as Aldebaran text."""
    edges = [(x, m.items[0].name, m.items[1].index)
             for x, v in enumerate(coalg.values) for m in v.members]
    lines = [f"des (0, {len(edges)}, {coalg.n_states})"]
    lines += [f'({x}, "{a}", {y})' for x, a, y in edges]
    return "\n".join(lines) + "\n"


def _tsv_text(coalg):
    """A ``D X`` coalgebra written as mc-tsv rows."""
    rows = ["# src dst prob"]
    rows += [f"{x} {y.index} {p.numerator}/{p.denominator}"
             for x, v in enumerate(coalg.values) for y, p in v.entries]
    return "\n".join(rows) + "\n"


def _general_inputs(tmp_path):
    """P/D inputs of every loader that decodes into the compiled form."""
    lmdp = parse_functor("P ({a,b} * D X)")
    rng = random.Random(4)
    texts = {
        "nfa.json": dump_coalgebra(generate(GenSpec("nfa", 30, seed=2))),
        "lmc.json": dump_coalgebra(labelled_mc(30, 2)),
        "lmdp.json": dump_coalgebra(
            Coalgebra.make(lmdp, [random_value(lmdp, rng, 30) for _ in range(30)])),
        "lts.aut": _aut_text(generate(GenSpec("lts", 30, seed=2))),
        "mc.tsv": _tsv_text(generate(GenSpec("mc", 30, seed=2))),
    }
    return {name: write(tmp_path, name, text) for name, text in texts.items()}


def test_minimize_general_inputs_build_no_values_and_hash_no_fraction(tmp_path, monkeypatch):
    paths = _general_inputs(tmp_path)
    built, hashed = [], []
    for cls in VALUE_CLASSES:
        def init(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)
    fraction_hash = Fraction.__hash__

    def spy_hash(self):
        hashed.append(self)
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", spy_hash)
    for name, path in paths.items():
        for args in (["--audit", "--tree-out", "-"], ["--algo", "naive"]):
            res = invoke_cli(["minimize", path, *args])
            assert res.exit_code == 0, (name, res.output)
            assert built == [] and hashed == [], (name, args)
    # the oracle reads values, so compare decodes them: the spy sees it
    for name, path in paths.items():
        res = invoke_cli(["compare", path])
        assert res.exit_code == 0, (name, res.output)
        assert built, name
        built.clear()


def _outcome(load):
    """A loader's coalgebra, or its error message."""
    try:
        return load()
    except FormatError as e:
        return str(e)


@pytest.mark.parametrize("fmt", ["coalg-json", "aut", "mc-tsv"])
def test_loaders_agree_with_the_value_reference_on_fuzzed_inputs(tmp_path, fmt):
    # the fuzzer's own mutations, in its order: each is rejected by both
    # with one message, or accepted by both with one coalgebra
    rng = random.Random(list(EXTENSIONS).index(fmt))
    docs = seed_documents(fmt, rng)
    path = tmp_path / ("case" + EXTENSIONS[fmt])
    accepted = 0
    for _ in range(FUZZ_CASES):
        path.write_text(mutate(rng.choice(docs), rng), encoding="utf-8")
        text = path.read_text(encoding="utf-8")
        got = _outcome(lambda: load_coalgebra(str(path), fmt))
        want = _outcome(lambda: reference_load(fmt, text))
        if isinstance(want, str):
            assert got == want, text[:300]
            continue
        accepted += 1
        assert isinstance(got, Coalgebra), (got, text[:300])
        assert got == want
        assert got.form == want.form
        assert build_pred_index(SignatureEvaluator(got)) == build_pred_index(SignatureEvaluator(want))
    assert 0 < accepted < FUZZ_CASES


def _doc(functor, *values):
    return json.dumps({"functor": functor, "states": len(values), "c": list(values)})


def _x(i):
    return {"x": i}


EDGE_DOCUMENTS = [
    # zero entries are dropped before validation, whatever their value
    _doc("D X", {"dist": [[_x(0), "0"], [_x(1), "1"]]}, {"dist": [[_x(0), 1]]}),
    _doc("D X", {"dist": [[_x(99), "0/5"], [_x(0), "1"]]}),
    _doc("D X", {"dist": [[["a"], 0], [_x(0), "1/1"]]}),
    # other literals, equal entries merged, unreduced and spaced fractions
    _doc("D X", {"dist": [[_x(0), "0.25"], [_x(1), " 3/4"]]}, {"dist": [[_x(1), "1"]]}),
    _doc("D X", {"dist": [[_x(0), True]]}),
    _doc("D X", {"dist": [[_x(0), "1/4"], [_x(0), "2/8"], [_x(1), "2/4"]]},
         {"dist": [[_x(1), "2/4"], [_x(1), "2/4"]]}),
    _doc("D X", {"dist": [[_x(0), "3/2"]]}, {"dist": [[_x(0), "1"]]}),
    _doc("D X", {"dist": [[_x(0), "3/2"], [_x(1), "-1/2"]]}),
    _doc("D X", {"dist": [[_x(0), "1/3"], [_x(1), "1/3"]]}, {"dist": [[_x(0), "1"]]}),
    _doc("D X", {"dist": [[_x(0), "1/" + "1" * 4301]]}),
    _doc("D X", {"dist": [[_x(0), "1e-3"]]}),
    _doc("D X", {"dist": [[_x(0), "1/0"]]}),
    _doc("D X", {"dist": []}),
    # members deduplicated and sorted, extra keys ignored, precedence kept
    _doc("P X", {"set": [_x(2), _x(0), _x(2)]}, {"set": [], "dist": []}, {"set": [{"x": 1, "set": []}]}),
    _doc("D X", {"set": [], "dist": [[_x(0), "1"]]}),
    _doc("P X", {"set": [{"x": True}]}),
    _doc("P X", {"set": [_x(3)]}),
    _doc("P ({a,b} * D X)",
         {"set": [["a", {"dist": [[_x(0), "1/2"], [_x(0), "1/2"]]}], ["a", {"dist": [[_x(0), "1"]]}]]},
         {"set": [["b", {"dist": [[_x(1), "2/3"], [_x(0), "1/3"]]}],
                  ["b", {"dist": [[_x(1), "1/3"], [_x(0), "2/3"]]}], ["a", {"dist": [[_x(2), 1]]}]]},
         {"set": []}),
    _doc("P ({a,b} * D X)", {"set": [["c", {"dist": [[_x(0), 1]]}]]}),
    _doc("P D X", {"set": [{"dist": [[_x(0), "3/4"], [_x(1), "1/4"]]},
                           {"dist": [[_x(0), "1/4"], [_x(1), "3/4"]]}]}, {"set": []}),
    # sums, exponents in any label order, and their faults
    _doc("P X + D (X * X)", {"inj": 1, "val": {"dist": [[[_x(0), _x(1)], "1/2"], [[_x(0), _x(1)], "1/2"]]}},
         {"inj": 0, "val": {"set": [_x(1)]}, "extra": 1}),
    _doc("P X + D (X * X)", {"inj": 2, "val": {"set": []}}),
    _doc("P X + D (X * X)", {"inj": True, "val": {"set": []}}),
    _doc("P X + D (X * X)", {"inj": 0}),
    _doc("(P X) ^ {b,a}", {"fun": {"b": {"set": [_x(0)]}, "a": {"set": []}}}),
    _doc("(P X) ^ {b,a}", {"fun": {"b": {"set": [_x(0)]}, "c": {"set": []}}}),
    _doc("(P X) ^ {b,a}", {"fun": {"b": {"set": [_x(0)]}}}),
    _doc("(P X) ^ {b,a}", {"x": 0, "fun": {"b": {"set": []}, "a": {"set": []}}}),
    _doc("{0,1} * P X", ["1", {"set": []}], ["2", {"set": []}]),
    _doc("{0,1} * P X", ["1", {"set": []}, "extra"]),
    # the document around the values
    json.dumps({"functor": "P X", "states": True, "c": [{"set": []}]}),
    json.dumps({"functor": "P X", "states": 2, "c": [{"set": []}]}),
    json.dumps({"functor": "P X +", "states": 1, "c": [{"set": []}]}),
    json.dumps({"functor": "P X", "states": 1, "c": [{"bogus": []}, {"set": []}]}),
    json.dumps({"functor": "P X", "c": [{"set": []}]}),
    json.dumps([1]),
]


@pytest.mark.parametrize("doc", EDGE_DOCUMENTS)
def test_coalg_json_edge_documents_load_as_the_reference_does(tmp_path, doc):
    got = _outcome(lambda: load_coalgebra(write(tmp_path, "c.json", doc)))
    want = _outcome(lambda: reference_load("coalg-json", doc))
    assert got == want
    if isinstance(want, Coalgebra):
        assert got.form == want.form


DEEP = 5000


@pytest.mark.parametrize("doc", [
    # a functor past the parser's recursion, with a value that fits it
    '{"functor": "' + "P " * DEEP + 'X", "states": 1, "c": [{"set": []}]}',
    '{"functor": "' + "(" * DEEP + "X" + ")" * DEEP + '", "states": 1, "c": [{"x": 0}]}',
    # a value past the value codec's recursion, under a shallow functor
    '{"functor": "P X", "states": 1, "c": [' + "[" * 900 + "]" * 900 + "]}",
    '{"functor": "P X", "states": 1, "c": [' + '{"set": [' * 900 + "]}" * 900 + "]}",
    # a document past the JSON decoder's recursion
    '{"functor": "P X", "states": 1, "c": [' + "[" * DEEP + "]" * DEEP + "]}",
])
def test_deep_nesting_exits_2(tmp_path, doc):
    path = write(tmp_path, "deep.json", doc)
    res = invoke_cli(["minimize", path])
    assert res.exit_code == 2
    assert res.output == "error: input nested too deeply\n"


def test_nesting_the_functor_allows_is_decoded(tmp_path):
    depth = 200
    doc = ('{"functor": "' + "P " * depth + 'X", "states": 2, "c": ['
           + '{"set": [' * depth + '{"x": 1}' + "]}" * depth + ", "
           + '{"set": [' * depth + '{"x": 0}' + "]}" * depth + "]}")
    path = write(tmp_path, "deep.json", doc)
    c = load_coalgebra(path)
    assert c == reference_load("coalg-json", doc)
    assert c.form.code[0] == (1,) * depth
    assert refine_naive(c).partition.blocks == ((0, 1),)


# -- aut -------------------------------------------------------------------------


def test_aut_basic(tmp_path):
    text = 'des (0, 3, 3)\n(0, "a", 1)\n(1, b, 2)\n(2, "a", 0)\n'
    c = load_coalgebra(write(tmp_path, "m.aut", text), "aut")
    assert c.n_states == 3
    from bisimkit.functors import render_functor

    assert render_functor(c.functor) == "P ({a,b} * X)"


def test_aut_no_transitions_all_bisimilar(tmp_path):
    c = load_coalgebra(write(tmp_path, "m.aut", "des (0, 0, 4)\n"), "aut")
    assert c.n_states == 4
    assert refine_naive(c).partition.blocks == ((0, 1, 2, 3),)


def test_aut_bad_transition_line(tmp_path):
    text = 'des (0, 1, 2)\n(0 -> 1)\n'
    with pytest.raises(FormatError) as e:
        load_coalgebra(write(tmp_path, "m.aut", text), "aut")
    assert e.value.line == 2


def test_aut_initial_state_out_of_range(tmp_path):
    text = 'des (7, 1, 2)\n(0, "a", 1)\n'
    with pytest.raises(FormatError) as e:
        load_coalgebra(write(tmp_path, "m.aut", text), "aut")
    assert e.value.line == 1 and "initial state" in str(e.value) and "7" not in str(e.value)


def test_aut_transition_count_mismatch(tmp_path):
    text = 'des (0, 2, 2)\n(0, "a", 1)\n'
    with pytest.raises(FormatError):
        load_coalgebra(write(tmp_path, "m.aut", text), "aut")


# -- mc-tsv ----------------------------------------------------------------------


def test_mc_tsv_basic(tmp_path):
    text = "0 1 1/2\n0 0 1/2\n1 1 1/1\n"
    c = load_coalgebra(write(tmp_path, "m.tsv", text), "mc-tsv")
    assert c.n_states == 2
    assert refine_naive(c).partition.blocks == ((0, 1),)


def test_mc_tsv_bad_sum(tmp_path):
    text = "0 1 1/2\n1 0 1/1\n"
    with pytest.raises(FormatError) as e:
        load_coalgebra(write(tmp_path, "m.tsv", text), "mc-tsv")
    assert "sum" in str(e.value)


def test_mc_tsv_missing_state_rows(tmp_path):
    # state 1 appears as a target but has no outgoing mass
    text = "0 1 1/1\n"
    with pytest.raises(FormatError):
        load_coalgebra(write(tmp_path, "m.tsv", text), "mc-tsv")


# -- coalg-json ------------------------------------------------------------------


def test_coalg_json_round_trip_is_identity(tmp_path):
    for fam in ("dfa", "nfa", "lts", "mc", "mdp"):
        c = generate(GenSpec(fam, 7, seed=11))
        doc = dump_coalgebra(c)
        path = write(tmp_path, f"{fam}.json", doc)
        c2 = load_coalgebra(path, "coalg-json")
        assert dump_coalgebra(c2) == doc


def test_coalg_json_bad_document(tmp_path):
    with pytest.raises(FormatError):
        load_coalgebra(write(tmp_path, "x.json", "{"), "coalg-json")
    with pytest.raises(FormatError):
        load_coalgebra(write(tmp_path, "y.json", '{"functor": "X"}'), "coalg-json")


def test_detect_format():
    assert detect_format("a.json") == "coalg-json"
    assert detect_format("a.dfa") == "dfa-text"
    assert detect_format("a.aut") == "aut"
    assert detect_format("a.tsv") == "mc-tsv"
    with pytest.raises(FormatError):
        detect_format("a.xyz")


# -- outputs ---------------------------------------------------------------------


def test_partition_json_deterministic():
    c = generate(GenSpec("dfa", 30, seed=3))
    a = partition_to_json(refine_hopcroft(c, "card").partition)
    b = partition_to_json(refine_hopcroft(c, "card").partition)
    assert a == b
    obj = json.loads(a)
    firsts = [blk[0] for blk in obj["blocks"]]
    assert firsts == sorted(firsts)  # blocks ordered by smallest member
    for blk in obj["blocks"]:
        assert blk == sorted(blk)


def test_tree_json_round_trip_audits():
    c = generate(GenSpec("lts", 15, seed=21))
    r = refine_hopcroft(c, "pred")
    doc = tree_to_json(r.tree)
    tree, weights, heavy = tree_from_json(doc)
    assert weights == list(r.tree.weight)
    assert heavy == r.tree.heavy
    assert tree_from_json(tree_to_json(r.tree))[2] == r.tree.heavy
    assert audit_tree(tree, weights, heavy).all_ok()


def test_tree_from_json_rejects_bad_documents():
    with pytest.raises(FormatError):
        tree_from_json("{]")
    with pytest.raises(FormatError):
        tree_from_json('{"parent": [0, 0]}')
    with pytest.raises(FormatError):
        tree_from_json('{"parent": [0, 1], "w": [1, 1]}')  # two roots
