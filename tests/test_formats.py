"""Input format parsers and canonical output documents."""

import json

import pytest
from click.testing import CliRunner
from util import dfa_text

import bisimkit.coalgebra
from bisimkit.cli import main
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
from bisimkit.gen import GenSpec, generate
from bisimkit.oracle import bisim_bruteforce
from bisimkit.values import Label, TupleVal
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
    res = CliRunner().invoke(main, ["minimize", str(path)])
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
    res = CliRunner().invoke(main, ["minimize", path, "--audit", "--tree-out", "-"])
    assert res.exit_code == 0, res.output
    assert decoded == []
    # the oracle reads values, so compare decodes them: the spy sees it
    res = CliRunner().invoke(main, ["compare", path])
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
