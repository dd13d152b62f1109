"""Command-line behavior: subcommands, exit codes, output shapes."""

import json
import os
import resource
import subprocess
import sys
import time
from decimal import Decimal

import pytest
from util import invoke_cli, old_form_tree_document

import bisimkit
import bisimkit.cli as cli
from bisimkit.engine import refine_naive
from bisimkit.formats import dump_coalgebra
from bisimkit.gen import GenSpec, generate
from bisimkit.wtree import MalformedTreeError, WeightedTree, audit_tree


def coalg_file(tmp_path, name="in.json", fam="dfa", n=12, seed=5):
    p = tmp_path / name
    p.write_text(dump_coalgebra(generate(GenSpec(fam, n, seed=seed))), encoding="utf-8")
    return str(p)


def test_minimize_stdout(tmp_path):
    path = coalg_file(tmp_path)
    res = invoke_cli(["minimize", path])
    assert res.exit_code == 0, res.output
    obj = json.loads(res.output)
    assert "blocks" in obj


def test_minimize_naive_weight_contradiction(tmp_path):
    path = coalg_file(tmp_path)
    res = invoke_cli(["minimize", path, "--algo", "naive", "--weight", "card"])
    assert res.exit_code == 2


@pytest.mark.parametrize("args", [
    ["--algo", "naive", "--weight", "card"],
    ["--algo", "naive", "--audit"],
    ["--stats-out", "stats.json"],
    ["--tree-out", "tree.json"],
])
def test_minimize_option_conflict_prints_one_error_line(tmp_path, args):
    # like every other exit-2 path: one error: line, no usage text, no output
    res = invoke_cli(["minimize", coalg_file(tmp_path), *args])
    assert res.exit_code == 2
    assert res.stderr.startswith("error: ") and "usage:" not in res.stderr.lower()
    assert len(res.stderr.splitlines()) == 1
    assert res.stdout == ""


def test_minimize_naive_ok(tmp_path):
    path = coalg_file(tmp_path)
    res = invoke_cli(["minimize", path, "--algo", "naive"])
    assert res.exit_code == 0


def test_minimize_is_byte_deterministic(tmp_path):
    path = coalg_file(tmp_path, n=40)
    out1 = tmp_path / "p1.json"
    out2 = tmp_path / "p2.json"
    for out in (out1, out2):
        res = invoke_cli(["minimize", path, "--weight", "pred", "--out", str(out)])
        assert res.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_minimize_audit_writes_tree(tmp_path):
    path = coalg_file(tmp_path, fam="lts", n=20)
    out = tmp_path / "part.json"
    tree = tmp_path / "tree.json"
    res = invoke_cli(["minimize", path, "--out", str(out), "--audit", "--tree-out", str(tree)])
    assert res.exit_code == 0, res.output
    doc = json.loads(tree.read_text())
    assert set(doc) == {"parent", "w", "members", "heavy"}

    res2 = invoke_cli(["audit-tree", str(tree)])
    assert res2.exit_code == 0, res2.output


def test_minimize_stats(tmp_path):
    path = coalg_file(tmp_path)
    stats_path = tmp_path / "stats.json"
    res = invoke_cli(["minimize", path, "--stats", "--stats-out", str(stats_path), "--out", "-"])
    assert res.exit_code == 0
    stats = json.loads(stats_path.read_text())
    assert {"iterations", "splits", "signatures_computed"} <= set(stats)
    phases = stats["phases"]
    assert set(phases) == {"coalgebra.evaluator_s", "coalgebra.pred_index_s",
                           "engine.main_loop_s", "engine.canonicalize_s"}
    assert all(v >= 0 for v in phases.values())
    assert sum(phases.values()) <= stats["wall_ms"] / 1000.0 + 1e-5
    # --audit adds the tree audit, timed before any output is written
    res = invoke_cli(["minimize", path, "--stats", "--audit", "--tree-out", "-"])
    assert res.exit_code == 0, res.output
    lines = res.stderr.splitlines()
    assert lines[-1].startswith("audit ok: ")
    audited = json.loads(lines[-2])
    assert set(audited["phases"]) == set(phases) | {"wtree.audit_s"}
    assert audited["phases"]["wtree.audit_s"] >= 0
    counters = cli.STATS_COLUMNS[:-1]
    assert {k: audited[k] for k in counters} == {k: stats[k] for k in counters}


def test_minimize_naive_stats_phases(tmp_path):
    res = invoke_cli(["minimize", coalg_file(tmp_path), "--algo", "naive", "--stats"])
    assert res.exit_code == 0
    stats = json.loads(res.stderr.strip().splitlines()[-1])
    assert set(stats["phases"]) == {"coalgebra.evaluator_s", "engine.main_loop_s",
                                    "engine.canonicalize_s"}


@pytest.mark.parametrize("option, flag", [("--stats-out", "--stats"), ("--tree-out", "--audit")])
def test_minimize_destination_without_its_output_exit_2(tmp_path, option, flag):
    # a destination for an output that is not asked for would be silently ignored
    dest, out = tmp_path / "dest.json", tmp_path / "part.json"
    res = invoke_cli(["minimize", coalg_file(tmp_path), "--out", str(out),
                      option, str(dest)])
    assert res.exit_code == 2
    assert f"{option} only applies with {flag}" in res.output
    assert not dest.exists() and not out.exists()
    res = invoke_cli(["minimize", coalg_file(tmp_path), "--out", str(out),
                      option, str(dest), flag])
    assert res.exit_code == 0, res.output
    assert json.loads(dest.read_text())


def test_minimize_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("0 1 1/2\n1 0 1/1\n", encoding="utf-8")
    res = invoke_cli(["minimize", str(bad)])
    assert res.exit_code == 2


def test_minimize_audit_matches_audit_tree_on_written_file(tmp_path):
    for fam, n, weight in (("dfa", 40, "card"), ("lts", 30, "pred"), ("chain", 25, "reach")):
        path = coalg_file(tmp_path, name=f"{fam}.json", fam=fam, n=n, seed=3)
        tree = tmp_path / f"{fam}.tree.json"
        res = invoke_cli(["minimize", path, "--weight", weight, "--out", str(tmp_path / "p.json"),
                          "--audit", "--tree-out", str(tree)])
        res2 = invoke_cli(["audit-tree", str(tree)])
        assert res.exit_code == res2.exit_code == 0, (res.output, res2.output)
        # "audit ok: light sum S <= bound B (margin M)" against
        # "weight bound: S <= B (exact check ok) (margin M)"
        in_memory = res.stderr.split("light sum ")[1].split()
        from_file = res2.output.split("weight bound: ")[1].split()
        assert in_memory[0] == from_file[0]
        assert in_memory[3] == from_file[2]
        assert in_memory[-2:] == from_file[-2:]
        # bound and margin are integers, the margin exactly bound minus light sum
        light, bound, margin = int(in_memory[0]), int(in_memory[3]), int(in_memory[-1][:-1])
        assert margin == bound - light >= 0


def test_audit_tree_reads_old_and_new_documents_alike(tmp_path):
    # the earlier document listed every node's states; audit-tree reads
    # neither those nor the leaf members, so both forms audit the same
    path = coalg_file(tmp_path, fam="lts", n=30, seed=3)
    new = tmp_path / "new.tree.json"
    res = invoke_cli(["minimize", path, "--weight", "pred", "--out", str(tmp_path / "p.json"),
                      "--audit", "--tree-out", str(new)])
    assert res.exit_code == 0, res.output
    old = tmp_path / "old.tree.json"
    old.write_text(old_form_tree_document(new.read_text()), encoding="utf-8")
    res_old, res_new = (invoke_cli(["audit-tree", str(p)]) for p in (old, new))
    assert res_old.exit_code == res_new.exit_code == 0, (res_old.output, res_new.output)
    assert res_old.output == res_new.output


def run_cli(*args, limit_as=None):
    """The CLI in a child process, so a crash shows as it would to a user;
    ``limit_as`` caps the child's address space in bytes."""
    src = os.path.dirname(os.path.dirname(bisimkit.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit_as, limit_as))

    return subprocess.run(
        [sys.executable, "-m", "bisimkit.cli", *args],
        capture_output=True, text=True, env=env,
        preexec_fn=cap if limit_as else None,
    )


# argv the parser rejects before any command runs, and the start of its error
PARSE_ERRORS = [
    (["minimize", "{in}", "--no-such-option"], "unrecognized arguments: --no-such-option"),
    (["minimize", "{in}", "--weight", "heavy"], "argument --weight: invalid choice: 'heavy'"),
    (["compare", "{in}", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
    (["minimize", "--audit"], "the following arguments are required: INPUT"),
    (["minimize", "{in}", "--aud"], "unrecognized arguments: --aud"),  # no abbreviations
    (["gen", "--family", "dfa", "--states", "x"], "argument --states: invalid int value: 'x'"),
    (["compare", "--no-such-option", "{in}"], "unrecognized arguments: --no-such-option"),
    (["audit-tree", "{in}", "--x"], "unrecognized arguments: --x"),
    (["no-such-command"], "argument COMMAND: invalid choice: 'no-such-command'"),
    (["--bogus", "minimize", "{in}", "--x"], "unrecognized arguments: --bogus --x"),
]


@pytest.mark.parametrize("in_process", [True, False], ids=["in-process", "subprocess"])
@pytest.mark.parametrize("argv, message", PARSE_ERRORS)
def test_parse_error_exit_2_with_usage_and_error_line(tmp_path, in_process, argv, message):
    argv = [a.format(**{"in": coalg_file(tmp_path)}) for a in argv]
    if in_process:
        res = invoke_cli(argv)
        code, stdout, stderr = res.exit_code, res.stdout, res.stderr
    else:
        res = run_cli(*argv)
        code, stdout, stderr = res.returncode, res.stdout, res.stderr
    assert code == 2, stderr
    assert stdout == ""
    lines = stderr.splitlines()
    # argv after a command name is rejected by the command's own parser
    commands = ("minimize", "compare", "audit-tree", "gen")
    prog = f"bisimkit {argv[0]}" if argv[0] in commands else "bisimkit"
    assert lines[0].startswith(f"usage: {prog} ")
    assert lines[-1].startswith(f"{prog}: error: {message}")
    assert [line for line in lines if "error:" in line] == lines[-1:]
    assert "Traceback" not in stderr


@pytest.mark.parametrize("value", ['{"inj": 0}', '{"fun": [1, 2]}'])
def test_minimize_malformed_value_exit_2(tmp_path, value):
    p = tmp_path / "bad.json"
    p.write_text(f'{{"functor": "X + X", "states": 1, "c": [{value}]}}', encoding="utf-8")
    res = run_cli("minimize", str(p))
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error: ")
    assert "Traceback" not in res.stdout + res.stderr


DEEP = 3000  # well past the interpreter's default recursion limit


def test_minimize_deep_functor_exit_2(tmp_path):
    p = tmp_path / "deep.json"
    functor = "P " * DEEP + "X"
    p.write_text(f'{{"functor": "{functor}", "states": 1, "c": [{{"set": []}}]}}', encoding="utf-8")
    res = run_cli("minimize", str(p))
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error: ")
    assert "Traceback" not in res.stdout + res.stderr


def test_minimize_deep_value_exit_2(tmp_path):
    p = tmp_path / "deep.json"
    value = "[" * DEEP + "]" * DEEP
    p.write_text(f'{{"functor": "X", "states": 1, "c": [{value}]}}', encoding="utf-8")
    res = run_cli("minimize", str(p))
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error: ")
    assert "Traceback" not in res.stdout + res.stderr


def test_audit_tree_deep_document_exit_2(tmp_path):
    p = tmp_path / "tree.json"
    p.write_text("[" * DEEP + "]" * DEEP, encoding="utf-8")
    res = run_cli("audit-tree", str(p))
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error: ")
    assert "Traceback" not in res.stdout + res.stderr


# audit-tree's exit code per malformed tree document: 2 for a document that
# is not a weighted tree with a per-node heavy choice of node ids, 1 for a
# heavy choice that fails its check
BAD_TREE_DOCUMENTS = [
    ('{"parent":[0,0,0],"w":[2,1,"x"]}', 2),  # weight not a number
    ('{"parent":[0,0,0],"w":[2,1,-1]}', 2),  # weight negative
    ('{"parent":[0,0,0],"w":[2,true,true]}', 2),  # booleans are not numbers
    ('{"parent":[0,0,0],"w":[2,1,1],"heavy":[7,null,null]}', 2),  # no node 7
    ('{"parent":[0,0,0],"w":[2,1,1],"heavy":["a",null,null]}', 2),
    ('{"parent":[0,0,0],"w":[2,1,1],"heavy":[null,null,null]}', 1),  # root has none
    ('{"parent":[0,0,"z"],"w":[2,1,1]}', 2),
    ('{"parent":[0,0,1.5],"w":[2,1,1]}', 2),
    ('{"parent":[0,0,0],"w":[3,2,1],"heavy":[2,null,null]}', 1),  # 2 is the lighter
    ('{"parent":[0,0,0],"w":[2,1,1],"heavy":[1,2,null]}', 1),  # leaf 1 names its sibling
    ('{"parent":[0,0,0],"w":[2,1,1],"heavy":[1,0,null]}', 1),  # leaf 1 names its parent
    ('{"parent":[0,0],"w":[%d,1]}' % 10**400, 2),  # weight above the cap, past a float
    ('{"parent":[0,0],"w":[%d,1]}' % (2**53 + 1), 2),  # weight just above the cap
    ('{"parent":[0,0],"w":[1%s,1]}' % ("0" * 5000), 2),  # past the str-to-int digit limit
    ('{"parent":[0],"w":[1],"heavy":[null,null]}', 2),  # a heavy entry past the last node
]


@pytest.mark.parametrize("doc, code", BAD_TREE_DOCUMENTS)
def test_audit_tree_bad_document_exits_with_message(tmp_path, doc, code):
    p = tmp_path / "tree.json"
    p.write_text(doc, encoding="utf-8")
    res = run_cli("audit-tree", str(p))
    assert res.returncode == code, res.stderr
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    assert "Traceback" not in res.stdout + res.stderr


@pytest.mark.parametrize("doc, code", BAD_TREE_DOCUMENTS)
def test_audit_tree_library_agrees_with_the_cli(doc, code):
    # the library raises MalformedTreeError where audit-tree exits 2 and a
    # plain ValueError where it exits 1; integers are read past Python's
    # str-to-int digit limit, so that every document gives its arrays
    obj = json.loads(doc, parse_int=lambda s: int(Decimal(s)))
    with pytest.raises(ValueError) as e:
        audit_tree(WeightedTree(obj["parent"]), obj["w"], obj.get("heavy"))
    assert type(e.value) is {2: MalformedTreeError, 1: ValueError}[code]


@pytest.mark.parametrize("name, text", [
    ("long.json", '{"functor": "X", "states": 1, "c": [1%s]}' % ("0" * 5000)),
    ("long.aut", 'des (0, 1, 1)\n(0, "a", 1%s)\n' % ("0" * 5000)),
    ("long-header.aut", "des (0, 1%s, 1)\n" % ("0" * 5000)),
    ("long-initial.aut", 'des (1%s, 1, 2)\n(0, "a", 1)\n' % ("0" * 5000)),
])
def test_minimize_number_past_digit_limit_exit_2(tmp_path, name, text):
    # Python refuses to convert an integer literal of more than 4300 digits
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    res = run_cli("minimize", str(p))
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error: ") and "too many digits" in res.stderr
    assert "Traceback" not in res.stdout + res.stderr


@pytest.mark.parametrize("name, text", [
    ("tiny.tsv", "0 0 1e-5000\n"),
    ("tinier.tsv", "0 0 1e-10000000\n"),
    ("tiny.json", '{"functor": "D X", "states": 1, "c": [{"dist": [[{"x": 0}, "1e-5000"]]}]}'),
    # the two masses sum to a fraction with more digits than Python will print
    ("long-sum.tsv", "0 0 1/%d\n0 0 1/%d\n" % (10**3000 + 1, 10**3000 + 3)),
    ("long-sum.json", '{"functor": "D X", "states": 1, "c": [{"dist": [[{"x": 0}, "1/%d"], '
                      '[{"x": 0}, "1/%d"]]}]}' % (10**3000 + 1, 10**3000 + 3)),
])
def test_minimize_probability_literal_exit_2(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    started = time.perf_counter()
    res = run_cli("minimize", str(p))
    # expanding 1e-10000000 alone takes seconds
    assert time.perf_counter() - started < 5
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    assert "Traceback" not in res.stdout + res.stderr


def merged_long_probability_rows():
    # every literal prints, and each state's masses sum to 1, but state 0's
    # merged masses have 6001-digit denominators, which Python will not print
    a, b = 10**3000 + 1, 10**3000 + 3  # coprime: odd, and they differ by 2
    return [(0, 0, f"1/{2 * a}"), (0, 0, f"{b - 1}/{2 * b}"), (0, 1, f"{a - 1}/{2 * a}"),
            (0, 1, f"1/{2 * b}"), (1, 1, "1")]


@pytest.mark.parametrize("ext", [".tsv", ".json"])
def test_minimize_merged_probability_past_the_digit_limit_exit_2(tmp_path, ext):
    rows = merged_long_probability_rows()
    if ext == ".tsv":
        text = "".join(f"{x} {y} {p}\n" for x, y, p in rows)
    else:
        dists = [[[{"x": y}, p] for x, y, p in rows if x == s] for s in (0, 1)]
        text = json.dumps({"functor": "D X", "states": 2, "c": [{"dist": d} for d in dists]})
    p = tmp_path / ("merged" + ext)
    p.write_text(text, encoding="utf-8")
    res = run_cli("minimize", str(p))
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    assert "more than 4300 digits" in res.stderr


@pytest.mark.parametrize("args", [
    ["minimize", "{in}", "--out", "{missing}/p.json"],
    ["minimize", "{in}", "--stats", "--stats-out", "{missing}/s.json"],
    ["minimize", "{in}", "--audit", "--tree-out", "{missing}/t.json"],
    ["gen", "--family", "mc", "--states", "3", "--out", "{missing}/g.json"],
])
def test_unwritable_output_or_bad_size_exit_2(tmp_path, args):
    fields = {"in": coalg_file(tmp_path), "missing": tmp_path / "missing"}
    res = run_cli(*(a.format(**fields) for a in args))
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error: ")
    # every destination is opened before any is written, so the partition
    # does not reach stdout ahead of the error
    assert res.stdout == ""
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("name, text", [
    ("big.dfa", "dfa 1 300000000\n1 0\n"),  # the letter count sizes the alphabet
    ("big.tsv", "0 300000000 1\n"),  # the largest id sizes the state table
    ("big.aut", 'des (0, 1, 300000000)\n(0, "a", 1)\n'),  # the header sizes per-state lists
])
def test_loader_sizes_checked_before_allocating(tmp_path, name, text):
    # under a 1 GB address-space limit either allocation fails outright
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    res = run_cli("minimize", str(p), limit_as=1 << 30)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error: ")
    assert "Traceback" not in res.stdout + res.stderr


def test_compare_agrees(tmp_path):
    for fam in ("dfa", "mc", "lts"):
        path = coalg_file(tmp_path, name=f"{fam}.json", fam=fam, n=15, seed=9)
        res = invoke_cli(["compare", path])
        assert res.exit_code == 0, res.output
        assert "MISMATCH" not in res.output


@pytest.mark.parametrize("n, oracle", [(1000, True), (1001, False)])
def test_compare_runs_oracle_up_to_1000_states(tmp_path, monkeypatch, n, oracle):
    calls = []

    def bruteforce(coalg):  # a stand-in: the real oracle is slow at this size
        calls.append(coalg.n_states)
        return refine_naive(coalg).partition

    monkeypatch.setattr(cli, "bisim_bruteforce", bruteforce)
    res = invoke_cli(["compare", coalg_file(tmp_path, n=n)])
    assert res.exit_code == 0, res.output
    assert calls == ([n] if oracle else [])
    assert ("bruteforce: " in res.output) == oracle


def test_audit_tree_tight_example(tmp_path):
    doc = {
        "parent": [0, 0, 0, 0, 1, 1, 2, 2, 2, 3, 9, 9],
        "w": [36, 15, 14, 7, 5, 10, 9, 2, 3, 7, 2, 5],
    }
    p = tmp_path / "tree.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    res = invoke_cli(["audit-tree", str(p)])
    assert res.exit_code == 0, res.output
    assert "light-children sum 33 = weighted light-path sum 33" in res.output


def test_audit_tree_invalid_weight_exit_1(tmp_path):
    p = tmp_path / "tree.json"
    p.write_text(json.dumps({"parent": [0, 0, 0], "w": [3, 2, 2]}), encoding="utf-8")
    res = invoke_cli(["audit-tree", str(p)])
    assert res.exit_code == 1


def test_audit_tree_passes_a_valid_tree_whose_float_bound_cancels(tmp_path):
    # the paper's bound is 54.44, and its float sum cancels to 0.0 near
    # 2**53; the integer bound is 52, from the leaf of weight 1 below 2**53
    doc = {"parent": [0, 0, 0], "w": [9007199254738994, 9007199254738993, 1]}
    p = tmp_path / "tree.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    res = invoke_cli(["audit-tree", str(p)])
    assert res.exit_code == 0, res.output
    assert "weight bound: 1 <= 52 (exact check ok) (margin 51)" in res.output


def test_audit_tree_malformed_exit_2(tmp_path):
    p = tmp_path / "tree.json"
    p.write_text('{"parent": [1, 0], "w": [1, 1]}', encoding="utf-8")
    res = invoke_cli(["audit-tree", str(p)])
    assert res.exit_code == 2


def test_gen_roundtrips_through_minimize(tmp_path):
    out = tmp_path / "gen.json"
    res = invoke_cli(["gen", "--family", "mdp", "--states", "9", "--seed", "4", "--out", str(out)])
    assert res.exit_code == 0, res.output
    res2 = invoke_cli(["compare", str(out)])
    assert res2.exit_code == 0, res2.output


def test_gen_bad_family_exit_2():
    res = invoke_cli(["gen", "--family", "tape", "--states", "3"])
    assert res.exit_code == 2


@pytest.mark.parametrize("family", ["mc", "mdp"])
def test_gen_branching_past_the_distribution_denominator_exit_2(family):
    res = run_cli("gen", "--family", family, "--states", "50", "--branching", "300",
                  "--seed", "1")
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    assert "at most 256" in res.stderr
    assert res.stdout == ""
