"""Seeded mutation fuzzing: malformed inputs end in a verdict, never a crash.

Valid documents of each input format are mutated (spans deleted, repeated
or truncated, characters and numbers replaced, lines shuffled) and run
through ``minimize --audit --stats``; each must exit 0, or 2 with an
``error:`` message.  Refinement-tree documents, as ``minimize --audit``
writes them, are mutated the same way and run through ``audit-tree``; each
must exit 0, 1 with the audit's verdict (its report lines, or one
``error:`` line naming a heavy choice that fails its check), or 2 with one
``error:`` line.  All cases run in one child process whose address space is
capped at 1 GB, calling the command in-process, and none may raise.  Run
the file directly to fuzz by hand: ``python tests/test_fuzz.py DIR [CASES]``
with ``src`` on ``PYTHONPATH``.
"""

import io
import json
import os
import random
import re
import resource
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout

CASES = 1000  # per format
LIMIT_AS = 1 << 30
EXTENSIONS = {"coalg-json": ".json", "dfa-text": ".dfa", "aut": ".aut", "mc-tsv": ".tsv",
              "tree": ".tree.json"}

# "1" followed by 309 zeros is an integer literal too large for a float;
# Fraction expands 1e-5000 into more digits than Python will print; a signed,
# underscored or non-ASCII num/den goes past parse_probability's int() fast
# path to Fraction, and a 4301-digit one is refused by both
NUMBERS = ("0", "1", "-1", "2", "007", "999", "65536", "300000000", "1e400", "1e-5000",
           "3E-5000", "99999999999999999999", "1" + "0" * 309, "1/0", "0/1", "3/2", "-1/2",
           "0.5", "true", "null", "+1/2", "1_0/20", "\u0663/\u0664", "0007/0014",
           "1" * 4301 + "/" + "3" * 4301)
PUNCT = "[]{}(),:\"' \n\t-/.#eax"
AUT_LABELS = ("a", '"b"', "tau")
MC_SPLITS = (("1/1",), ("1/2", "1/2"), ("1/3", "2/3"))


def seed_documents(fmt, rng):
    """A few valid, small documents of one format."""
    from util import dfa_text, labelled_mc

    from bisimkit.engine import WEIGHT_KINDS, refine_hopcroft
    from bisimkit.formats import dump_coalgebra, tree_to_json
    from bisimkit.gen import FAMILIES, GenSpec, generate

    docs = []
    for seed in range(3):
        if fmt == "tree":  # the document minimize --audit writes
            for family, weight in zip(("dfa", "lts", "mc"), WEIGHT_KINDS):
                coalg = generate(GenSpec(family, rng.randint(3, 8), seed=seed))
                docs.append(tree_to_json(refine_hopcroft(coalg, weight).tree))
        elif fmt == "coalg-json":
            docs += [dump_coalgebra(generate(GenSpec(f, 5, seed=seed))) for f in FAMILIES]
            docs.append(dump_coalgebra(labelled_mc(5, seed)))
        elif fmt == "dfa-text":
            docs.append(dfa_text(generate(GenSpec("dfa", 6, alphabet_size=2, seed=seed))))
        elif fmt == "aut":
            n = rng.randint(1, 6)
            edges = [
                f"({rng.randrange(n)}, {rng.choice(AUT_LABELS)}, {rng.randrange(n)})"
                for _ in range(rng.randint(0, 2 * n))
            ]
            docs.append("\n".join([f"des (0, {len(edges)}, {n})", *edges]) + "\n")
        else:
            n = rng.randint(1, 6)
            rows = ["# src dst prob"]
            for x in range(n):
                probs = rng.choice(MC_SPLITS[:1] if n == 1 else MC_SPLITS)
                for dst, p in zip(rng.sample(range(n), len(probs)), probs):
                    rows.append(f"{x} {dst} {p}")
            docs.append("\n".join(rows) + "\n")
    return docs


def mutate(text, rng):
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(6)
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(0, 12))
        if op == 0:  # delete a span
            text = text[:i] + text[j:]
        elif op == 1:  # repeat a span
            text = text[:i] + text[i:j] * rng.randint(2, 50) + text[j:]
        elif op == 2:  # replace a character
            text = text[:i] + rng.choice(PUNCT) + text[i + 1:]
        elif op == 3:  # replace a number, a probability such as 1/2 or 0.5 whole
            numbers = list(re.finditer(r"\d+(?:[./]\d+)?", text))
            if numbers:
                m = rng.choice(numbers)
                text = text[:m.start()] + rng.choice(NUMBERS) + text[m.end():]
        elif op == 4:  # shuffle or duplicate lines
            lines = text.splitlines(True)
            if rng.random() < 0.5:
                rng.shuffle(lines)
            elif lines:
                lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
            text = "".join(lines)
        else:  # truncate
            text = text[:i]
    return text


def run_case(main, workdir, ext, text):
    """Exit code of one minimize or audit-tree run, with None if it ended as
    it should, else what it printed, or the traceback if it raised."""
    path = os.path.join(workdir, "case" + ext)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    if ext == EXTENSIONS["tree"]:
        argv = ["audit-tree", path]
    else:
        argv = ["minimize", path, "--audit", "--stats",
                "--out", os.path.join(workdir, "part.json"),
                "--tree-out", os.path.join(workdir, "tree.json")]
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            main(argv)
        code = 0
    except SystemExit as e:
        code = e.code or 0
    except Exception:
        return None, traceback.format_exc()
    stdout, stderr = out.getvalue(), err.getvalue()
    error_line = stderr.startswith("error: ") and stderr.count("\n") == 1
    if code == 0:
        ok = True
    elif code == 1:  # only audit-tree fails a document it could read
        verdict = stdout.startswith("weight law: ") and not stderr
        ok = argv[0] == "audit-tree" and (verdict or error_line and "heavy" in stderr)
    else:
        ok = code == 2 and error_line
    return code, None if ok else stdout + stderr


def run_cases(workdir, cases):
    """Run ``cases`` mutations per format; return exit-code tallies and failures."""
    from bisimkit.cli import main

    failures = []
    counts = {}
    for k, (fmt, ext) in enumerate(EXTENSIONS.items()):
        rng = random.Random(k)
        docs = seed_documents(fmt, rng)
        tally = counts[fmt] = {}
        for _ in range(cases):
            text = mutate(rng.choice(docs), rng)
            code, detail = run_case(main, workdir, ext, text)
            tally[str(code)] = tally.get(str(code), 0) + 1
            if detail is not None:
                failures.append({"case": text[:200], "code": code, "detail": detail[-1500:]})
    return {"counts": counts, "failures": failures}


def test_mutated_inputs_exit_0_or_2(tmp_path):
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, tests)))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (LIMIT_AS, LIMIT_AS))

    res = subprocess.run(
        [sys.executable, os.path.abspath(__file__), str(tmp_path), str(CASES)],
        capture_output=True, text=True, env=env, preexec_fn=cap, timeout=600,
    )
    assert res.returncode == 0, res.stderr[-3000:]
    report = json.loads(res.stdout)
    assert report["failures"] == []
    for fmt in EXTENSIONS:
        tally = report["counts"][fmt]
        assert sum(tally.values()) == CASES
        # the mutations reach past the parsers: some inputs minimize, some fail
        assert tally.get("0", 0) > 0 and tally.get("2", 0) > 0, (fmt, tally)
    # and some tree documents parse but fail their audit
    assert report["counts"]["tree"].get("1", 0) > 0


if __name__ == "__main__":
    n_cases = int(sys.argv[2]) if len(sys.argv) > 2 else CASES
    print(json.dumps(run_cases(sys.argv[1], n_cases)))
