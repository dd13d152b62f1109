"""Tests of the benchmark itself, on its tiny smoke-mode inputs.

Run from the root of the checkout: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import families  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in line["metrics"].items()
    }
    for m in declared:
        assert m["name"] in proc.stderr  # the table names every metric
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    if trace == "0":
        assert all(metrics[m["name"]] > 0 for m in declared)
    else:
        assert metrics["trace.self_sum_s"] == pytest.approx(metrics["trace.ops_s"])
        assert metrics["trace.ops_s"] >= metrics["trace.minimize_s"] > 0


def test_wrong_reference_fails_the_run(monkeypatch):
    monkeypatch.setattr(families, "moore", lambda acc, succ: [list(range(len(acc)))])
    result, _, _ = run.run_workload("dfa-5k", 5, 0.1, False, True)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_fails_without_a_source_tree():
    bare = ROOT / ".perfbench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run("--workload", "dfa-5k", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("family", list(families.GENERATORS))
def test_inputs_repeat_for_a_seed_and_references_match_the_oracle(family):
    from bisimkit.formats import load_coalgebra
    from bisimkit.oracle import bisim_bruteforce

    a = families.GENERATORS[family](20, 7)
    assert a.text == families.GENERATORS[family](20, 7).text
    path = ROOT / ".perfbench_work" / f"test-{family}{a.ext}"
    path.parent.mkdir(exist_ok=True)
    path.write_text(a.text, encoding="utf-8")
    try:
        oracle = bisim_bruteforce(load_coalgebra(str(path)))
    finally:
        path.unlink()
    assert a.reference() == [list(b) for b in oracle.blocks]


def test_captured_streams_are_split_into_documents():
    from worker import split_documents, stats_line

    docs = split_documents('{"blocks": [[0], [1]]}\n{"tree": [1, 2]}\n')
    assert [d for d, _ in docs] == [{"blocks": [[0], [1]]}, {"tree": [1, 2]}]
    assert docs[1][1] == '{"tree": [1, 2]}'
    assert stats_line('audit ok\n{"splits": 3}\n') == {"splits": 3}


def test_moore_agrees_with_plain_refinement():
    inst = families.dfa_instance("dfa", 300, 11)
    acc = [int(line[0]) for line in inst.text.splitlines()[1:]]
    succ = [tuple(map(int, line.split()[1:])) for line in inst.text.splitlines()[1:]]
    expected = families.plain_refinement(300, lambda x, b: (acc[x], b[succ[x][0]], b[succ[x][1]]))
    assert families.moore(acc, succ) == expected


def test_patched_names_are_restored():
    import bisimkit.cli as cli
    import bisimkit.coalgebra as coalgebra
    import bisimkit.engine as engine

    before = (cli.refine_hopcroft, engine.SignatureEvaluator, coalgebra.validate_value,
              engine.Partition.__dict__["from_blocks"])
    with Tracer().patched():
        assert cli.refine_hopcroft is not before[0]
        assert engine.SignatureEvaluator is not before[1]
    after = (cli.refine_hopcroft, engine.SignatureEvaluator, coalgebra.validate_value,
             engine.Partition.__dict__["from_blocks"])
    assert after == before


def test_self_times_add_up():
    t = Tracer()

    def inner():
        return sum(range(1000))

    wrapped = t.wrap("engine.mark_dirty", inner)
    hot = t.wrap_hot("engine.signature", inner)
    _, seconds = t.operation("cli.main", "minimize", lambda: [wrapped(), hot(), hot()])
    (self_sum, duration), = t.op_totals().values()
    assert duration == seconds
    assert self_sum == pytest.approx(duration)
    assert t.calls("engine.signature") == 2
