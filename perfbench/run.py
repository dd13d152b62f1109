"""Benchmark for bisimkit: end-to-end and per-layer metrics on three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dfa-5k --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, traced
    python3 perfbench/run.py --workload all --smoke --seconds 1   # tiny inputs

A run builds the workload's inputs from ``--seed``, computes their
reference answers and writes both to files.  Then, four times over, it
repeats that set-up in memory (timed) and starts ``worker.py``, which runs
the ``bisimkit`` commands in a process of its own for a quarter of the
run's seconds and checks every output.  ``--trace 1`` adds one more worker
that runs one pass under ``tracer.Tracer`` and reports per-layer metrics;
the untraced passes give the tracing overhead.  A table of every metric goes
to stderr; the last line of stdout is the result as JSON.  The exit code is
1 when any output check fails and 2 when the run cannot start.

Metric names, units and bounds come from BENCHMARK.json; README.md says
what each one measures and which end-to-end metric each layer should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# a run alternates ROUNDS rounds of set-up repetitions and worker passes;
# after one warm-up, set-up repeats at least SETUP_REPS times and for at
# least SETUP_SECONDS in all, so that its fastest repetition is not one
# lucky or unlucky reading
ROUNDS = 4
SETUP_REPS = 8
SETUP_SECONDS = 1.6
# every run must end within 180 s; the budget covers set-up and all workers
TIME_BUDGET = 170.0


class BenchError(Exception):
    """The run could not produce a result (as opposed to a failed check)."""


class SetUp(NamedTuple):
    seconds: float
    gen_seconds: float
    digest: str  # of every input and reference
    files: dict  # path -> text of every input and reference
    instances: list  # the worker plan's instance entries


def set_up(spec_list, work):
    """Build every input file's text and reference answer of a workload; time it.

    Writing the files is left to the caller and not timed: on a shared
    virtual disk it varies more than everything else set-up does.
    """
    from families import GENERATORS

    gen_seconds = 0.0
    digest = hashlib.sha256()
    files = {}
    instances = []
    t0 = perf_counter()
    for i, spec in enumerate(spec_list):
        inst = GENERATORS[spec.family](spec.n, spec.seed)
        gen_seconds += inst.gen_s
        name = f"{i:03d}-{spec.family}-{spec.n}"
        path = work / "inputs" / (name + inst.ext)
        files[path] = inst.text
        digest.update(inst.text.encode())
        ref_path = None
        if spec.reference != "oracle":
            if spec.reference == "singletons":
                ref = [[x] for x in range(spec.n)]
            else:
                ref = inst.reference()
            ref_text = json.dumps(ref)
            ref_path = work / "inputs" / (name + ".ref.json")
            files[ref_path] = ref_text
            digest.update(ref_text.encode())
        instances.append({
            "name": name, "family": spec.family, "n": spec.n,
            "input": str(path), "ref": ref_path and str(ref_path),
            "ops": [_op(kind, path, extra) for kind, extra in spec.ops],
        })
    return SetUp(perf_counter() - t0, gen_seconds, digest.hexdigest(), files, instances)


def _op(kind, path, extra):
    """One command: partition, then tree if audited, to stdout; counters to stderr."""
    audit = "--audit" in extra
    argv = ["minimize", str(path), "--out", "-", "--stats", *extra]
    if audit:
        argv += ["--tree-out", "-"]
    return {"kind": kind, "argv": argv, "audit": audit}


def run_worker(work, label, instances, seconds, trace, deadline):
    plan_path = work / f"plan-{label}.json"
    result_path = work / f"result-{label}.json"
    plan = {"instances": instances, "seconds": seconds, "trace": trace,
            "spans": str(work / "spans.jsonl")}
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    log_path = work / f"worker-{label}.log"
    with open(log_path, "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)],
                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
                timeout=max(1.0, deadline - perf_counter()), check=False,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{label} worker ran out of time") from None
    if proc.returncode != 0:
        tail = log_path.read_text(encoding="utf-8")[-2000:]
        raise BenchError(f"{label} worker exited with {proc.returncode}:\n{tail}")
    with open(result_path, encoding="utf-8") as f:
        return json.load(f)


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _code_digest():
    h = hashlib.sha256()
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def check_history(key, prints, record):
    """Counts and digests recorded by earlier runs of this code and seed must
    repeat; ``record`` adds this run's to the record."""
    path = WORK / "determinism.json"
    history = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    seen = history.setdefault(key, {})
    changed = [k for k, v in prints.items() if k in seen and seen[k] != v]
    if record and not changed and any(k not in seen for k in prints):
        seen.update(prints)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(history, indent=1), encoding="utf-8")
        os.replace(tmp, path)
    return changed


def run_workload(name, seed, seconds, trace, smoke):
    """One benchmark run; returns (result, end-to-end values, per-layer values)."""
    import workloads

    deadline = perf_counter() + TIME_BUDGET
    work = WORK / (name + ("-smoke" if smoke else ""))
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    failures = []
    spec_list = workloads.specs(name, seed, smoke)
    # the first set-up also finishes the imports; it is checked but not
    # timed unless it is the only one
    warm = set_up(spec_list, work)
    for path, text in warm.files.items():
        path.write_text(text, encoding="utf-8")
    instances = warm.instances
    # set-up repetitions and worker passes alternate in ROUNDS rounds, so that
    # both are sampled across the whole run
    setups = []
    workers = []
    for r in range(ROUNDS):
        start = perf_counter()
        while not trace and (perf_counter() - start < SETUP_SECONDS / ROUNDS
                             or len(setups) < SETUP_REPS * (r + 1) // ROUNDS):
            setups.append(set_up(spec_list, work))
        workers.append(run_worker(work, f"plain-{r}", instances, seconds / ROUNDS, False, deadline))
    if len({s.digest for s in (warm, *setups)}) != 1:
        failures.append("set-up is not deterministic: inputs differ between repetitions")
    setups = setups or [warm]
    plain = workers[0]
    if any(w["fingerprint"] != plain["fingerprint"] for w in workers):
        failures.append("worker processes disagree on outputs or counters")
    prints = {"outputs": _digest(plain["fingerprint"])}
    if trace:
        traced = run_worker(work, "traced", instances, seconds, True, deadline)
        workers.append(traced)
        if traced["fingerprint"] != plain["fingerprint"]:
            failures.append("traced and untraced processes disagree on outputs or counters")
        prints["traced"] = _digest(traced["traced_counts"])
    for w in workers:
        failures.extend(w["failures"])
    key = f"{_code_digest()}/{work.name}/{seed}"
    for k in check_history(key, prints, record=not failures):
        failures.append(f"{k} differ from an earlier run of the same code and seed")
    shutil.rmtree(work / "inputs")

    passes = [p for w in workers if "layers" not in w for p in w["passes"]]
    # each command's and each instance's fastest pass, summed: see README.md,
    # "Bounds and run-to-run spread", for why not the median pass
    kinds = [op["kind"] for inst in instances for op in inst["ops"]]
    op_best = _column_minima(p["op_seconds"] for p in passes)
    instance_best = _column_minima(p["instance_seconds"] for p in passes)
    e2e = {
        "setup_s": min(s.seconds for s in setups),
        "minimize_s": sum(t for t, k in zip(op_best, kinds) if k == "minimize"),
        "naive_s": sum(t for t, k in zip(op_best, kinds) if k == "naive"),
        "instances_per_s": len(instance_best) / sum(instance_best),
        "peak_rss_mb": max(w["peak_rss_mb"] for w in workers if "layers" not in w),
    }
    layers = None
    if trace:
        layers = dict(traced["layers"])
        layers["gen.generate_s"] = statistics.median(s.gen_seconds for s in setups)
        for family in workloads.CROSSCHECK_FAMILIES:
            hits, total = traced["nontrivial"].get(family, (0, 0))
            layers[f"oracle.nontrivial_share.{family}"] = hits / total if total else 0.0
        # the traced pass against the median untraced pass, not against the
        # fastest readings that make up minimize_s
        untraced = statistics.median(p["minimize_s"] for p in passes)
        overhead = layers["trace.minimize_s"] - untraced
        layers["trace.overhead_s"] = overhead
        layers["trace.overhead_share"] = overhead / untraced
    result = {
        "correct": not failures,
        "attempted": sum(w["attempted"] for w in workers),
        "failed": sum(w["failed"] for w in workers),
        "failures": failures,
        "passes": len(passes),
    }
    return result, e2e, layers


def _column_minima(rows):
    return [min(column) for column in zip(*rows)]


def metric_block(declared, values):
    missing = {m["name"] for m in declared} ^ set(values)
    if missing:
        raise BenchError(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def print_table(name, result, blocks, stream):
    err = result["failed"] / result["attempted"]
    print(f"== {name}: {result['attempted']} operations, {result['failed']} failed "
          f"(error_rate {err:g}), {result['passes']} untraced passes", file=stream)
    for block in blocks:
        for metric, v in block.items():
            print(f"   {metric:<36} {v['value']:>16.6f} {v['unit']}", file=stream)
    for msg in result["failures"][:20]:
        print(f"   FAILED: {msg}", file=stream)


def main(argv=None):
    bench_path = ROOT / "BENCHMARK.json"
    if not (SRC / "bisimkit" / "__init__.py").is_file() or not bench_path.is_file():
        print(f"error: run from a bisimkit checkout; {SRC / 'bisimkit'} is missing",
              file=sys.stderr)
        return 2
    declared = json.loads(bench_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=declared["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = p.parse_args(argv)

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    trace = args.trace == 1 or args.workload == "all"
    summary = {}
    try:
        for name in names:
            result, e2e, layers = run_workload(name, args.seed, args.seconds, trace, args.smoke)
            blocks = [metric_block(declared["end_to_end"], e2e)]
            if layers is not None:
                blocks.append(metric_block(declared["per_layer"], layers))
            print_table(name, result, blocks, sys.stderr)
            summary[name] = (result, blocks)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    correct = all(r["correct"] for r, _ in summary.values())
    if args.workload == "all":
        line = {"correct": correct,
                "workloads": {n: {"failed": r["failed"], "metrics": {k: v for b in bl for k, v in b.items()}}
                              for n, (r, bl) in summary.items()}}
    else:
        result, blocks = summary[args.workload]
        line = {"correct": correct, "attempted": result["attempted"],
                "failed": result["failed"], "metrics": blocks[-1] if trace else blocks[0]}
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
