"""Measured part of one benchmark run, in a process of its own.

Usage: python3 worker.py PLAN.json RESULT.json

The plan (written by run.py) lists input files, their reference answers
and the ``bisimkit`` command lines to run on each.  A pass runs every
command of every instance through ``bisimkit.cli.main`` in this process
and checks each output.  Passes repeat until the plan's seconds are spent;
a traced plan runs one pass under ``Tracer``.  This process runs nothing
else, so its peak resident set size is the workload's.

Commands write their partition, tree and counters to stdout and stderr,
which are captured in memory: writing small files on a shared virtual disk
took from one to five times as long from one second to the next, and that,
not the program, would set the spread.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import click

import bisimkit.cli as cli
from bisimkit import oracle
from bisimkit.formats import load_coalgebra

from families import canonical_blocks
from tracer import ENGINE_COUNTERS, LAYER_OF_SPAN, Tracer

# tracer counts that must repeat exactly; the rest of its output is timing
TRACED_COUNTS = (
    *(f"engine.{k}" for k in ENGINE_COUNTERS),
    "engine.tree_state_entries", "coalgebra.pred_pairs", "formats.tree_bytes",
    "formats.tree_to_json_calls", "wtree.tree_nodes", "wtree.light_sum",
)


def invoke(argv):
    """Run one CLI command in-process.

    Returns (exit code or traceback, stdout text, stderr text).
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = _exit_code(argv)
    return code, out.getvalue(), err.getvalue()


def _exit_code(argv):
    try:
        cli.main(argv, standalone_mode=False)
    except SystemExit as e:
        if e.code is None:
            return 0
        return e.code if isinstance(e.code, int) else 1
    except click.ClickException as e:
        return e.exit_code
    except Exception:  # a crash is a failed operation, not the end of the run
        return traceback.format_exc(limit=3)
    return 0


def split_documents(text):
    """The JSON documents written one after another to a stream."""
    decoder = json.JSONDecoder()
    docs, i = [], 0
    while True:
        while i < len(text) and text[i].isspace():
            i += 1
        if i == len(text):
            return docs
        start = i
        obj, i = decoder.raw_decode(text, i)
        docs.append((obj, text[start:i]))


def stats_line(err):
    """The counters ``--stats`` writes to stderr as one JSON line."""
    for line in err.splitlines():
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no counters on stderr")


def peak_rss_mb():
    """High-water resident set of this process.

    Not ``ru_maxrss``: Linux carries the parent's high-water mark across the
    fork and exec that start this process, so it would report the set-up's
    memory instead of the workload's.
    """
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def oracle_blocks(partition, n):
    block_of = [0] * n
    for i, block in enumerate(partition.blocks):
        for x in block:
            block_of[x] = i
    return canonical_blocks(block_of)


class Runner:
    def __init__(self, plan):
        self.instances = plan["instances"]
        self.refs = {}
        self.coalgebras = {}
        for inst in self.instances:
            if inst["ref"]:
                with open(inst["ref"], encoding="utf-8") as f:
                    self.refs[inst["name"]] = json.load(f)
            else:
                self.coalgebras[inst["name"]] = load_coalgebra(inst["input"])
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.fingerprint = None
        self.nontrivial = {}

    def fail(self, message):
        self.failures.append(message)

    def compare(self, inst, prints, index):
        """Count failed operations: bad output, bytes unlike the other
        algorithms', or a fingerprint unlike the first pass's."""
        first = next((p["partition"] for p in prints if p is not None), None)
        earlier = self.fingerprint[index] if self.fingerprint is not None else prints
        for op, fp, before in zip(inst["ops"], prints, earlier):
            where = f"{inst['name']} {' '.join(op['argv'][1:])}"
            if fp is None:
                self.failed += 1
            elif fp["partition"] != first:
                self.fail(f"{where}: partition bytes differ from the other commands'")
                self.failed += 1
            elif before is not None and fp != before:
                self.fail(f"{where}: output or counters changed between passes")
                self.failed += 1

    def check(self, inst, op, result, ref):
        """Fingerprint of a correct output, or None after recording the failure."""
        code, out, err = result
        where = f"{inst['name']} {' '.join(op['argv'][1:])}"
        if code != 0:
            self.fail(f"{where}: exit {code}")
            return None
        try:
            docs = split_documents(out)
            blocks = docs[0][0]["blocks"]
            stats = stats_line(err)
        except (ValueError, KeyError, TypeError, IndexError):
            self.fail(f"{where}: output is not a partition document and counters")
            return None
        if len(docs) != 1 + op["audit"]:
            self.fail(f"{where}: {len(docs)} documents on stdout")
            return None
        if blocks != ref:
            self.fail(f"{where}: partition differs from the reference")
            return None
        fp = {
            "partition": _sha(docs[0][1]),
            "counters": {k: stats[k] for k in ENGINE_COUNTERS if k in stats},
        }
        if op["audit"]:
            fp["tree"] = _sha(docs[1][1])
        return fp

    def run_pass(self, tracer=None):
        start = perf_counter()
        seconds = {"minimize": 0.0, "naive": 0.0}
        op_seconds = []
        instance_seconds = []
        fingerprint = []
        for inst in self.instances:
            inst_start = perf_counter()
            name = inst["name"]
            if name in self.refs:
                ref = self.refs[name]
            else:
                coalg = self.coalgebras[name]
                if tracer is None:
                    part = oracle.bisim_bruteforce(coalg)
                else:
                    part, _ = tracer.operation(
                        "oracle.bisim_bruteforce", "oracle", oracle.bisim_bruteforce, coalg
                    )
                ref = oracle_blocks(part, inst["n"])
                if self.fingerprint is None:
                    hits = self.nontrivial.setdefault(inst["family"], [0, 0])
                    hits[0] += 1 < len(ref) < inst["n"]
                    hits[1] += 1
            prints = []
            for op in inst["ops"]:
                self.attempted += 1
                if tracer is None:
                    t0 = perf_counter()
                    result = invoke(op["argv"])
                    dt = perf_counter() - t0
                else:
                    result, dt = tracer.operation("cli.main", op["kind"], invoke, op["argv"])
                seconds[op["kind"]] += dt
                op_seconds.append(dt)
                prints.append(self.check(inst, op, result, ref))
            self.compare(inst, prints, len(fingerprint))
            fingerprint.append(prints)
            instance_seconds.append(perf_counter() - inst_start)
        if self.fingerprint is None:
            self.fingerprint = fingerprint
        return {
            "wall": perf_counter() - start,
            "minimize_s": seconds["minimize"],
            "naive_s": seconds["naive"],
            "op_seconds": op_seconds,
            "instance_seconds": instance_seconds,
        }


def traced_pass(runner, spans_path):
    tracer = Tracer()
    with tracer.patched():
        p = runner.run_pass(tracer)
    tracer.write_jsonl(spans_path)
    layers = tracer.layer_seconds()
    totals = tracer.op_totals()
    for op, (self_sum, duration) in totals.items():
        if abs(self_sum - duration) > 1e-6 * max(1.0, duration):
            runner.fail(f"trace: self times of operation {op} do not add up to its span")
    counts = tracer.counts
    layers.update({k: counts.get(k, 0) for k in TRACED_COUNTS})
    layers["values.validate_calls"] = tracer.calls("coalgebra.validate_value")
    layers["engine.split_yield"] = counts.get("engine.splits", 0) / max(1, counts.get("engine.iterations", 0))
    layers["wtree.bound_margin"] = counts.get("wtree.bound_margin", 0.0)
    layers["trace.minimize_s"] = p["minimize_s"]
    layers["trace.ops_s"] = sum(duration for _, duration in totals.values())
    layers["trace.self_sum_s"] = sum(layers[m] for m in set(LAYER_OF_SPAN.values()))
    return p, layers, {k: counts.get(k, 0) for k in TRACED_COUNTS}


def main():
    plan_path, result_path = sys.argv[1:3]
    with open(plan_path, encoding="utf-8") as f:
        plan = json.load(f)
    runner = Runner(plan)
    out = {}
    if plan["trace"]:
        p, layers, counts = traced_pass(runner, plan["spans"])
        passes = [p]
        out["layers"] = layers
        out["traced_counts"] = counts
    else:
        passes = []
        start = perf_counter()
        while True:
            passes.append(runner.run_pass())
            elapsed = perf_counter() - start
            if elapsed + passes[-1]["wall"] > plan["seconds"]:
                break
    out.update(
        passes=passes,
        attempted=runner.attempted,
        failed=runner.failed,
        failures=runner.failures,
        fingerprint=runner.fingerprint,
        nontrivial=runner.nontrivial,
        peak_rss_mb=peak_rss_mb(),
    )
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(out, f)


if __name__ == "__main__":
    main()
