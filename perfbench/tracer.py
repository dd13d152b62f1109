"""Spans around bisimkit's public names, recorded from outside the program.

``Tracer.patched()`` replaces the names the CLI calls through with timing
wrappers and restores the originals on exit.  Each wrapper records a span
(id, name, start, end, parent id, operation id, time covered by child
spans).  Functions called once per state or per signature would produce
millions of spans, so those are *hot*: their calls are folded into one
span per (parent span, name) that carries a call count and the summed
duration.  Spans stay in memory until ``write_jsonl``.

A span's self time is its duration minus the time its child spans cover,
so the self times of one operation's spans add up to that operation's
root span exactly.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

import bisimkit.cli as cli
import bisimkit.coalgebra as coalgebra
import bisimkit.engine as engine

# span name -> the layer metric its self time adds to; a name the program no
# longer has is not wrapped, and its metric reads 0
LAYER_OF_SPAN = {
    "cli.main": "cli.self_s",
    "cli.load_coalgebra": "formats.load_s",
    "cli.partition_to_json": "formats.partition_json_s",
    "cli.tree_to_json": "formats.tree_to_json_s",
    "cli.tree_from_json": "formats.tree_from_json_s",
    "cli.audit_tree": "wtree.audit_s",
    "cli.refine_hopcroft": "engine.self_s",
    "cli.refine_naive": "engine.self_s",
    "engine.build_pred_index": "coalgebra.pred_index_s",
    "engine.SignatureEvaluator": "coalgebra.evaluator_s",
    "engine.signature": "engine.signature_s",
    "engine.mark_dirty": "engine.mark_dirty_s",
    "engine.Partition.from_blocks": "engine.canonicalize_s",
    "engine.Partition.from_block_of": "engine.canonicalize_s",
    "coalgebra.validate_value": "values.validate_s",
    "coalgebra.value_from_obj": "values.from_obj_s",
    # a root span the benchmark opens itself around the reference check
    "oracle.bisim_bruteforce": "oracle.bruteforce_s",
}


# RunStats fields, summed over every refine call as engine.<field>
ENGINE_COUNTERS = ("iterations", "splits", "dirty_markings", "markdirty_touches",
                   "signatures_computed")


class _Frame:
    __slots__ = ("id", "name", "start", "child", "hot")

    def __init__(self, span_id, name, start):
        self.id = span_id
        self.name = name
        self.start = start
        self.child = 0.0
        self.hot = {}  # name -> [calls, total, first start, last end]


class Tracer:
    """Span recorder; one instance per traced pass."""

    def __init__(self):
        self.spans = []  # dicts, in the order spans end
        self.counts = {}
        self.op = 0
        self.op_kinds = {}  # operation id -> the caller's label for it
        self._stack = []
        self._next_id = 0

    # -- recording -----------------------------------------------------------------

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _open(self, name):
        self._next_id += 1
        frame = _Frame(self._next_id, name, perf_counter())
        self._stack.append(frame)
        return frame

    def _close(self, frame):
        end = perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        duration = end - frame.start
        if parent is not None:
            parent.child += duration
        for name, (calls, total, first, last) in frame.hot.items():
            self._next_id += 1
            self.spans.append({
                "id": self._next_id, "name": name, "start": first, "end": last,
                "parent": frame.id, "op": self.op, "calls": calls,
                "duration": total, "self": total,
            })
        self.spans.append({
            "id": frame.id, "name": frame.name, "start": frame.start, "end": end,
            "parent": parent.id if parent else None, "op": self.op, "calls": 1,
            "duration": duration, "self": duration - frame.child,
        })
        return duration

    def operation(self, name, kind, fn, *args):
        """Run ``fn`` as the root span of a new operation; return (result, seconds)."""
        self.op += 1
        self.op_kinds[self.op] = kind
        frame = self._open(name)
        try:
            result = fn(*args)
        finally:
            seconds = self._close(frame)
        return result, seconds

    def wrap(self, name, fn, on_result=None):
        def traced(*args, **kwargs):
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    def wrap_hot(self, name, fn):
        stack = self._stack

        def traced(*args):
            t0 = perf_counter()
            result = fn(*args)
            t1 = perf_counter()
            frame = stack[-1]
            frame.child += t1 - t0
            agg = frame.hot.get(name)
            if agg is None:
                frame.hot[name] = [1, t1 - t0, t0, t1]
            else:
                agg[0] += 1
                agg[1] += t1 - t0
                agg[3] = t1
            return result

        return traced

    # -- what each wrapped name counts -------------------------------------------------

    def _on_refine(self, result, args):
        stats = result.stats
        for key in ENGINE_COUNTERS:
            self.count(f"engine.{key}", getattr(stats, key, 0))
        tree = getattr(result, "tree", None)
        if tree is not None:
            self.count("engine.tree_state_entries", sum(map(len, getattr(tree, "states", ()))))

    def _on_pred_index(self, result, args):
        self.count("coalgebra.pred_pairs", getattr(result, "m", 0))

    def _on_tree_to_json(self, result, args):
        self.count("formats.tree_to_json_calls")
        # the document is ASCII JSON, so characters are bytes
        self.count("formats.tree_bytes", len(result))

    def _on_audit(self, report, args):
        self.count("wtree.tree_nodes", getattr(args[0], "node_count", 0))
        self.count("wtree.light_sum", report.light_sum)
        margin = report.bound_float - report.light_sum
        self.counts["wtree.bound_margin"] = min(self.counts.get("wtree.bound_margin", margin), margin)

    # -- patching --------------------------------------------------------------------

    @contextmanager
    def patched(self):
        """Install the wrappers; the original names come back on exit."""
        saved = []

        def patch(owner, attr, value):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        def span(module, prefix, attr, on_result=None):
            if attr in module.__dict__:
                patch(module, attr, self.wrap(f"{prefix}.{attr}", module.__dict__[attr], on_result))

        def hot(module, prefix, attr):
            if attr in module.__dict__:
                patch(module, attr, self.wrap_hot(f"{prefix}.{attr}", module.__dict__[attr]))

        try:
            span(cli, "cli", "load_coalgebra")
            span(cli, "cli", "refine_hopcroft", self._on_refine)
            span(cli, "cli", "refine_naive", self._on_refine)
            span(cli, "cli", "partition_to_json")
            span(cli, "cli", "tree_to_json", self._on_tree_to_json)
            span(cli, "cli", "tree_from_json")
            span(cli, "cli", "audit_tree", self._on_audit)
            span(engine, "engine", "build_pred_index", self._on_pred_index)
            span(engine, "engine", "mark_dirty")
            hot(coalgebra, "coalgebra", "validate_value")
            hot(coalgebra, "coalgebra", "value_from_obj")
            self._patch_evaluator(patch)
            self._patch_partition(patch)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _patch_evaluator(self, patch):
        base = engine.__dict__.get("SignatureEvaluator")
        if base is None:
            return

        class TracedEvaluator(base):
            __init__ = self.wrap("engine.SignatureEvaluator", base.__init__)
            signature = self.wrap_hot("engine.signature", base.signature)

        patch(engine, "SignatureEvaluator", TracedEvaluator)

    def _patch_partition(self, patch):
        cls = engine.__dict__.get("Partition")
        if cls is None:
            return
        for attr in ("from_blocks", "from_block_of"):
            if attr in cls.__dict__:
                fn = cls.__dict__[attr].__func__
                patch(cls, attr, classmethod(self.wrap(f"engine.Partition.{attr}", fn)))

    # -- results ---------------------------------------------------------------------

    def layer_seconds(self):
        """Self seconds per layer metric; ``engine.refine_s`` is inclusive."""
        out = dict.fromkeys([*LAYER_OF_SPAN.values(), "engine.refine_s"], 0.0)
        for s in self.spans:
            metric = LAYER_OF_SPAN.get(s["name"])
            if metric is not None:
                out[metric] += s["self"]
            if s["name"] in ("cli.refine_hopcroft", "cli.refine_naive"):
                out["engine.refine_s"] += s["duration"]
        return out

    def op_totals(self):
        """Operation id -> (sum of its spans' self times, its root span's duration)."""
        out = {op: [0.0, 0.0] for op in self.op_kinds}
        for s in self.spans:
            out[s["op"]][0] += s["self"]
            if s["parent"] is None:
                out[s["op"]][1] = s["duration"]
        return out

    def calls(self, name):
        return sum(s["calls"] for s in self.spans if s["name"] == name)

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")
