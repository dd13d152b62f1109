"""Partition refinement: the naive fixpoint and the worklist-optimized run.

Both algorithms compute the coarsest partition in which same-block states
have equal one-step signatures.  ``refine_naive`` re-groups every state in
every sweep until nothing splits; a sweep is a few passes of builtins over
whole columns, with no Python function call per state: the evaluator's
``sweep_keys`` yields every state's key and one ``dict.setdefault``
comprehension numbers them.  ``refine_hopcroft`` keeps per-leaf
clean/dirty markings: a split computes signatures only for dirty states
(the clean rest stays one child, see :func:`split_leaf`), all children of
a split start clean, and only predecessors of the *non-heavy* children are
re-dirtied.  The heavy child is the one maximizing the selected block
weight, which keeps the total re-dirtying work within the light-children
weight budget certified by :mod:`bisimkit.wtree`.

The leaves live in a :class:`RefinablePartition` (Valmari 2009): slices of
one element array with a dirty prefix each, so marking a state is a swap
and a split is a cut.  The heavy child keeps its parent's leaf id and what
remains of its slice; only light children's states are relabelled.
"""

from __future__ import annotations

import gc
import time
from bisect import insort
from collections import Counter, deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import accumulate, pairwise
from operator import itemgetter
from typing import Iterable, Mapping, Optional, Sequence

from .coalgebra import Coalgebra, PredIndex, SignatureEvaluator, build_pred_index

__all__ = [
    "WEIGHT_KINDS",
    "ConfigurationError",
    "EngineInvariantError",
    "Partition",
    "RefinementTree",
    "RunStats",
    "RefineResult",
    "RefinablePartition",
    "split_leaf",
    "mark_dirty",
    "refine_naive",
    "refine_hopcroft",
]

WEIGHT_KINDS = ("card", "pred", "reach")

_WEIGHT = itemgetter(1)  # of a child (min, weight, slice start, slice stop)


@contextmanager
def _gc_paused():
    """Keep the cyclic garbage collector off inside; on the way out, however
    the block is left, turn it back on only if the caller had it on.

    A run allocates tuples per state while the loaded coalgebra and the
    engine's arrays stay alive, so with the collector on, its full
    collections rescan all of them again and again: about a quarter of a
    naive run on a 5k-state DFA.  Cyclic garbage made inside waits for the
    collector's next run.  ``gc.disable`` acts on the whole process.  Used
    as a decorator, each call gets a pause of its own.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class ConfigurationError(ValueError):
    """A run was requested with missing or contradictory parameters."""


class EngineInvariantError(RuntimeError):
    """An internal consistency check failed; indicates an engine bug."""


@dataclass(frozen=True)
class Partition:
    """Blocks of states; canonical form has blocks sorted by smallest member."""

    block_of: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]

    @classmethod
    def from_block_of(cls, block_of: Sequence) -> "Partition":
        """Canonical partition of a labelling of the states by any hashable
        labels: scanning the states in order, each label is numbered at its
        first occurrence, so blocks ascend by smallest member."""
        number: dict = {}
        return cls.from_canonical([number.setdefault(b, len(number)) for b in block_of])

    @classmethod
    def from_canonical(cls, block_of: Sequence[int]) -> "Partition":
        """The partition of a labelling that is canonical already: its ids
        are 0, 1, ... in order of first occurrence, as ``from_block_of``
        would number them."""
        # a stable sort by block lists each block's members in ascending
        # order, so every block is one slice, and only the blocks' tuples
        # outlive the call; blocks first occur in id order, so do their counts
        order = sorted(range(len(block_of)), key=block_of.__getitem__)
        bounds = accumulate(Counter(block_of).values(), initial=0)
        return cls(tuple(block_of), tuple(tuple(order[i:j]) for i, j in pairwise(bounds)))

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]], n_states: int) -> "Partition":
        """Canonical partition of ``blocks``, which must tile ``range(n_states)``;
        empty blocks are dropped."""
        block_of = [-1] * n_states
        for i, g in enumerate(blocks):
            for x in g:
                if not 0 <= x < n_states:
                    raise ValueError(f"state {x} out of range")
                if block_of[x] != -1:
                    raise ValueError(f"state {x} appears in two blocks")
                block_of[x] = i
        if -1 in block_of:
            missing = [x for x, b in enumerate(block_of) if b == -1]
            raise ValueError(f"states not covered by any block: {missing[:5]}")
        return cls.from_block_of(block_of)

    @property
    def n_states(self) -> int:
        return len(self.block_of)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


@dataclass
class RefinementTree:
    """History of block splits; node 0 is the full state space.

    Four arrays indexed by node id, the tree document's four arrays:
    ``parent`` (the root points to itself), ``weight`` under the run's
    weight kind, ``members`` (a leaf's sorted states, the same tuple as the
    output partition's block; None at inner nodes, whose states are the
    union of their children's) and ``heavy`` (the heavy child; None at
    leaves).  ``heavy`` is the heavy choice in the form ``wtree`` takes.
    Children were appended in order of smallest member, so child node ids
    increase with child position and exceed their parent's.
    """

    parent: list[int] = field(default_factory=list)
    weight: list[int] = field(default_factory=list)
    members: list[Optional[tuple[int, ...]]] = field(default_factory=list)
    heavy: list[Optional[int]] = field(default_factory=list)


@dataclass
class RunStats:
    """Counters exposed as part of a refinement result.

    ``phases`` holds seconds per phase of the run, named after the layers
    the benchmark times: ``coalgebra.evaluator_s`` and (hopcroft only)
    ``coalgebra.pred_index_s`` compile, ``engine.main_loop_s`` refines,
    ``engine.canonicalize_s`` builds the canonical partition.
    """

    iterations: int = 0
    splits: int = 0
    dirty_markings: int = 0
    markdirty_touches: int = 0
    signatures_computed: int = 0
    wall_time: float = 0.0
    phases: dict[str, float] = field(default_factory=dict)


@dataclass
class RefineResult:
    partition: Partition
    stats: RunStats
    tree: Optional[RefinementTree] = None


def _weight_vector(kind: str, pidx: PredIndex) -> list[int]:
    # the caller has checked that kind is one of WEIGHT_KINDS
    if kind == "card":
        return [1] * len(pidx.preds)
    if kind == "pred":
        return [len(p) for p in pidx.preds]
    return [1 if p else 0 for p in pidx.preds]


class RefinablePartition:
    """Leaves as slices of one element array (Valmari's refinable partition).

    Leaf ``b`` holds the states ``elems[first[b]:end[b]]``, and its dirty
    states are the prefix ``elems[first[b]:mid[b]]``.  ``pos`` inverts
    ``elems`` and ``leaf_of`` maps each state to its leaf.  A new partition
    has one leaf, 0, holding every state, all of them dirty.
    """

    __slots__ = ("elems", "pos", "leaf_of", "first", "mid", "end")

    def __init__(self, n: int):
        self.elems = list(range(n))
        self.pos = list(range(n))
        self.leaf_of = [0] * n
        self.first = [0]
        self.mid = [n]
        self.end = [n]

    @property
    def n_leaves(self) -> int:
        return len(self.first)

    def members(self, leaf: int) -> list[int]:
        return self.elems[self.first[leaf]:self.end[leaf]]

    def dirty(self, leaf: int) -> list[int]:
        return self.elems[self.first[leaf]:self.mid[leaf]]

    def check(self, dirty_sets: Mapping[int, set[int]]) -> None:
        """Raise EngineInvariantError unless ``elems`` and ``pos`` are inverse,
        the slices tile the array, each slice holds exactly its leaf's states
        and each dirty prefix holds exactly ``dirty_sets[leaf]``."""
        n = len(self.elems)
        if sorted(self.elems) != list(range(n)) or any(
            self.pos[x] != i for i, x in enumerate(self.elems)
        ):
            raise EngineInvariantError("elems and pos are not inverse permutations")
        at = 0
        for leaf in sorted(range(self.n_leaves), key=self.first.__getitem__):
            lo, m, hi = self.first[leaf], self.mid[leaf], self.end[leaf]
            if not (lo == at and lo <= m <= hi and lo < hi):
                raise EngineInvariantError(f"leaf {leaf}'s slice does not tile the array")
            at = hi
            if any(self.leaf_of[x] != leaf for x in self.members(leaf)):
                raise EngineInvariantError(f"leaf {leaf}'s slice holds another leaf's state")
            if set(self.dirty(leaf)) != dirty_sets.get(leaf, set()):
                raise EngineInvariantError(f"leaf {leaf}'s dirty prefix is not its dirty set")
        if at != n:
            raise EngineInvariantError("the slices do not cover the array")


def split_leaf(
    part: RefinablePartition,
    leaf: int,
    ev: SignatureEvaluator,
) -> list[list[int]]:
    """Group a leaf's dirty states by signature; the clean mass stays put.

    The leaf's dirty prefix is consumed: the leaf is left clean.  One
    signature is computed per dirty state and none for a clean one, in one
    ``keys`` call unless the functor is rigid (then one call each).  The
    groups, ordered by smallest member with members ascending, are moved to
    the front of the leaf's slice in that order, so the clean mass, if any,
    is the slice's tail and a child of its own.  Returns the groups; the
    leaf splits into ``len(groups)`` children plus one for a clean mass.

    No dirty state can belong with the clean mass.  A state is dirty
    because one of its successors moved into a light child since the leaf
    was last popped (or made), and light children get fresh leaf ids, newer
    than every id at that moment.  Any successor of a clean state that had
    moved into a light child since would have made it dirty, and a heavy
    child keeps its parent's id, so a clean state's signature names only
    older ids.  Every functor layer (labels, products, exponents, ``P``,
    and ``D``, whose masses are positive) shows every successor's leaf id in
    the signature, so a dirty state's signature names an id that no clean
    state's signature does.
    """
    elems, pos, block_of = part.elems, part.pos, part.leaf_of
    lo, m = part.first[leaf], part.mid[leaf]
    part.mid[leaf] = lo
    dirty = elems[lo:m]
    dirty.sort()
    by_sig: dict = {}
    if ev.rigid:
        signature = ev.signature
        for x in dirty:
            by_sig.setdefault(signature(x, block_of), []).append(x)
    else:
        for x, key in zip(dirty, ev.keys(dirty, block_of)):
            by_sig.setdefault(key, []).append(x)
    groups = list(by_sig.values())  # dirty is sorted, so groups ascend by min
    order = [x for g in groups for x in g]
    elems[lo:m] = order
    for p, x in enumerate(order, lo):
        pos[x] = p
    return groups


def mark_dirty(
    light: Sequence[Sequence[int]],
    pred_index: PredIndex,
    part: RefinablePartition,
    worklist: deque,
) -> tuple[int, int]:
    """Mark predecessors of the light children's states as dirty.

    ``light`` holds each light child's members.  Marking a clean state
    swaps it into its leaf's dirty prefix; a leaf whose prefix was empty is
    appended to ``worklist``.  Returns the number of markings performed (a
    state already dirty is not re-marked) and the number of (successor,
    predecessor) pairs visited.
    """
    preds = pred_index.preds
    elems, pos, leaf_of = part.elems, part.pos, part.leaf_of
    first, mid = part.first, part.mid
    marked = touches = 0
    for members in light:
        for y in members:
            ps = preds[y]
            touches += len(ps)
            for x in ps:
                leaf = leaf_of[x]
                p = mid[leaf]
                q = pos[x]
                if q >= p:
                    if p == first[leaf]:
                        worklist.append(leaf)
                    z = elems[p]
                    elems[p] = x
                    pos[x] = p
                    elems[q] = z
                    pos[z] = q
                    mid[leaf] = p + 1
                    marked += 1
    return marked, touches


@_gc_paused()
def refine_naive(coalg: Coalgebra, snapshots: Optional[list] = None) -> RefineResult:
    """Fixpoint by global sweeps: re-group all states until no block splits.

    Each sweep takes every state's ``(block, signature)`` key from one call
    of :meth:`SignatureEvaluator.sweep_keys` and numbers the keys in order
    of first occurrence with ``dict.setdefault``, so each new labelling is
    canonical; a block split when its id begins more than one key.  Sweep 1
    runs on the all-zero labelling, so it groups states by shape; every
    later labelling refines that, so from sweep 2 on rigid keys leave the
    shape id out.  The cyclic garbage collector is paused for the run, and
    the caller's setting is restored on return or raise.
    """
    start = time.perf_counter()
    n = coalg.n_states
    ev = SignatureEvaluator(coalg)
    stats = RunStats()
    compiled = time.perf_counter()
    block_of: list[int] = [0] * n
    n_blocks = 1
    while True:
        if snapshots is not None:
            snapshots.append(Partition.from_block_of(block_of))
        stats.iterations += 1
        # the next labelling numbers each key at its first occurrence, which
        # is also the canonical numbering; a key's first entry is its block.
        # Sweep 1 groups by shape, so later blocks fix their shapes
        ids = {}
        keys = ev.sweep_keys(block_of, shaped=stats.iterations == 1)
        new_block_of = [ids.setdefault(k, len(ids)) for k in keys]
        stats.signatures_computed += n
        if len(ids) == n_blocks:
            break
        keys_per_block = Counter(map(itemgetter(0), ids))
        stats.splits += len(keys_per_block) - [*keys_per_block.values()].count(1)
        block_of = new_block_of
        n_blocks = len(ids)
    looped = time.perf_counter()
    partition = Partition.from_canonical(block_of)  # each sweep numbers canonically
    finished = time.perf_counter()
    stats.wall_time = finished - start
    stats.phases = {
        "coalgebra.evaluator_s": compiled - start,
        "engine.main_loop_s": looped - compiled,
        "engine.canonicalize_s": finished - looped,
    }
    if snapshots is not None:
        snapshots.append(partition)
    return RefineResult(partition, stats)


@_gc_paused()
def refine_hopcroft(
    coalg: Coalgebra,
    weight: str = "card",
    snapshots: Optional[list] = None,
) -> RefineResult:
    """Worklist refinement with clean/dirty bookkeeping and weighted splits.

    Returns the same partition as :func:`refine_naive`, plus the refinement
    tree (weights under ``weight``, heavy children marked) and counters.
    When ``snapshots`` is a list, the leaf partition is appended at every
    main-loop boundary, after the leaf layout's invariants are checked
    (:meth:`RefinablePartition.check`).  The cyclic garbage collector is
    paused for the run, and the caller's setting is restored on return or
    raise.
    """
    if weight not in WEIGHT_KINDS:
        raise ConfigurationError(f"unknown weight kind {weight!r}")
    start = time.perf_counter()
    n = coalg.n_states
    ev = SignatureEvaluator(coalg)
    evaluated = time.perf_counter()
    pidx = build_pred_index(ev)
    compiled = time.perf_counter()
    wvec = _weight_vector(weight, pidx)

    part = RefinablePartition(n)
    elems, pos, leaf_of = part.elems, part.pos, part.leaf_of
    first, mid, end = part.first, part.mid, part.end
    leaf_min = [0]
    card, wget = weight == "card", wvec.__getitem__  # under card a weight is a size

    tree = RefinementTree([0], [sum(wvec)], heavy=[None])  # members filled at the end
    tree_parent, tree_weight, tree_heavy = tree.parent, tree.weight, tree.heavy
    node_of = [0]  # leaf id -> tree node

    queue: deque[int] = deque([0])
    # with snapshots on, every leaf's dirty set is also kept as a set, built
    # from the predecessor index apart from mark_dirty, as the reference the
    # invariant check compares the prefixes with
    dirty_sets = {0: set(range(n))} if snapshots is not None else None
    iterations = splits = signatures = markings = touches = 0

    while queue:
        rho = queue.popleft()
        if dirty_sets is not None:
            part.check(dirty_sets)
            dirty_sets.pop(rho, None)
            snapshots.append(Partition.from_block_of(leaf_of))
        iterations += 1
        lo, hi = first[rho], end[rho]
        if hi - lo == 1:
            mid[rho] = lo
            continue  # a singleton can never split

        # a queued leaf has a dirty state, so there is at least one group
        signatures += mid[rho] - lo
        groups = split_leaf(part, rho, ev)
        # the groups now open the slice and the clean mass is its tail, so
        # the leaf stays whole when one group fills the slice
        if len(groups[0]) == hi - lo:
            continue  # trivial split
        splits += 1
        parent_node = node_of[rho]

        # children as (min, weight, slice start, slice stop) in order of min
        children = []
        at, total = lo, 0
        for g in groups:
            size = len(g)
            gw = size if card else sum(map(wget, g))
            total += gw
            children.append((g[0], gw, at, at + size))
            at += size
        if at < hi:
            clean_min = leaf_min[rho]
            if pos[clean_min] < at:  # the least state left: scan the rest
                clean_min = min(elems[at:hi])
            clean_weight = tree_weight[parent_node] - total
            insort(children, (clean_min, clean_weight, at, hi))  # mins are distinct
        heavy_min = max(children, key=_WEIGHT)[0]  # the first of the heaviest

        # the heavy child inherits rho's leaf id and its part of the slice, so
        # only light children's states get relabelled; a group's slice is
        # already ascending, so sorting a light child's members is linear
        light = []
        for node, (cmin, cw, at, stop) in enumerate(children, len(tree_parent)):
            tree_parent.append(parent_node)
            tree_weight.append(cw)
            tree_heavy.append(None)
            if cmin == heavy_min:
                tree_heavy[parent_node] = node_of[rho] = node
                leaf_min[rho] = cmin
                first[rho] = mid[rho] = at
                end[rho] = stop
                continue
            leaf = len(first)
            first.append(at)
            mid.append(at)
            end.append(stop)
            node_of.append(node)
            leaf_min.append(cmin)
            members = sorted(elems[at:stop])
            for x in members:
                leaf_of[x] = leaf
            light.append(members)

        nm, nt = mark_dirty(light, pidx, part, queue)
        markings += nm
        touches += nt
        if dirty_sets is not None:
            for members in light:
                for y in members:
                    for x in pidx.preds[y]:
                        dirty_sets.setdefault(leaf_of[x], set()).add(x)

    looped = time.perf_counter()
    stats = RunStats(iterations, splits, markings, touches, signatures)
    partition = Partition.from_block_of(leaf_of)
    tree.members = leaves = [None] * len(tree_parent)
    for b in partition.blocks:
        leaves[node_of[leaf_of[b[0]]]] = b
    finished = time.perf_counter()
    stats.wall_time = finished - start
    stats.phases = {
        "coalgebra.evaluator_s": evaluated - start,
        "coalgebra.pred_index_s": compiled - evaluated,
        "engine.main_loop_s": looped - compiled,
        "engine.canonicalize_s": finished - looped,
    }
    if snapshots is not None:
        snapshots.append(partition)
    return RefineResult(partition, stats, tree)
