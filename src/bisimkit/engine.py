"""Partition refinement: the naive fixpoint and the worklist-optimized run.

Both algorithms compute the coarsest partition in which same-block states
have equal one-step signatures.  ``refine_naive`` re-groups every state in
every sweep until nothing splits.  ``refine_hopcroft`` keeps per-leaf
clean/dirty markings: a split recomputes signatures only for dirty states
(plus one clean representative), all children of a split start clean, and
only predecessors of the *non-heavy* children are re-dirtied.  The heavy
child is the one maximizing the selected block weight, which keeps the
total re-dirtying work within the light-children weight budget certified
by :mod:`bisimkit.wtree`.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from .coalgebra import Coalgebra, PredIndex, SignatureEvaluator, build_pred_index
from .values import map_state_refs

__all__ = [
    "WEIGHT_KINDS",
    "ConfigurationError",
    "EngineInvariantError",
    "Partition",
    "RefinementTree",
    "RunStats",
    "RefineResult",
    "split_leaf",
    "mark_dirty",
    "refine_naive",
    "refine_hopcroft",
    "quotient",
]

WEIGHT_KINDS = ("card", "pred", "reach")


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
    def from_block_of(cls, block_of: Sequence[int]) -> "Partition":
        groups: dict = {}
        for x, b in enumerate(block_of):
            groups.setdefault(b, []).append(x)
        return cls.from_blocks(groups.values(), len(block_of))

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]], n_states: int) -> "Partition":
        """Canonical partition of ``blocks``; ascending tuples are kept as given."""
        block_of = [-1] * n_states
        canon = []
        for g in blocks:
            g = tuple(g)
            prev = -1
            ascending = True
            for x in g:
                if not 0 <= x < n_states:
                    raise ValueError(f"state {x} out of range")
                if block_of[x] != -1:
                    raise ValueError(f"state {x} appears in two blocks")
                block_of[x] = 0
                ascending = ascending and prev < x
                prev = x
            if g:
                canon.append(g if ascending else tuple(sorted(g)))
        if any(b == -1 for b in block_of):
            missing = [x for x, b in enumerate(block_of) if b == -1]
            raise ValueError(f"states not covered by any block: {missing[:5]}")
        canon.sort(key=lambda g: g[0])
        for i, g in enumerate(canon):
            for x in g:
                block_of[x] = i
        return cls(tuple(block_of), tuple(canon))

    @property
    def n_states(self) -> int:
        return len(self.block_of)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


@dataclass
class RefinementTree:
    """History of block splits; node 0 is the full state space.

    Arrays indexed by node id: ``parent`` (root points to itself),
    ``weight`` under the run's weight kind, ``heavy`` (node id of the
    heavy child, None at leaves).  ``leaf_members`` maps each leaf node to
    its sorted states, the same tuples as the output partition's blocks;
    an inner node's states are the union of its children's.  Children were
    appended in order of smallest member, so child node ids increase with
    child position and exceed their parent's.
    """

    parent: list[int] = field(default_factory=list)
    weight: list[int] = field(default_factory=list)
    heavy: list[Optional[int]] = field(default_factory=list)
    leaf_members: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def add_node(self, parent: int, weight: int) -> int:
        node = len(self.parent)
        self.parent.append(parent if parent >= 0 else node)
        self.weight.append(weight)
        self.heavy.append(None)
        return node

    @property
    def node_count(self) -> int:
        return len(self.parent)

    def heavy_choice(self) -> dict[int, int]:
        return {v: h for v, h in enumerate(self.heavy) if h is not None}


@dataclass
class RunStats:
    """Counters exposed as part of a refinement result."""

    iterations: int = 0
    splits: int = 0
    dirty_markings: int = 0
    markdirty_touches: int = 0
    signatures_computed: int = 0
    wall_time: float = 0.0


@dataclass
class RefineResult:
    partition: Partition
    stats: RunStats
    tree: Optional[RefinementTree] = None


def _weight_vector(kind: str, pidx: PredIndex) -> list[int]:
    if kind == "card":
        return [1] * len(pidx.preds)
    if kind == "pred":
        return [len(p) for p in pidx.preds]
    if kind == "reach":
        return [1 if p else 0 for p in pidx.preds]
    raise ConfigurationError(f"unknown weight kind {kind!r}")


def split_leaf(
    states: set[int],
    dirty: set[int],
    ev: SignatureEvaluator,
    block_of: Sequence[int],
) -> tuple[list[list[int]], int]:
    """Group a leaf's dirty states by signature against its clean mass.

    ``dirty`` is a nonempty subset of ``states``.  Signatures are computed
    for the dirty states plus one clean representative, if any; the dirty
    states whose signature matches the representative's rejoin the clean
    mass and are dropped.  Returns the remaining groups, ordered by smallest
    member with members ascending, and the number of signatures computed.
    The leaf splits into ``len(groups) + has_clean`` children, so fewer
    than two means the trivial split.
    """
    groups: dict = {}
    for x in sorted(dirty):
        groups.setdefault(ev.signature(x, block_of), []).append(x)
    nsigs = len(dirty)
    if len(dirty) < len(states):
        rep = next(s for s in states if s not in dirty)
        groups.pop(ev.signature(rep, block_of), None)
        nsigs += 1
    return sorted(groups.values(), key=lambda g: g[0]), nsigs


def mark_dirty(
    light: Sequence[Sequence[int]],
    pred_index: PredIndex,
    leaf_of: Sequence[int],
    dirty_sets: Mapping[int, set[int]],
) -> tuple[list[tuple[int, int]], int]:
    """Mark predecessors of the light children's states as dirty.

    ``light`` holds each light child's members, ``leaf_of`` maps a state to
    its current leaf id and ``dirty_sets`` holds each leaf's dirty states
    (mutated in place).  Returns the markings actually performed (a state
    already dirty is not re-marked) and the number of (successor,
    predecessor) pairs visited.
    """
    preds = pred_index.preds
    markings: list[tuple[int, int]] = []
    touches = 0
    for members in light:
        for y in members:
            ps = preds[y]
            touches += len(ps)
            for x in ps:
                leaf = leaf_of[x]
                dset = dirty_sets[leaf]
                if x not in dset:
                    dset.add(x)
                    markings.append((leaf, x))
    return markings, touches


def refine_naive(coalg: Coalgebra, snapshots: Optional[list] = None) -> RefineResult:
    """Fixpoint by global sweeps: re-group all states until no block splits."""
    start = time.perf_counter()
    n = coalg.n_states
    ev = SignatureEvaluator(coalg)
    block_of: list[int] = [0] * n
    n_blocks = 1
    stats = RunStats()
    while True:
        if snapshots is not None:
            snapshots.append(Partition.from_block_of(block_of))
        stats.iterations += 1
        groups: dict = {}
        for x in range(n):
            groups.setdefault((block_of[x], ev.signature(x, block_of)), []).append(x)
        stats.signatures_computed += n
        if len(groups) == n_blocks:
            break
        old_blocks: dict = {}
        new_block_of = [0] * n
        for i, g in enumerate(groups.values()):
            old_blocks.setdefault(block_of[g[0]], []).append(i)
            for x in g:
                new_block_of[x] = i
        stats.splits += sum(1 for parts in old_blocks.values() if len(parts) > 1)
        block_of = new_block_of
        n_blocks = len(groups)
    partition = Partition.from_block_of(block_of)
    stats.wall_time = time.perf_counter() - start
    if snapshots is not None:
        snapshots.append(partition)
    return RefineResult(partition, stats)


def refine_hopcroft(
    coalg: Coalgebra,
    weight: str = "card",
    snapshots: Optional[list] = None,
) -> RefineResult:
    """Worklist refinement with clean/dirty bookkeeping and weighted splits.

    Returns the same partition as :func:`refine_naive`, plus the refinement
    tree (weights under ``weight``, heavy children marked) and counters.
    When ``snapshots`` is a list, the leaf partition is appended at every
    main-loop boundary.
    """
    if weight not in WEIGHT_KINDS:
        raise ConfigurationError(f"unknown weight kind {weight!r}")
    start = time.perf_counter()
    n = coalg.n_states
    ev = SignatureEvaluator(coalg)
    pidx = build_pred_index(ev)
    wvec = _weight_vector(weight, pidx)
    stats = RunStats()

    block_of: list[int] = [0] * n
    leaf_states: dict[int, set[int]] = {0: set(range(n))}
    leaf_min: dict[int, int] = {0: 0}
    dirty: dict[int, set[int]] = {0: set(range(n))}
    next_leaf = 1

    tree = RefinementTree()
    tree.add_node(-1, sum(wvec))
    node_of: dict[int, int] = {0: 0}

    queue: deque[int] = deque([0])
    in_queue: set[int] = {0}

    def snapshot():
        if snapshots is not None:
            snapshots.append(
                Partition.from_blocks(
                    (sorted(s) for s in leaf_states.values()), n
                )
            )

    while queue:
        rho = queue.popleft()
        in_queue.discard(rho)
        drt = dirty[rho]
        snapshot()
        stats.iterations += 1
        dirty[rho] = set()  # the leaf, or each child it splits into, starts clean
        states = leaf_states[rho]
        if len(states) == 1:
            continue  # a singleton can never split

        groups, nsigs = split_leaf(states, drt, ev, block_of)
        stats.signatures_computed += nsigs
        has_clean = len(drt) < len(states)
        if len(groups) + has_clean < 2:
            continue  # trivial split
        stats.splits += 1
        parent_node = node_of[rho]

        # children as (min, weight, members); the clean-mass child (all clean
        # states plus the dirty ones matching the representative) is known
        # only implicitly, members None, until materialized
        children = [(g[0], sum(wvec[x] for x in g), g) for g in groups]
        if has_clean:
            moved = {x for g in groups for x in g}
            implicit_min = leaf_min[rho]
            if implicit_min in moved:
                implicit_min = min(s for s in states if s not in moved)
            implicit_weight = tree.weight[parent_node] - sum(c[1] for c in children)
            children.append((implicit_min, implicit_weight, None))
            children.sort(key=lambda c: c[0])
        heavy_idx = max(range(len(children)), key=lambda i: children[i][1])

        # the heavy child inherits rho's leaf id and what remains of its state
        # set, so only light children's states get relabeled
        light = []
        for i, (cmin, cweight, members) in enumerate(children):
            node = tree.add_node(parent_node, cweight)
            if i == heavy_idx:
                tree.heavy[parent_node] = node
                node_of[rho] = node
                leaf_min[rho] = cmin
                continue
            if members is None:
                members = sorted(s for s in states if s not in moved)
            lid = next_leaf
            next_leaf += 1
            node_of[lid] = node
            for x in members:
                block_of[x] = lid
                states.discard(x)
            leaf_states[lid] = set(members)
            leaf_min[lid] = cmin
            dirty[lid] = set()
            light.append(members)

        markings, touches = mark_dirty(light, pidx, block_of, dirty)
        stats.markdirty_touches += touches
        stats.dirty_markings += len(markings)
        for leaf, _ in markings:
            if leaf not in in_queue:
                in_queue.add(leaf)
                queue.append(leaf)

    tree.leaf_members = {
        node_of[leaf]: tuple(sorted(s)) for leaf, s in leaf_states.items()
    }
    partition = Partition.from_blocks(tree.leaf_members.values(), n)
    stats.wall_time = time.perf_counter() - start
    if snapshots is not None:
        snapshots.append(partition)
    return RefineResult(partition, stats, tree)


def quotient(coalg: Coalgebra, partition: Partition) -> Coalgebra:
    """Collapse each block to one state, rewriting successors to block ids.

    Well-defined only for the engine's output partition, where all members
    of a block share a signature; violations raise EngineInvariantError.
    """
    ev = SignatureEvaluator(coalg)
    for block in partition.blocks:
        sig0 = ev.signature(block[0], partition.block_of)
        for x in block[1:]:
            if ev.signature(x, partition.block_of) != sig0:
                raise EngineInvariantError(
                    f"states {block[0]} and {x} share a block but differ in signature"
                )
    values = []
    for block in partition.blocks:
        rep = coalg.values[block[0]]
        values.append(map_state_refs(rep, lambda s: partition.block_of[s]))
    return Coalgebra.make(coalg.functor, values)
