"""Rooted weighted trees: heavy-child choices, tightening, and bound audits.

This module is the certification toolkit for refinement trees: trees whose
node weights shrink along edges (children sum to at most the parent).  It
checks the classic amortization argument behind Hopcroft-style partition
refinement, culminating in the bound

    sum of light-children weights  <=  w(root)*log2 w(root) - sum over
    nonzero leaves of w(leaf)*log2 w(leaf)

decided in integers by the proof's own chain: tightening the weights to
``w2`` keeps the light sum, which under the tight ``w2`` is the weighted
light-path sum, and each light edge at least halves ``w2`` (Hopcroft,
1971).  So the light sum is at most B, the sum over nonzero leaves ``l``
of ``w2(l) * floor(log2(w(root) / w2(l)))``, and B lies below the bound
above, as ``w2 >= w`` and ``x*log2 x`` grows.  The audit reports B and
decides the theorem as ``light sum <= B``.

A heavy-child choice ``h`` is a per-node list: ``h[v]`` is a child of an
internal node ``v`` and None at a leaf, as a ``RefinementTree`` records
it.  Every function that takes ``h`` rejects anything else
(:func:`_check_heavy`); :func:`audit_tree` and :func:`hopcroft_bound_check`,
which need the theorem's hypotheses, also require each named child to be
of maximal weight.  Weights are natural numbers of at most ``MAX_WEIGHT``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import ge, le, lshift, mul, not_
from typing import NamedTuple, Optional, Sequence

__all__ = [
    "MalformedTreeError",
    "WeightedTree",
    "WeightCheck",
    "BoundCheck",
    "AuditReport",
    "validate_weight",
    "choose_heavy",
    "tighten",
    "light_child_sum",
    "lpath_weighted_leaf_sum",
    "general_edge_sum",
    "lpath_length_bound_check",
    "hopcroft_bound_check",
    "audit_tree",
]


# the largest weight accepted, an input limit: refinement weights count
# states or predecessor pairs, far below it
MAX_WEIGHT = 2**53

# per node, its heavy child, or None at a leaf
HeavyChoice = Sequence[Optional[int]]


class MalformedTreeError(ValueError):
    """Raised for inputs that do not describe a rooted tree."""


class WeightedTree:
    """A rooted finite tree given by a parent array.

    ``parent[i]`` is the parent of node ``i``; the root points to itself.
    Children are ordered by increasing node id, which fixes the positional
    tie-break used by :func:`choose_heavy`.
    """

    __slots__ = ("node_count", "parent", "children", "root", "_order", "_leaves")

    def __init__(self, parent: Sequence[int]):
        n = len(parent)
        if n == 0:
            raise MalformedTreeError("tree must have at least one node")
        root = -1
        children: list[list[int]] = [[] for _ in range(n)]
        for v, p in enumerate(parent):
            if type(p) is not int:
                raise MalformedTreeError(f"parent of node {v} is not an integer: {p!r}")
            if not 0 <= p < n:
                raise MalformedTreeError(f"parent of node {v} out of range: {p}")
            if p == v:
                if root >= 0:
                    raise MalformedTreeError(f"multiple roots: {root} and {v}")
                root = v
            else:
                children[p].append(v)
        if root < 0:
            raise MalformedTreeError("no root (some parent[i] must equal i)")
        # every node has one parent, so the nodes the root does not reach are
        # exactly those whose parent links run into a cycle
        order = [root]
        for v in order:
            order.extend(children[v])
        if len(order) < n:
            raise MalformedTreeError("parent links contain a cycle")
        self.node_count = n
        self.parent = tuple(parent)
        self.children = tuple(map(tuple, children))
        self.root = root
        self._order = tuple(order)
        self._leaves = tuple(compress(range(n), map(not_, children)))

    def leaves(self) -> list[int]:
        """Childless nodes in ascending id."""
        return list(self._leaves)


class WeightCheck(NamedTuple):
    valid: bool
    tight: bool


class BoundCheck(NamedTuple):
    ok: bool
    lhs: int
    bound: int


def _check_weights_shape(tree: WeightedTree, w: Sequence[int]) -> None:
    if len(w) != tree.node_count:
        raise MalformedTreeError(
            f"weight assignment covers {len(w)} nodes, tree has {tree.node_count}"
        )
    for v, x in enumerate(w):
        if type(x) is not int or x < 0:
            raise MalformedTreeError(f"weight of node {v} is not a natural number: {x!r}")
        if x > MAX_WEIGHT:
            raise MalformedTreeError(f"weight of node {v} exceeds 2**53")


def _check_heavy(tree: WeightedTree, h: HeavyChoice) -> None:
    """Raise unless ``h`` is a heavy-child choice of ``tree``, weights aside:
    MalformedTreeError unless it is a list of one None or int node id per
    node, ValueError unless it names one of its own children at every
    internal node and None at every leaf.  Maximal weight is checked apart,
    where the theorem needs it (:func:`_check_maximal`)."""
    n = tree.node_count
    if len(h) != n:
        raise MalformedTreeError(f"heavy choice covers {len(h)} nodes, tree has {n}")
    if not isinstance(h, (list, tuple)):  # a dict would be read by its keys
        raise MalformedTreeError(f"heavy choice is a {type(h).__name__}, not a list")
    for v, u in enumerate(h):
        if u is not None and not (type(u) is int and 0 <= u < n):
            raise MalformedTreeError(f"heavy choice of node {v} is not a node id: {u!r}")
    parent = tree.parent
    for v, (u, ch) in enumerate(zip(h, tree.children)):
        if u is None:
            if ch:
                raise ValueError(f"heavy choice missing for internal node {v}")
        elif u == v or parent[u] != v:
            raise ValueError(f"heavy child {u} is not a child of {v}")


def validate_weight(tree: WeightedTree, w: Sequence[int]) -> WeightCheck:
    """Check the weight law (children sum <= parent) and tightness (equality)."""
    _check_weights_shape(tree, w)
    return _weight_pass(tree, w)[0]


def _weight_pass(tree: WeightedTree, w: Sequence[int]) -> tuple[WeightCheck, list[int], list[int]]:
    """The weight law, and per node its children's weight sum and its
    heaviest child's weight (-1 at a leaf), from one pass over the parent links."""
    sums = [0] * tree.node_count
    tops = [-1] * tree.node_count
    for u, p in enumerate(tree.parent):
        if u != p:
            x = w[u]
            sums[p] += x
            if x > tops[p]:
                tops[p] = x
    # a leaf's children sum to 0, below any natural weight; the internal nodes'
    # slacks add up to the root's weight minus the leaves', so tight means 0
    valid = all(map(le, sums, w))
    tight = valid and w[tree.root] == sum(map(w.__getitem__, tree._leaves))
    return WeightCheck(valid, tight), sums, tops


def choose_heavy(tree: WeightedTree, w: Sequence[int]) -> list[Optional[int]]:
    """Pick, for each internal node, a maximum-weight child; None at leaves.

    Ties go to the smallest child position so runs are reproducible.
    """
    _check_weights_shape(tree, w)
    return _choose_heavy(tree, w)


def _choose_heavy(tree: WeightedTree, w: Sequence[int]) -> list[Optional[int]]:
    # max keeps the first of equal weights, the smallest child position
    return [max(ch, key=w.__getitem__) if ch else None for ch in tree.children]


def _heavy_is_maximal(w: Sequence[int], h: HeavyChoice, tops: Sequence[int]) -> bool:
    """Whether the checked ``h`` names a child of weight ``tops[v]`` at each inner node ``v``."""
    return [-1 if u is None else w[u] for u in h] == tops


def _check_maximal(w: Sequence[int], h: HeavyChoice, tops: Sequence[int]) -> None:
    if not _heavy_is_maximal(w, h, tops):
        raise ValueError("a heavy child is lighter than one of its siblings")


def tighten(tree: WeightedTree, w: Sequence[int], h: HeavyChoice) -> list[int]:
    """Reweight so every internal node's children sum exactly to it.

    Root and light children keep their original weights; each heavy child
    absorbs the slack.  The result dominates ``w`` pointwise and keeps ``h``
    valid as a heavy-child choice.
    """
    _check_weights_shape(tree, w)
    _check_heavy(tree, h)
    return _tighten(tree, w, h, _weight_pass(tree, w)[1])


def _tighten(tree: WeightedTree, w: Sequence[int], h: HeavyChoice, sums: Sequence[int]):
    # the heavy child takes its parent's new weight minus its siblings' weights
    out = list(w)
    for v in tree._order:
        u = h[v]
        if u is not None:
            out[u] = out[v] - sums[v] + w[u]
    return out


# An edge is named by its child: every node but the root is the child of
# exactly one edge, so a set of edges is a set of non-root nodes.


def _heavy_children(h: HeavyChoice) -> set[int]:
    """The edges from each node to its heavy child ``h[v]``, named by child."""
    return {u for u in h if u is not None}


def _path_counts(tree: WeightedTree, kept: set[int]) -> tuple[list[int], list[int]]:
    """Per node, its depth and the edges on its root path whose child is not
    in ``kept``, from one root-first pass; the depth is the count for the
    empty set."""
    depths = [0] * tree.node_count
    counts = [0] * tree.node_count
    parent = tree.parent
    for u in tree._order[1:]:
        p = parent[u]
        depths[u] = depths[p] + 1
        counts[u] = counts[p] + (u not in kept)
    return depths, counts


def _outside_sum(tree: WeightedTree, w: Sequence[int], kept: set[int]) -> int:
    """Child weights summed over the edges outside ``kept`` (non-root nodes)."""
    return sum(w) - w[tree.root] - sum(map(w.__getitem__, kept))


def _leaf_sum(tree: WeightedTree, w: Sequence[int], counts: Sequence[int]) -> int:
    """Sum over leaves of ``counts[leaf]`` * leaf weight."""
    return sum(map(mul, map(counts.__getitem__, tree._leaves), map(w.__getitem__, tree._leaves)))


def light_child_sum(tree: WeightedTree, w: Sequence[int], h: HeavyChoice) -> int:
    """Total weight of all light children, summed over every internal node."""
    _check_weights_shape(tree, w)
    _check_heavy(tree, h)
    return _outside_sum(tree, w, _heavy_children(h))


def lpath_weighted_leaf_sum(tree: WeightedTree, w: Sequence[int], h: HeavyChoice) -> int:
    """Sum over leaves of (light edges on the root path) * leaf weight."""
    _check_weights_shape(tree, w)
    _check_heavy(tree, h)
    return _leaf_sum(tree, w, _path_counts(tree, _heavy_children(h))[1])


def general_edge_sum(
    tree: WeightedTree, w: Sequence[int], s: set[tuple[int, int]]
) -> tuple[int, int]:
    """Both sides of the edge-exclusion inequality for an edge set ``s``.

    Returns ``(lhs, rhs)`` where lhs sums child weights over edges outside
    ``s`` and rhs sums, per leaf, the number of root-path edges outside ``s``
    times the leaf weight.  The contract is lhs >= rhs, with equality for
    tight weights.
    """
    _check_weights_shape(tree, w)
    kept = set()
    for p, c in s:
        if not (0 <= c < tree.node_count and c != p and tree.parent[c] == p):
            raise MalformedTreeError(f"edge {(p, c)} not in tree")
        kept.add(c)
    return _outside_sum(tree, w, kept), _leaf_sum(tree, w, _path_counts(tree, kept)[1])


def lpath_length_bound_check(tree: WeightedTree, w: Sequence[int], h: HeavyChoice) -> bool:
    """Check 2^(light edges to v) * w(v) <= w(root) for every nonzero-weight v.

    Equivalent to the log form  |lpath(r,v)| <= log2 w(r) - log2 w(v),
    but decided exactly in integers.
    """
    _check_weights_shape(tree, w)
    _check_heavy(tree, h)
    return _lpath_lengths_ok(tree, w, _path_counts(tree, _heavy_children(h))[1])


def _lpath_lengths_ok(tree: WeightedTree, w: Sequence[int], depths: Sequence[int]) -> bool:
    # a zero weight shifts to 0, which no root weight is below
    return all(map(le, map(lshift, w, depths), repeat(w[tree.root])))


def _halving_bound(tree: WeightedTree, w2: Sequence[int]) -> int:
    """B for the tight weights ``w2``: over the nonzero leaves ``l``, ``w2(l)``
    times the most light edges that, each at least halving the weight, fit
    between the root and ``l``, floor(log2(w2(root) / w2(l)))."""
    wr = w2[tree.root]
    leaf_ws = filter(None, map(w2.__getitem__, tree._leaves))
    return sum(x * ((wr // x).bit_length() - 1) for x in leaf_ws)


def hopcroft_bound_check(tree: WeightedTree, w: Sequence[int], h: HeavyChoice) -> BoundCheck:
    """Verify the light-children weight bound for a weighted tree with hcc ``h``.

    The theorem's hypotheses are required: a ValueError unless ``w`` keeps
    the weight law and ``h`` names a child of maximal weight at every
    internal node.  The light sum must not exceed ``bound``, the integer B
    of :func:`audit_tree`, which lies below the paper's
    ``w(r)*log2 w(r) - sum(w(l)*log2 w(l))`` over nonzero-weight leaves.
    """
    _check_weights_shape(tree, w)
    _check_heavy(tree, h)
    (valid, _), sums, tops = _weight_pass(tree, w)
    if not valid:
        raise ValueError("weight law violated: a node's children outweigh it")
    _check_maximal(w, h, tops)
    lhs = _outside_sum(tree, w, _heavy_children(h))
    bound = _halving_bound(tree, _tighten(tree, w, h, sums))
    return BoundCheck(lhs <= bound, lhs, bound)


@dataclass
class AuditReport:
    """Outcome of every structural and bound check on one weighted tree."""

    valid: bool
    tight: bool
    lemma1_ok: bool = False  # edge-exclusion sums for S in {none, heavy, all}
    lemma2_ok: bool = False  # light sum vs weighted light-path sum
    lemma3_ok: bool = False  # tightening properties
    lemma4_ok: bool = False  # per-node light-path length bound
    theorem1_ok: bool = False  # the headline weight bound
    light_sum: int = 0
    lpath_sum: int = 0
    bound: int = 0  # B, the integer bound on the light sum

    @property
    def margin(self) -> int:
        """How far the light sum stays below the bound: bound minus light sum."""
        return self.bound - self.light_sum

    @property
    def bound_float(self) -> float:
        # read by perfbench's tracer; goes when it reads ``bound`` (ROADMAP item 8)
        return float(self.bound)

    def all_ok(self) -> bool:
        return (
            self.valid
            and self.lemma1_ok
            and self.lemma2_ok
            and self.lemma3_ok
            and self.lemma4_ok
            and self.theorem1_ok
        )


def audit_tree(
    tree: WeightedTree, w: Sequence[int], heavy: Optional[HeavyChoice] = None
) -> AuditReport:
    """Run every check on a weighted tree and aggregate the outcomes.

    ``heavy`` may supply an externally recorded heavy-child choice (e.g. the
    one a refinement run actually made); one that names a child lighter than
    a sibling is a ValueError.  If the weight law fails, all remaining checks
    are skipped.
    """
    _check_weights_shape(tree, w)
    if heavy is not None:
        _check_heavy(tree, heavy)
    (valid, tight), child_sums, tops = _weight_pass(tree, w)
    if not valid:
        return AuditReport(valid=False, tight=False)
    h = _choose_heavy(tree, w) if heavy is None else heavy
    _check_maximal(w, h, tops)

    # lemma 1 for the edge sets none, heavy and all: path counts depend on
    # the tree and the edge set only, not on weights; with no edge kept they
    # are the depths, and with every edge kept no edge lies outside, so both
    # sides are 0
    heavy_set = _heavy_children(h)
    depths, light_depths = _path_counts(tree, heavy_set)
    light_sum = _outside_sum(tree, w, heavy_set)
    lpath_sum = _leaf_sum(tree, w, light_depths)
    sums = ((_outside_sum(tree, w, set()), _leaf_sum(tree, w, depths)),
            (light_sum, lpath_sum), (0, 0))
    lemma1_ok = all(lhs >= rhs and (not tight or lhs == rhs) for lhs, rhs in sums)
    lemma2_ok = light_sum >= lpath_sum and (not tight or light_sum == lpath_sum)

    w2 = _tighten(tree, w, h, child_sums)
    law2, _, tops2 = _weight_pass(tree, w2)
    # after tightening, the inequality closes to an equality
    lemma3_ok = (
        law2 == WeightCheck(True, True)
        and w2[tree.root] == w[tree.root]
        and all(map(ge, w2, w))
        and _heavy_is_maximal(w2, h, tops2)
        and _outside_sum(tree, w2, heavy_set) == _leaf_sum(tree, w2, light_depths)
    )

    lemma4_ok = _lpath_lengths_ok(tree, w, light_depths)

    # the light sum is w2's (lemma 3), its light-path sum (lemma 2), at most B (lemma 4)
    bound = _halving_bound(tree, w2)

    return AuditReport(
        valid=True,
        tight=tight,
        lemma1_ok=lemma1_ok,
        lemma2_ok=lemma2_ok,
        lemma3_ok=lemma3_ok,
        lemma4_ok=lemma4_ok,
        theorem1_ok=light_sum <= bound,
        light_sum=light_sum,
        lpath_sum=lpath_sum,
        bound=bound,
    )
