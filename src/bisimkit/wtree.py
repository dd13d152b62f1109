"""Rooted weighted trees: heavy-child choices, tightening, and bound audits.

This module is the certification toolkit for refinement trees: trees whose
node weights shrink along edges (children sum to at most the parent).  It
checks the classic amortization argument behind Hopcroft-style partition
refinement, culminating in the bound

    sum of light-children weights  <=  w(root)*log2 w(root) - sum over
    nonzero leaves of w(leaf)*log2 w(leaf)

which is decided exactly, never by floating point alone: the float bound
decides when it clears a rigorous error margin, and a near-tie goes to an
equality test on exponents over a coprime base, then to decimal logarithms
at doubling precision.  A near-tie reports the bound from that exact
path, since the float sum can cancel there.

A heavy-child choice ``h`` is a per-node list: ``h[v]`` is a child of an
internal node ``v`` and None at a leaf, as a ``RefinementTree`` records
it.  Every function that takes ``h`` rejects anything else
(:func:`_check_heavy`); only :func:`audit_tree` also requires each named
child to be of maximal weight.  Weights are natural numbers of at most
``MAX_WEIGHT``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal, localcontext
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


# the largest weight accepted: refinement weights count states or
# predecessor pairs, far below it, and every weight up to it converts to a
# float exactly, so the bound check's float screen cannot overflow
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
    bound_float: float


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
    internal node and None at every leaf."""
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


# -- exact decision for  2^lhs * prod w^w <= root^root ------------------------


def _coprime_base(nums) -> list[int]:
    """Pairwise coprime integers above 1 of which every number in ``nums`` is
    a product.  A number ``y`` first loses every power of a base element
    ``b`` dividing it; if ``g = gcd(b, y) > 1`` remains, ``b`` and ``y`` give
    way to ``g``, ``b / g`` and ``y / g``.  Each step shrinks the product of
    everything pending, so it ends."""
    base, todo = [], list(nums)
    while todo:
        y = todo.pop()
        for i, b in enumerate(base):
            while y % b == 0:
                y //= b
            g = math.gcd(b, y)
            if g > 1:
                del base[i]
                todo += (g, b // g, y // g)
                break
        else:
            if y > 1:
                base.append(y)
    return base


def _valuation(n: int, b: int) -> int:
    e = 0
    while n % b == 0:
        n //= b
        e += 1
    return e


def _products_equal(lhs: int, leaf_weights: Sequence[int], root_w: int) -> bool:
    """Whether 2^lhs * prod w^w == root^root, by exponents over a coprime base.

    A number with a prime that does not divide the root weight makes the
    products unequal.  The others factor over a coprime base of themselves
    and the root weight, whose primes are the root weight's, so it has at
    most 13 elements below 2**53; products of powers of pairwise coprime
    numbers are equal exactly when their exponents are (Bernstein,
    "Factoring into coprimes in essentially linear time", 2005).
    """
    exps = Counter({2: lhs})
    for x, c in Counter(leaf_weights).items():
        exps[x] += c * x
    exps[root_w] -= root_w
    # net exponent per number, left side minus right side; 1 weighs nothing
    nums = {x: e for x, e in exps.items() if e and x > 1}
    for x in nums:
        g = math.gcd(x, root_w)
        while g > 1:
            x //= g
            g = math.gcd(x, g)
        if x > 1:
            return False
    base = _coprime_base(nums)
    return all(sum(e * _valuation(x, b) for x, e in nums.items()) == 0 for b in base)


def _product_log_le(
    lhs: int, leaf_weights: Sequence[int], root_w: int, bound_float: float
) -> tuple[bool, float]:
    """Exact verdict of  2^lhs * prod_{w in leaf_weights} w^w  <=  root_w^root_w,
    and the bound to report with it.

    ``leaf_weights`` must contain only nonzero entries of at most
    ``MAX_WEIGHT``, and ``bound_float`` must be the float bound
    ``_hopcroft_bound`` computes for them.  Its difference to ``lhs`` decides
    when it clears a rigorous margin.  With u = 2**-53, k leaf weights, pos
    the root's term and S the leaf terms' sum, each term is within 3u of its
    true value relatively (the C library's log2 within one ulp, one product
    rounding), the sum of k terms adds at most (k - 1)u S, and the two
    subtractions and the conversion of ``lhs`` at most u each of their
    magnitudes.  So the difference errs by less than (k + 5)u (pos + S + lhs)
    to first order, and 2 pos - ``bound_float`` + lhs is pos + S + lhs to
    within that relative error; the margin, (k + 4) 2**-50 (2 pos -
    ``bound_float`` + lhs), is more than six times it.  Then ``bound_float``
    is reported.  A near-tie goes to :func:`_products_equal`, whose equal
    products report ``lhs`` itself, then to :func:`_decimal_log_le`, whose
    logarithms report the bound: the float sum can cancel there.
    """
    if root_w == 0:
        # weight law forces every weight to 0, so no nonzero leaves survive
        return lhs == 0 and not leaf_weights, bound_float
    pos = root_w * math.log2(root_w)
    d = bound_float - lhs
    if abs(d) > (len(leaf_weights) + 4) * (2 * pos - bound_float + lhs) * 2.0**-50:
        return d > 0, bound_float
    if _products_equal(lhs, leaf_weights, root_w):
        return True, float(lhs)
    return _decimal_log_le(lhs, leaf_weights, root_w)


def _decimal_log_le(
    lhs: int, leaf_weights: Sequence[int], root_w: int, prec: int = 40
) -> tuple[bool, float]:
    """``_product_log_le`` for unequal products, by natural logarithms in
    ``decimal``.  ``ln``, products and sums round correctly to ``prec`` digits,
    each within half a unit in the last digit, and at most k + 4 roundings
    (k distinct leaf weights) reach the difference, so it lies within ``err``
    of the true one; that is not 0, so doubling the precision ends.  The
    bound reported is ``lhs`` plus the difference in bits."""
    counts = Counter(leaf_weights)
    with localcontext() as ctx:
        ctx.prec = prec
        ln2 = Decimal(2).ln()
        pos = root_w * Decimal(root_w).ln()
        neg = lhs * ln2 + sum(c * x * Decimal(x).ln() for x, c in counts.items())
        d, err = pos - neg, (len(counts) + 4) * (pos + neg) * Decimal(10) ** (1 - prec)
        if abs(d) > err:
            return d > 0, float(lhs + d / ln2)
    return _decimal_log_le(lhs, leaf_weights, root_w, 2 * prec)


def hopcroft_bound_check(tree: WeightedTree, w: Sequence[int], h: HeavyChoice) -> BoundCheck:
    """Verify the light-children weight bound for a weighted tree with hcc ``h``.

    The sum of light-children weights must not exceed
    ``w(r)*log2 w(r) - sum(w(l)*log2 w(l))`` over nonzero-weight leaves.
    The verdict is exact (see :func:`_product_log_le`); ``bound_float``, the
    bound reported with it, is the float sum unless that lies too near the
    light sum to decide, and is then taken from the exact path.
    """
    return _hopcroft_bound(tree, w, light_child_sum(tree, w, h))


def _hopcroft_bound(tree: WeightedTree, w: Sequence[int], lhs: int) -> BoundCheck:
    leaf_ws = list(filter(None, map(w.__getitem__, tree._leaves)))
    wr = w[tree.root]
    bound_float = 0.0
    if wr > 0:
        bound_float = wr * math.log2(wr) - sum(map(mul, leaf_ws, map(math.log2, leaf_ws)))
    ok, bound = _product_log_le(lhs, leaf_ws, wr, bound_float)
    return BoundCheck(ok, lhs, bound)


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
    bound_float: float = 0.0

    @property
    def margin(self) -> float:
        """How far the light sum stays below the bound: bound minus light sum.

        ``bound_float`` comes from the exact path on a near-tie, so the
        margin does not inherit the float sum's cancellation."""
        return self.bound_float - self.light_sum

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
    if not _heavy_is_maximal(w, h, tops):
        raise ValueError("a heavy child is lighter than one of its siblings")

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

    theorem1_ok, _, bound_float = _hopcroft_bound(tree, w, light_sum)

    return AuditReport(
        valid=True,
        tight=tight,
        lemma1_ok=lemma1_ok,
        lemma2_ok=lemma2_ok,
        lemma3_ok=lemma3_ok,
        lemma4_ok=lemma4_ok,
        theorem1_ok=theorem1_ok,
        light_sum=light_sum,
        lpath_sum=lpath_sum,
        bound_float=bound_float,
    )
