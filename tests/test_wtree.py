"""Weighted-tree checks against hand-verified micro examples and brute force."""

import ast
import dataclasses
import inspect
import math
import random
import time
from decimal import Decimal, localcontext

import pytest
from test_pinned_outputs import INSTANCES, SEEDS
from util import random_weighted_tree, ref_product_log_le, reference_audit

from bisimkit import wtree
from bisimkit.engine import WEIGHT_KINDS, refine_hopcroft
from bisimkit.wtree import (
    AuditReport,
    MalformedTreeError,
    WeightedTree,
    audit_tree,
    choose_heavy,
    general_edge_sum,
    hopcroft_bound_check,
    light_child_sum,
    lpath_length_bound_check,
    lpath_weighted_leaf_sum,
    tighten,
    validate_weight,
)

# The running 12-node example: root with three subtrees, drawn twice with
# different weights (the second is the tightening of the first).
# Node ids: 0=root, 1..3 its children, 4..5 under 1, 6..8 under 2,
# 9 under 3, 10..11 under 9.
EX_PARENT = [0, 0, 0, 0, 1, 1, 2, 2, 2, 3, 9, 9]
EX_W_LOOSE = [36, 14, 14, 7, 5, 7, 5, 2, 3, 7, 2, 4]
EX_W_TIGHT = [36, 15, 14, 7, 5, 10, 9, 2, 3, 7, 2, 5]
# the heavy choice per node, None at the leaves
EX_HCC = [1, 5, 6, 9, None, None, None, None, None, 11, None, None]


def example_tree() -> WeightedTree:
    return WeightedTree(EX_PARENT)


# -- independent brute-force oracles ------------------------------------------


def brute_light_child_sum(tree, w, h):
    total = 0
    for v in range(tree.node_count):
        for u in tree.children[v]:
            if h[v] != u:
                total += w[u]
    return total


def brute_path_edges(tree, v):
    """Edges on the root-to-v path, walked via parent links."""
    edges = []
    while tree.parent[v] != v:
        edges.append((tree.parent[v], v))
        v = tree.parent[v]
    return edges


def brute_lpath_leaf_sum(tree, w, h):
    total = 0
    for l in tree.leaves():
        light = sum(1 for (p, c) in brute_path_edges(tree, l) if h[p] != c)
        total += light * w[l]
    return total


def brute_general_edge_sum(tree, w, s):
    lhs = sum(
        w[u]
        for v in range(tree.node_count)
        for u in tree.children[v]
        if (v, u) not in s
    )
    rhs = sum(
        len([e for e in brute_path_edges(tree, l) if e not in s]) * w[l]
        for l in tree.leaves()
    )
    return lhs, rhs


# -- construction --------------------------------------------------------------


def test_tree_construction_rejects_garbage():
    with pytest.raises(MalformedTreeError):
        WeightedTree([])
    with pytest.raises(MalformedTreeError):
        WeightedTree([1, 0])  # two-node cycle, no root
    with pytest.raises(MalformedTreeError):
        WeightedTree([0, 1])  # two roots
    with pytest.raises(MalformedTreeError):
        WeightedTree([0, 5])  # parent out of range
    with pytest.raises(MalformedTreeError, match="cycle"):
        WeightedTree([0, 2, 1])  # a root plus a two-node cycle
    for bad in ("z", 1.5, None, True):
        with pytest.raises(MalformedTreeError, match="not an integer"):
            WeightedTree([0, 0, bad])


def test_tree_children_ordered_by_id():
    t = example_tree()
    assert t.root == 0
    assert t.children[0] == (1, 2, 3)
    assert t.children[9] == (10, 11)
    assert sorted(t.leaves()) == [4, 5, 6, 7, 8, 10, 11]


# -- validate_weight -----------------------------------------------------------


def test_validate_weight_example_loose():
    assert validate_weight(example_tree(), EX_W_LOOSE) == (True, False)


def test_validate_weight_example_tight():
    assert validate_weight(example_tree(), EX_W_TIGHT) == (True, True)


def test_validate_weight_single_node_zero():
    t = WeightedTree([0])
    assert validate_weight(t, [0]) == (True, True)


def test_validate_weight_rejects_overfull_node():
    t = WeightedTree([0, 0, 0])
    assert validate_weight(t, [3, 2, 2]).valid is False


def test_validate_weight_wrong_size():
    with pytest.raises(MalformedTreeError):
        validate_weight(example_tree(), [1, 2, 3])


# -- choose_heavy --------------------------------------------------------------


def test_choose_heavy_example_matches_drawn_choice():
    # root's two weight-14 children tie; the first position wins
    assert choose_heavy(example_tree(), EX_W_LOOSE) == EX_HCC


def test_choose_heavy_star_tie_breaks_to_first():
    t = WeightedTree([0, 0, 0, 0])
    assert choose_heavy(t, [9, 3, 3, 3]) == [1, None, None, None]


def test_choose_heavy_path_every_edge_heavy():
    t = WeightedTree([0, 0, 1, 2])
    h = choose_heavy(t, [5, 4, 2, 1])
    assert h == [1, 2, 3, None]


# -- tighten -------------------------------------------------------------------


def test_tighten_example_reproduces_tight_tree():
    assert tighten(example_tree(), EX_W_LOOSE, EX_HCC) == EX_W_TIGHT


def test_tighten_fixes_already_tight_input():
    assert tighten(example_tree(), EX_W_TIGHT, EX_HCC) == EX_W_TIGHT


def test_tighten_single_node():
    t = WeightedTree([0])
    assert tighten(t, [7], [None]) == [7]


def test_tighten_is_idempotent_and_dominates(seed=7):
    rng = random.Random(seed)
    for _ in range(200):
        tree, w = random_weighted_tree(rng, max_nodes=40, max_root_weight=1000)
        h = choose_heavy(tree, w)
        w2 = tighten(tree, w, h)
        assert validate_weight(tree, w2) == (True, True)
        assert w2[tree.root] == w[tree.root]
        assert all(a <= b for a, b in zip(w, w2))
        assert tighten(tree, w2, h) == w2
        # the same choice is still heavy for the new weights
        for v, hv in enumerate(h):
            if hv is not None:
                assert w2[hv] == max(w2[u] for u in tree.children[v])


# -- sums ----------------------------------------------------------------------


def test_light_child_sum_tight_example():
    assert light_child_sum(example_tree(), EX_W_TIGHT, EX_HCC) == 33


def test_light_child_sum_loose_example():
    t = example_tree()
    expected = brute_light_child_sum(t, EX_W_LOOSE, EX_HCC)
    assert expected == 33
    assert light_child_sum(t, EX_W_LOOSE, EX_HCC) == 33


def test_light_child_sum_path_graph_is_zero():
    t = WeightedTree([0, 0, 1, 2])
    h = choose_heavy(t, [5, 4, 2, 1])
    assert light_child_sum(t, [5, 4, 2, 1], h) == 0


def test_lpath_weighted_leaf_sum_tight_example():
    assert lpath_weighted_leaf_sum(example_tree(), EX_W_TIGHT, EX_HCC) == 33


def test_lpath_weighted_leaf_sum_loose_example():
    t = example_tree()
    expected = brute_lpath_leaf_sum(t, EX_W_LOOSE, EX_HCC)
    assert expected == 28
    assert lpath_weighted_leaf_sum(t, EX_W_LOOSE, EX_HCC) == 28


def test_lpath_weighted_leaf_sum_path_graph_zero():
    t = WeightedTree([0, 0, 1, 2])
    h = choose_heavy(t, [9, 9, 9, 9])
    assert lpath_weighted_leaf_sum(t, [9, 9, 9, 9], h) == 0


def brute_lpath_length_bound(tree, w, h):
    for v in range(tree.node_count):
        light = sum(1 for (p, c) in brute_path_edges(tree, v) if h[p] != c)
        if w[v] != 0 and w[v] * 2**light > w[tree.root]:
            return False
    return True


def test_sums_match_brute_force_on_random_trees(seed=17):
    rng = random.Random(seed)
    for _ in range(300):
        tree, w = random_weighted_tree(rng, max_nodes=40, max_root_weight=1000)
        # a true heavy choice and an arbitrary one, which need not be heavy
        for h in (
            choose_heavy(tree, w),
            [rng.choice(ch) if ch else None for ch in tree.children],
        ):
            assert light_child_sum(tree, w, h) == brute_light_child_sum(tree, w, h)
            assert lpath_weighted_leaf_sum(tree, w, h) == brute_lpath_leaf_sum(tree, w, h)
            assert lpath_length_bound_check(tree, w, h) == brute_lpath_length_bound(tree, w, h)


# -- general_edge_sum ----------------------------------------------------------


def test_general_edge_sum_all_edges_gives_zero():
    t = example_tree()
    all_edges = {(p, c) for p, ch in enumerate(t.children) for c in ch}
    assert general_edge_sum(t, EX_W_TIGHT, all_edges) == (0, 0)


def test_general_edge_sum_heavy_edges_specializes_to_light_sums():
    t = example_tree()
    heavy_edges = {(v, u) for v, u in enumerate(EX_HCC) if u is not None}
    assert general_edge_sum(t, EX_W_TIGHT, heavy_edges) == (33, 33)


def test_general_edge_sum_empty_set_tight_example():
    # brute force over the 12-node tree: both sides total 79
    t = example_tree()
    expected = brute_general_edge_sum(t, EX_W_TIGHT, set())
    assert expected == (79, 79)
    assert general_edge_sum(t, EX_W_TIGHT, set()) == (79, 79)


def test_general_edge_sum_rejects_foreign_edge():
    with pytest.raises(MalformedTreeError):
        general_edge_sum(example_tree(), EX_W_TIGHT, {(4, 0)})


def test_general_edge_sum_random_sets_obey_contract(seed=11):
    rng = random.Random(seed)
    for _ in range(150):
        tree, w = random_weighted_tree(rng, max_nodes=30, max_root_weight=500)
        edges = [(p, c) for p, ch in enumerate(tree.children) for c in ch]
        s = {e for e in edges if rng.random() < 0.4}
        lhs, rhs = general_edge_sum(tree, w, s)
        assert (lhs, rhs) == brute_general_edge_sum(tree, w, s)
        assert lhs >= rhs
        if validate_weight(tree, w).tight:
            assert lhs == rhs
        h = choose_heavy(tree, w)
        w2 = tighten(tree, w, h)
        lhs2, rhs2 = general_edge_sum(tree, w2, s)
        assert lhs2 == rhs2


# -- lpath_length_bound_check --------------------------------------------------


def test_lpath_bound_on_tight_example():
    assert lpath_length_bound_check(example_tree(), EX_W_TIGHT, EX_HCC) is True
    # spot check: node 7 has weight 2 and two light edges on its path
    assert (2 << 2) <= 36


def test_lpath_bound_root_reflexive():
    t = WeightedTree([0])
    assert lpath_length_bound_check(t, [5], [None]) is True


def test_lpath_bound_detects_non_hcc_input():
    # a "light" child heavier than half the parent: only possible if the
    # given choice is not a real hcc, and the check must catch it
    t = WeightedTree([0, 0, 0])
    w = [10, 3, 7]
    bogus = [1, None, None]  # true heavy child is node 2
    assert lpath_length_bound_check(t, w, bogus) is False


# -- hopcroft_bound_check ------------------------------------------------------


def test_bound_check_tight_example():
    ok, lhs, bound = hopcroft_bound_check(example_tree(), EX_W_TIGHT, EX_HCC)
    assert ok is True
    assert lhs == 33
    # per leaf, its weight times floor(log2(36 / weight))
    leaves = (5, 10, 9, 2, 3, 2, 5)
    assert bound == sum(x * math.floor(math.log2(36 / x)) for x in leaves) == 73
    # below the paper's bound, 92.39
    assert bound < 36 * math.log2(36) - sum(x * math.log2(x) for x in leaves)


def test_bound_check_single_node():
    t = WeightedTree([0])
    ok, lhs, bound = hopcroft_bound_check(t, [17], [None])
    assert ok is True and lhs == 0 and bound == 0


def test_bound_check_all_zero_weights():
    t = WeightedTree([0, 0, 0])
    ok, lhs, bound = hopcroft_bound_check(t, [0, 0, 0], [1, None, None])
    assert ok is True and lhs == 0 and bound == 0


def test_bound_check_exact_vs_direct_bignum(seed=3):
    # small instances where the naive bignum comparison is affordable
    rng = random.Random(seed)
    for _ in range(100):
        tree, w = random_weighted_tree(rng, max_nodes=25, max_root_weight=60)
        h = choose_heavy(tree, w)
        ok, lhs, _ = hopcroft_bound_check(tree, w, h)
        a = 1 << lhs
        for l in tree.leaves():
            if w[l]:
                a *= w[l] ** w[l]
        b = w[tree.root] ** w[tree.root]
        assert ok == (a <= b)
        assert ok is True  # guaranteed for valid weight + hcc


def test_bound_check_large_weights_fast():
    rng = random.Random(5)
    for _ in range(50):
        tree, w = random_weighted_tree(rng, max_nodes=200, max_root_weight=10**6)
        h = choose_heavy(tree, w)
        assert hopcroft_bound_check(tree, w, h).ok is True


def bound_chain_holds(tree, w, h):
    """light sum <= B <= the paper's bound, the last decided by the reference."""
    ok, lhs, bound = hopcroft_bound_check(tree, w, h)
    leaf_ws = [w[l] for l in tree.leaves() if w[l]]
    return ok is True and lhs <= bound and ref_product_log_le(bound, leaf_ws, w[tree.root])


def test_integer_bound_lies_between_light_sum_and_paper_bound_on_random_trees(seed=31):
    rng = random.Random(seed)
    for _ in range(300):
        tree, w = random_weighted_tree(rng, max_nodes=60, max_root_weight=1000)
        assert bound_chain_holds(tree, w, choose_heavy(tree, w)), (tree.parent, w)


@pytest.mark.parametrize("family", sorted(INSTANCES))
def test_integer_bound_lies_between_light_sum_and_paper_bound_on_pinned_trees(family):
    for weight in WEIGHT_KINDS:
        for seed in SEEDS:
            t = refine_hopcroft(INSTANCES[family](seed), weight).tree
            assert bound_chain_holds(WeightedTree(t.parent), t.weight, t.heavy), (weight, seed)


def test_bound_check_requires_the_theorems_hypotheses():
    # an overfull node and a lighter heavy child are not the theorem's
    # hypotheses: a plain ValueError, as a heavy choice that is no choice
    t = WeightedTree([0, 0, 0])
    for w, h, match in (([3, 2, 2], [1, None, None], "weight law"),
                        ([10, 3, 7], [1, None, None], "lighter")):
        with pytest.raises(ValueError, match=match) as e:
            hopcroft_bound_check(t, w, h)
        assert type(e.value) is ValueError


def test_wtree_imports_neither_decimal_nor_fractions():
    # the audit decides in integers only
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(wtree))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.split(".")[0])
    assert "dataclasses" in imported
    assert not imported & {"decimal", "fractions"}


# -- audit ---------------------------------------------------------------------


def test_audit_loose_example():
    rep = audit_tree(example_tree(), EX_W_LOOSE)
    assert rep.valid is True and rep.tight is False
    assert rep.light_sum == 33 and rep.lpath_sum == 28
    assert rep.light_sum > rep.lpath_sum  # inequality strict here
    assert rep.all_ok()


def test_audit_tight_example():
    rep = audit_tree(example_tree(), EX_W_TIGHT)
    assert rep.valid is True and rep.tight is True
    assert rep.light_sum == 33 and rep.lpath_sum == 33
    assert rep.all_ok()


def test_audit_invalid_weight_skips_rest():
    t = WeightedTree([0, 0, 0])
    rep = audit_tree(t, [3, 2, 2])
    assert rep == AuditReport(valid=False, tight=False)


def test_audit_accepts_recorded_heavy_choice():
    rep = audit_tree(example_tree(), EX_W_LOOSE, heavy=EX_HCC)
    assert rep.all_ok()


def test_audit_rejects_invalid_recorded_choice():
    with pytest.raises(ValueError):  # node 1 names its lighter child 4
        audit_tree(example_tree(), EX_W_LOOSE, heavy=EX_HCC[:1] + [4] + EX_HCC[2:])


def test_heavy_choice_of_wrong_length_is_malformed():
    # a choice that covers too few or too many nodes, and one keyed by node
    # as a dict, are all rejected before any sum is taken
    t = example_tree()
    for bad in (EX_HCC[:-1], EX_HCC + [None], {0: 1, 1: 5, 2: 6, 3: 9, 9: 11}):
        with pytest.raises(MalformedTreeError, match="heavy choice covers"):
            audit_tree(t, EX_W_TIGHT, bad)
        for check in (tighten, light_child_sum, lpath_weighted_leaf_sum,
                      lpath_length_bound_check, hopcroft_bound_check):
            with pytest.raises(MalformedTreeError, match="heavy choice covers"):
                check(t, EX_W_TIGHT, bad)


def test_audit_rejects_choice_naming_non_nodes():
    # a choice keyed by node ids outside the tree cannot pass as valid
    with pytest.raises(MalformedTreeError):
        audit_tree(WeightedTree([0, 0, 0]), [3, 2, 1], {0: 1, 7: 2})
    with pytest.raises(MalformedTreeError):
        audit_tree(WeightedTree([0, 0, 0]), [3, 2, 1], [1, None, None, 2])
    assert audit_tree(WeightedTree([0, 0, 0]), [3, 2, 1], [1, None, None]).all_ok()
    # keys that read as the choice [1, 2, None] do not make a dict one
    for check in (tighten, light_child_sum, lpath_weighted_leaf_sum,
                  lpath_length_bound_check, hopcroft_bound_check, audit_tree):
        with pytest.raises(MalformedTreeError, match="not a list"):
            check(WeightedTree([0, 0, 1]), [3, 2, 1], {1: 0, 2: 1, None: 2})


def test_heavy_choice_entries_must_be_node_ids():
    # None at a leaf, an int node id elsewhere: a string would reach a
    # TypeError and True would pass as node 1
    t = WeightedTree([0, 0, 0])
    for bad in ("x", True, 1.0):
        with pytest.raises(MalformedTreeError, match="not a node id"):
            audit_tree(t, [2, 1, 1], [bad, None, None])
        for check in (tighten, light_child_sum, hopcroft_bound_check):
            with pytest.raises(MalformedTreeError, match="not a node id"):
                check(t, [2, 1, 1], [bad, None, None])
    assert audit_tree(t, [2, 1, 1], [1, None, None]).all_ok()


@pytest.mark.parametrize("check", [tighten, light_child_sum, lpath_weighted_leaf_sum,
                                   lpath_length_bound_check, hopcroft_bound_check, audit_tree])
@pytest.mark.parametrize("h, error", [
    ([-1, None, None], MalformedTreeError),
    ([99, None, None], MalformedTreeError),
    ([1, None, 2], ValueError),  # leaf 2 names itself
    ([None, None, None], ValueError),  # the root names no child
    ([1, 0, None], ValueError),  # leaf 1 names its parent
], ids=["negative", "past-the-end", "leaf-names-itself", "inner-none", "leaf-names-parent"])
def test_every_entry_point_rejects_a_non_choice(check, h, error):
    # a non-choice is never read as one: not by index wrap-around, not as a
    # lemma's verdict, not as an IndexError
    with pytest.raises(ValueError, match="heavy") as e:
        check(WeightedTree([0, 0, 0]), [2, 1, 1], h)
    assert type(e.value) is error


def test_margin_near_a_cancelling_float_bound_is_an_exact_integer():
    # the paper's bound sums to 0.0 in floats near 2**53, and is 54.44 in
    # 60-digit decimal; B takes 52 from the leaf of weight 1 alone
    t = WeightedTree([0, 0, 0])
    r, l = 9007199254738994, 9007199254738993
    assert r * math.log2(r) - l * math.log2(l) == 0.0
    with localcontext() as ctx:
        ctx.prec = 60
        true = float((r * Decimal(r).ln() - l * Decimal(l).ln()) / Decimal(2).ln())
    report = audit_tree(t, [r, l, 1])
    assert report.theorem1_ok and report.light_sum == 1
    assert (report.bound, report.margin) == (52, 51)
    assert 52 < true
    assert hopcroft_bound_check(t, [r, l, 1], [1, None, None]) == (True, 1, 52)


def test_audit_of_a_star_with_a_prime_leaf_is_fast():
    # root 2**53, one leaf of a prime weight near it and 111 of weight 1: the
    # paper's bound is too near the light sum for floats to decide it
    t = WeightedTree([0] * 113)
    started = time.perf_counter()
    assert audit_tree(t, [2**53, 9007199254740881] + [1] * 111).all_ok()
    assert time.perf_counter() - started < 0.5


@pytest.mark.parametrize("check", [light_child_sum, lpath_weighted_leaf_sum,
                                   lpath_length_bound_check, hopcroft_bound_check])
@pytest.mark.parametrize("w, match", [
    ([3, 1], "covers 2 nodes"),
    ([3, -1, 1], "not a natural number"),
    ([3, 1.0, 1], "not a natural number"),
    ([10**400, 1, 1], "exceeds"),
], ids=["length", "negative", "float", "above-cap"])
def test_lemma_checks_reject_malformed_weights(check, w, match):
    with pytest.raises(MalformedTreeError, match=match):
        check(WeightedTree([0, 0, 0]), w, [1, None, None])


def test_weights_above_the_cap_are_malformed():
    t = WeightedTree([0, 0])
    assert audit_tree(t, [wtree.MAX_WEIGHT, 1]).all_ok()
    for big in (wtree.MAX_WEIGHT + 1, 10**400):
        with pytest.raises(MalformedTreeError, match="exceeds"):
            audit_tree(t, [big, 1])
        with pytest.raises(MalformedTreeError, match="exceeds"):
            validate_weight(t, [big, 1])


def test_corollary_total_cost_bounded(seed=13):
    # instantiate the per-node cost as the light-children sum itself (K=1):
    # the total must stay under w(r) * log2 w(r)
    rng = random.Random(seed)
    for _ in range(200):
        tree, w = random_weighted_tree(rng, max_nodes=60, max_root_weight=10**4)
        h = choose_heavy(tree, w)
        total = light_child_sum(tree, w, h)
        wr = w[tree.root]
        if wr > 0:
            assert total <= wr * math.log2(wr) + 1e-6
        else:
            assert total == 0


# -- the audit against its per-node definitions ---------------------------------


def audit_outcome(audit, tree, w, heavy):
    """The report as a tuple, or the error raised."""
    try:
        report = audit(tree, w, heavy)
    except ValueError as e:  # MalformedTreeError included
        return type(e), str(e)
    return dataclasses.astuple(report)


def relabelled(rng, tree, w):
    """The same weighted tree under a random renumbering of its nodes: the
    root need not be node 0, and children may be numbered below their parent."""
    n = tree.node_count
    perm = list(range(n))
    rng.shuffle(perm)
    parent, w2 = [0] * n, [0] * n
    for v in range(n):
        parent[perm[v]] = perm[tree.parent[v]]
        w2[perm[v]] = w[v]
    return WeightedTree(parent), w2


def heavy_choices(rng, tree, w):
    """No choice, the true one, an arbitrary one, and one fault of each kind:
    an internal node skipped, a non-child, a lighter child, an entry at a leaf.
    Each choice is a dict keyed by node, the form the reference audit takes."""
    n = tree.node_count
    internal = [v for v, ch in enumerate(tree.children) if ch]
    true = {v: u for v, u in enumerate(choose_heavy(tree, w)) if u is not None}
    yield None
    yield true
    yield {v: rng.choice(tree.children[v]) for v in internal}
    if not internal:
        return
    v = rng.choice(internal)
    yield {u: c for u, c in true.items() if u != v}
    outsiders = [u for u in range(-1, n + 1) if u not in tree.children[v]]
    yield {**true, v: rng.choice(outsiders)}
    lighter = [(v, u) for v in internal for u in tree.children[v] if w[u] < w[true[v]]]
    if lighter:
        v, u = rng.choice(lighter)
        yield {**true, v: u}
    yield {**true, rng.choice(tree.leaves()): rng.randrange(n)}


def as_list(tree, heavy):
    """A dict heavy choice as the per-node list ``audit_tree`` takes."""
    return None if heavy is None else [heavy.get(v) for v in range(tree.node_count)]


def test_audit_matches_per_node_definitions_on_random_trees(seed=29):
    rng = random.Random(seed)
    cases = 0
    for i in range(1000):
        tree, w = random_weighted_tree(rng, max_nodes=60, max_root_weight=rng.choice((50, 10**6)))
        if i % 2:
            tree, w = relabelled(rng, tree, w)
        overfull = list(w)
        u = rng.choice([v for v in range(tree.node_count) if v != tree.root] or [tree.root])
        overfull[u] += w[tree.parent[u]] + 1
        for weights in (w, overfull):
            for heavy in heavy_choices(rng, tree, weights):
                expected = audit_outcome(reference_audit, tree, weights, heavy)
                got = audit_outcome(audit_tree, tree, weights, as_list(tree, heavy))
                assert got == expected
                cases += 1
    assert cases > 10_000


@pytest.mark.parametrize("family", sorted(INSTANCES))
def test_audit_matches_per_node_definitions_on_pinned_trees(family):
    for weight in WEIGHT_KINDS:
        for seed in SEEDS:
            t = refine_hopcroft(INSTANCES[family](seed), weight).tree
            tree = WeightedTree(t.parent)
            recorded = {v: u for v, u in enumerate(t.heavy) if u is not None}
            for heavy in (None, recorded):
                expected = audit_outcome(reference_audit, tree, t.weight, heavy)
                assert expected[0] is True  # a valid weight law, reported
                got = audit_outcome(audit_tree, tree, t.weight, as_list(tree, heavy))
                assert got == expected
