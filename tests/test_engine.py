"""Refinement engine: both algorithms and the split/mark primitives."""

import json
import random
from collections import deque

import pytest
from util import MIXED_ARITY_FUNCTORS, labelled_mc, random_value, relabel, signature_of

from bisimkit import engine
from bisimkit.coalgebra import Coalgebra, SignatureEvaluator, build_pred_index
from bisimkit.engine import (
    WEIGHT_KINDS,
    ConfigurationError,
    EngineInvariantError,
    Partition,
    RefinablePartition,
    mark_dirty,
    refine_hopcroft,
    refine_naive,
    split_leaf,
)
from bisimkit.formats import tree_to_json
from bisimkit.functors import parse_functor
from bisimkit.gen import FAMILIES, GenSpec, generate
from bisimkit.oracle import bisim_bruteforce, partitions_equal
from bisimkit.values import (
    DistVal,
    FunVal,
    Label,
    SetVal,
    StateRef,
    TupleVal,
    value_to_obj,
)
from bisimkit.wtree import WeightedTree, audit_tree, light_child_sum

DFA1 = parse_functor("{0,1} * (X ^ {a})")


def dfa1(*rows):
    """One-letter DFA from (accept_bit, successor) rows."""
    values = [
        TupleVal((Label(bit), FunVal((("a", StateRef(s)),)))) for bit, s in rows
    ]
    return Coalgebra.make(DFA1, values)


def chain3():
    # 0 -> 1 -> 2 -> 2, only state 2 accepting
    return dfa1(("0", 1), ("0", 2), ("1", 2))


# -- refine_naive ----------------------------------------------------------------


def test_naive_all_selfloops_one_block():
    c = dfa1(("1", 0), ("1", 1), ("1", 2))
    r = refine_naive(c)
    assert r.partition.blocks == ((0, 1, 2),)
    assert r.stats.iterations == 1  # already stable at the first sweep


def test_naive_pure_distribution_one_block():
    c = generate(GenSpec("mc", 12, seed=4))
    r = refine_naive(c)
    assert r.partition.n_blocks >= 1
    # distributions always sum to 1, so the one-block labelling is stable
    one = Coalgebra.make(
        parse_functor("D X"),
        [DistVal(((StateRef((i + 1) % 3), 1),)) for i in range(3)],
    )
    assert refine_naive(one).partition.blocks == ((0, 1, 2),)


def test_naive_chain_three_singletons():
    r = refine_naive(chain3())
    assert r.partition.blocks == ((0,), (1,), (2,))


def test_naive_single_state():
    c = dfa1(("0", 0))
    r = refine_naive(c)
    assert r.partition.blocks == ((0,),)


@pytest.mark.parametrize("functor", MIXED_ARITY_FUNCTORS)
def test_naive_agrees_on_shapes_of_mixed_arity(functor):
    # a state of a shape with fewer refs than the widest is padded in the
    # sweep's columns; a sweep cut to the narrowest shape would miss splits
    expr = parse_functor(functor)
    rng = random.Random(functor)
    nontrivial = 0
    for _ in range(30):
        n = rng.randrange(1, 14)
        c = Coalgebra.make(expr, [random_value(expr, rng, n) for _ in range(n)])
        base = refine_naive(c).partition
        for w in WEIGHT_KINDS:
            assert refine_hopcroft(c, w).partition == base
        assert partitions_equal(base, bisim_bruteforce(c))
        nontrivial += 1 < base.n_blocks < n
    assert nontrivial


def reference_sweeps(c):
    """Every labelling of Moore's fixpoint, computed from ``signature_of``
    keys with no evaluator: sweep i keys each state by its block and its
    value's signature, and numbers the keys in order of first occurrence."""
    block_of = [0] * c.n_states
    labellings = [block_of]
    while True:
        keys = [(b, signature_of(v, block_of)) for b, v in zip(block_of, c.values)]
        firsts = list(dict.fromkeys(keys))
        if len(firsts) == len(set(block_of)):
            return labellings
        block_of = [firsts.index(k) for k in keys]
        labellings.append(block_of)


def naive_input(name, seed):
    if name == "labelled_mc":
        return labelled_mc(30, seed)
    if name in FAMILIES:
        return generate(GenSpec(name, 30, seed=seed))
    expr = parse_functor(name)
    rng = random.Random(f"{name} {seed}")
    return Coalgebra.make(expr, [random_value(expr, rng, 14) for _ in range(14)])


@pytest.mark.parametrize("name", [*FAMILIES, *MIXED_ARITY_FUNCTORS, "labelled_mc"])
def test_every_naive_sweep_matches_a_signature_of_reference(name):
    # the sweeps' own keys (rigid ones without the shape id after sweep 1)
    # must give the very labellings the general signatures give
    longest = 0
    for seed in range(5):
        c = naive_input(name, seed)
        snaps = []
        stats = refine_naive(c, snapshots=snaps).stats
        expected = reference_sweeps(c)
        # one snapshot before each sweep, and the result, which the last
        # sweep left as it was
        assert [list(p.block_of) for p in snaps] == [*expected, expected[-1]]
        assert stats.iterations == len(expected)
        assert stats.signatures_computed == len(expected) * c.n_states
        splits = sum(
            sum(1 for group in p.blocks if len({q.block_of[x] for x in group}) > 1)
            for p, q in zip(snaps, snaps[1:])
        )
        assert stats.splits == splits
        longest = max(longest, len(expected))
    # shape-free keys are at work from sweep 2 on; gen's mc and mdp never
    # split, and states of {a,b} split by shape alone
    assert longest > 2 or name in ("mc", "mdp", "{a,b}")


# -- refine_hopcroft -------------------------------------------------------------


def test_hopcroft_single_state():
    c = dfa1(("0", 0))
    r = refine_hopcroft(c)
    assert r.partition.blocks == ((0,),)
    assert r.stats.splits == 0
    assert r.stats.iterations == 1
    assert len(r.tree.parent) == 1


def test_hopcroft_matches_naive_on_chain():
    for w in ("card", "pred", "reach"):
        r = refine_hopcroft(chain3(), w)
        assert r.partition.blocks == ((0,), (1,), (2,))


def test_hopcroft_rejects_unknown_weight():
    with pytest.raises(ConfigurationError):
        refine_hopcroft(chain3(), "mass")


def test_hopcroft_cross_algorithm_equivalence():
    for fam in ("dfa", "nfa", "lts", "mc", "mdp"):
        for i in range(40):
            c = generate(GenSpec(fam, (i % 25) + 1, seed=i))
            base = refine_naive(c).partition
            for w in ("card", "pred", "reach"):
                assert partitions_equal(base, refine_hopcroft(c, w).partition)
            assert partitions_equal(base, bisim_bruteforce(c))


def test_hopcroft_tree_passes_audit():
    for fam in ("dfa", "lts", "mc"):
        for i in range(25):
            c = generate(GenSpec(fam, (i % 20) + 1, seed=100 + i))
            for w in ("card", "pred", "reach"):
                r = refine_hopcroft(c, w)
                tree = WeightedTree(r.tree.parent)
                report = audit_tree(tree, r.tree.weight, r.tree.heavy)
                assert report.all_ok(), (fam, i, w)
                assert report.tight  # all three weights are additive


def test_pred_touches_equal_light_child_sum():
    # under pred weight a light child weighs exactly the predecessor pairs
    # mark_dirty visits for it, so Theorem 1 bounds markdirty_touches
    for fam in ("dfa", "nfa", "lts", "mc", "mdp", "chain"):
        for i in range(12):
            c = generate(GenSpec(fam, (i % 20) + 2, seed=300 + i))
            r = refine_hopcroft(c, "pred")
            tree = WeightedTree(r.tree.parent)
            light = light_child_sum(tree, r.tree.weight, r.tree.heavy)
            assert r.stats.markdirty_touches == light, (fam, i)


def test_hopcroft_tree_structure():
    r = refine_hopcroft(chain3())
    t = r.tree
    members = json.loads(tree_to_json(t))["members"]
    shape = WeightedTree(t.parent)
    assert t.parent[0] == 0
    # members are listed exactly at the leaves, and the leaves are exactly
    # the final partition blocks
    assert [v for v, m in enumerate(members) if m is not None] == shape.leaves()
    assert sorted(members[v] for v in shape.leaves()) == [[0], [1], [2]]
    # the tree's leaf tuples are the partition's blocks, not copies
    leaves = sorted(m for m in t.members if m is not None)
    assert [id(g) for g in leaves] == [id(g) for g in r.partition.blocks]
    # every inner node has a heavy child, one of its heaviest children
    assert len(t.members) == len(t.heavy) == len(t.parent)
    for v in range(len(t.parent)):
        ch = shape.children[v]
        if ch:
            assert t.heavy[v] in ch
            assert t.weight[t.heavy[v]] == max(t.weight[u] for u in ch)
        else:
            assert t.heavy[v] is None


def test_hopcroft_tree_keeps_no_per_split_states():
    # every split of a counter chain peels one state off a heavy child; a
    # tree that froze each child's states would hold about n^2/2 entries
    n = 400
    t = refine_hopcroft(generate(GenSpec("chain", n))).tree
    assert len(t.parent) > n
    entries = 0
    for value in vars(t).values():
        items = value.values() if isinstance(value, dict) else value
        if isinstance(items, str):
            continue
        entries += sum(len(x) for x in items if isinstance(x, (tuple, list, set)))
    assert entries <= len(t.parent) + n


def test_hopcroft_monotone_refinement_snapshots():
    snaps = []
    c = generate(GenSpec("dfa", 20, seed=8))
    refine_hopcroft(c, "card", snapshots=snaps)
    for before, after in zip(snaps, snaps[1:]):
        # same-block in the later snapshot implies same-block earlier
        for block in after.blocks:
            first = block[0]
            assert all(before.block_of[x] == before.block_of[first] for x in block)


def test_output_partition_is_a_signature_fixpoint():
    for fam in ("dfa", "lts", "mc"):
        c = generate(GenSpec(fam, 24, seed=31))
        part = refine_hopcroft(c, "card").partition
        sigs = [signature_of(c.values[x], part.block_of) for x in range(24)]
        for x in range(24):
            for y in range(24):
                same_block = part.block_of[x] == part.block_of[y]
                assert same_block == (sigs[x] == sigs[y])


def test_hopcroft_stats_counters_consistent():
    c = generate(GenSpec("dfa", 50, seed=77))
    r = refine_hopcroft(c, "card")
    s = r.stats
    assert s.dirty_markings <= s.markdirty_touches
    assert s.splits < c.n_states
    assert s.signatures_computed >= c.n_states


@pytest.mark.parametrize("letters", (1, 2))
def test_hopcroft_keys_each_chain_state_once(letters):
    # the first pop keys every state; every later split of a counter chain
    # peels a lone dirty state off its leaf, and that state gets no key
    for n in (2, 3, 40, 301):
        s = refine_hopcroft(generate(GenSpec("chain", n, alphabet_size=letters))).stats
        assert s.splits == n - 1
        assert s.signatures_computed == n


def test_least_clean_states_cost_no_scan_of_the_clean_mass(monkeypatch):
    # numbered backwards, a counter chain's lone dirty state is its leaf's
    # least state at every split, so a scan of the clean rest for the next
    # least state would examine about n^2/2 states; the walks of the leaves'
    # rankings examine at most n plus the light children's weight
    n = 2000
    c = relabel(generate(GenSpec("chain", n)), range(n - 1, -1, -1))
    least_clean = RefinablePartition.least_clean
    examined = []

    def spy(part, leaf, clean_from):
        rank, i = part.rank[leaf], part.head[leaf]
        while part.leaf_of[rank[i]] != leaf or part.pos[rank[i]] < clean_from:
            i += 1
        examined.append(i + 1 - part.head[leaf])
        x = least_clean(part, leaf, clean_from)
        assert x == rank[i] == min(part.elems[clean_from:part.end[leaf]])
        return x

    monkeypatch.setattr(RefinablePartition, "least_clean", spy)
    r = refine_hopcroft(c)
    assert r.partition.n_blocks == n
    assert len(examined) == n - 2  # every split but the first has a clean mass
    light = light_child_sum(WeightedTree(r.tree.parent), r.tree.weight, r.tree.heavy)
    assert sum(examined) <= n + light


# -- split_leaf ------------------------------------------------------------------


def layout(n, *leaves):
    """A RefinablePartition whose leaf i is (dirty states, clean states)
    ``leaves[i]``, laid out in that order; the leaves must cover range(n)."""
    part = RefinablePartition(n)
    part.elems, part.first, part.mid, part.end = [], [], [], []
    part.rank, part.head = {}, {}
    for leaf, (dirty, clean) in enumerate(leaves):
        part.first.append(len(part.elems))
        part.elems += dirty
        part.mid.append(len(part.elems))
        part.elems += clean
        part.end.append(len(part.elems))
        part.rank[leaf], part.head[leaf] = sorted(dirty + clean), 0
        for x in dirty + clean:
            part.leaf_of[x] = leaf
    for i, x in enumerate(part.elems):
        part.pos[x] = i
    part.check({leaf: set(dirty) for leaf, (dirty, _) in enumerate(leaves)})
    return part


class CountingEvaluator:
    """A signature evaluator that records the states it is asked about, one
    by one through ``signature`` or in bulk through ``keys``."""

    def __init__(self, ev):
        self.ev, self.rigid = ev, ev.rigid
        self.asked, self.bulk = [], []  # states; the states of each keys call

    def signature(self, x, block_of):
        self.asked.append(x)
        return self.ev.signature(x, block_of)

    def keys(self, states, block_of):
        self.bulk.append(list(states))
        return self.ev.keys(states, block_of)


def checked_split(part, leaf, ev):
    """split_leaf, asserting what it does to a layout: no signature for a
    clean state, nor for a lone dirty state beside a clean mass; otherwise
    one per dirty state, asked one by one for a rigid functor and in one
    ``keys`` call otherwise; the groups in order of least member rewriting
    the dirty prefix, and the clean tail untouched."""
    lo, m, hi = part.first[leaf], part.mid[leaf], part.end[leaf]
    dirty, clean = sorted(part.elems[lo:m]), part.elems[m:hi]
    counting = CountingEvaluator(ev)
    groups = split_leaf(part, leaf, counting)
    if len(dirty) == 1 and clean:
        assert counting.asked == [] and counting.bulk == []
    elif ev.rigid:
        assert sorted(counting.asked) == dirty and counting.bulk == []
    else:
        assert counting.asked == [] and counting.bulk == [dirty]
    assert all(g == sorted(g) for g in groups)
    assert [g[0] for g in groups] == sorted(g[0] for g in groups)
    assert [x for g in groups for x in g] == part.elems[lo:m]
    assert part.elems[m:hi] == clean
    assert part.mid[leaf] == lo  # the leaf is left clean
    assert all(part.pos[x] == i for i, x in enumerate(part.elems[lo:hi], lo))
    sigs = [{ev.signature(x, part.leaf_of) for x in g} for g in groups]
    assert all(len(s) == 1 for s in sigs) and len(set().union(*sigs)) == len(groups)
    return groups


def test_split_leaf_groups_the_first_leaf():
    # the run's first pop: one leaf, every state dirty, nothing clean
    c = dfa1(("0", 0), ("1", 0), ("0", 0), ("0", 1), ("1", 0))
    part = RefinablePartition(5)
    assert checked_split(part, 0, SignatureEvaluator(c)) == [[0, 2, 3], [1, 4]]
    assert part.elems == [0, 2, 3, 1, 4]


def test_split_leaf_all_dirty_equal_signatures():
    c = dfa1(("0", 0), ("0", 1), ("0", 2))
    groups = checked_split(RefinablePartition(3), 0, SignatureEvaluator(c))
    assert groups == [[0, 1, 2]]  # one group fills the slice: the trivial split


def test_split_leaf_keeps_the_clean_tail():
    # chain3 after its first split: leaf 0 = {0, 1} heavy, leaf 1 = {2}
    # light, and mark_dirty swapped 1, a predecessor of 2, into leaf 0's
    # prefix; the clean 0 gets no signature and stays a child of its own
    c = chain3()
    part = layout(3, ([1], [0]), ([2], []))
    assert checked_split(part, 0, SignatureEvaluator(c)) == [[1]]
    assert part.elems == [1, 0, 2]


@pytest.mark.parametrize("weight", WEIGHT_KINDS)
@pytest.mark.parametrize("family", [*FAMILIES, "labelled_mc"])
def test_split_leaf_on_every_layout_a_run_reaches(monkeypatch, family, weight):
    # no dirty state shares a signature with a clean one, which is why
    # split_leaf computes none for the clean mass and never merges into it,
    # and why a lone dirty state beside it needs no signature either
    clean_masses = lone = 0

    def spy(part, leaf, ev):
        nonlocal clean_masses, lone
        lo, m, hi = part.first[leaf], part.mid[leaf], part.end[leaf]
        assert lo < m  # a popped leaf has a dirty state
        if m < hi:
            clean_masses += 1
            lone += m - lo == 1
            clean = {ev.signature(x, part.leaf_of) for x in part.elems[m:hi]}
            assert not any(ev.signature(x, part.leaf_of) in clean for x in part.elems[lo:m])
        return checked_split(part, leaf, ev)

    monkeypatch.setattr(engine, "split_leaf", spy)
    for n in (6, 25, 70):
        for seed in range(3):
            c = labelled_mc(n, seed) if family == "labelled_mc" else generate(
                GenSpec(family, n, seed=seed))
            r = refine_hopcroft(c, weight)
            assert partitions_equal(r.partition, refine_naive(c).partition)
    # every distribution sums to 1, so gen's mc and mdp states are all
    # bisimilar and the first leaf never splits
    assert clean_masses > 0 or family in ("mc", "mdp")
    assert lone > 0 or family in ("mc", "mdp")


# -- mark_dirty ------------------------------------------------------------------


def test_mark_dirty_no_predecessors():
    c = dfa1(("0", 1), ("0", 1))
    pidx = build_pred_index(SignatureEvaluator(c))
    part = layout(2, ([], [1]), ([], [0]))
    queue = deque()
    marked, touches = mark_dirty([[0]], pidx, part, queue)
    # light child is [0]; state 0 has no predecessors
    assert marked == 0 and touches == 0
    assert not queue
    part.check({})


def test_mark_dirty_double_touch_single_marking():
    # state 0 precedes both light-child states 1 and 2
    c = Coalgebra.make(
        parse_functor("P X"),
        [SetVal((StateRef(1), StateRef(2))), SetVal(()), SetVal(())],
    )
    pidx = build_pred_index(SignatureEvaluator(c))
    part = layout(3, ([], [0]), ([], [1, 2]))
    queue = deque()
    marked, touches = mark_dirty([[1, 2]], pidx, part, queue)
    assert touches == 2
    assert marked == 1 and part.dirty(0) == [0]
    assert list(queue) == [0]
    part.check({0: {0}})


def test_mark_dirty_touch_bound():
    c = generate(GenSpec("nfa", 30, seed=12))
    pidx = build_pred_index(SignatureEvaluator(c))
    light = list(range(10, 20))
    _, touches = mark_dirty([light], pidx, layout(30, ([], list(range(30)))), deque())
    assert touches <= pidx.max_indegree * len(light)


def test_mark_dirty_swaps_into_the_prefix_and_queues_a_leaf_once():
    # 0 -> 2 and 1 -> 2; leaf 0 = {0, 1, 3} already has 3 dirty, so it is
    # queued already and marking 0 and 1 must not queue it again
    c = Coalgebra.make(
        parse_functor("P X"),
        [SetVal((StateRef(2),)), SetVal((StateRef(2),)), SetVal(()), SetVal(())],
    )
    pidx = build_pred_index(SignatureEvaluator(c))
    part = layout(4, ([3], [0, 1]), ([], [2]))
    queue = deque()
    marked, touches = mark_dirty([[2]], pidx, part, queue)
    assert touches == 2 and marked == 2
    assert not queue
    assert part.dirty(0) == [3, 0, 1]
    part.check({0: {0, 1, 3}})


# -- the leaf layout's invariants ------------------------------------------------


def test_layout_invariants_hold_at_every_snapshot(monkeypatch):
    # refine_hopcroft checks the layout at every main-loop boundary when
    # asked for snapshots; count the checks so a silent skip shows
    checks = []
    check = RefinablePartition.check

    def counted(self, dirty_sets):
        checks.append(1)
        check(self, dirty_sets)

    monkeypatch.setattr(RefinablePartition, "check", counted)
    for fam in ("dfa", "nfa", "lts", "chain", "lmc"):
        for seed in range(4):
            n = 10 + 7 * seed
            c = labelled_mc(n, seed) if fam == "lmc" else generate(GenSpec(fam, n, seed=seed))
            for weight in ("card", "pred", "reach"):
                snaps = []
                before = len(checks)
                r = refine_hopcroft(c, weight, snapshots=snaps)
                assert len(checks) - before == r.stats.iterations == len(snaps) - 1


def test_layout_check_catches_a_stale_dirty_prefix():
    part = layout(4, ([1], [0]), ([], [2, 3]))
    with pytest.raises(EngineInvariantError):
        part.check({0: {1}, 1: {2}})
    part.pos[0], part.pos[1] = part.pos[1], part.pos[0]
    with pytest.raises(EngineInvariantError):
        part.check({0: {1}})


# -- block weights ---------------------------------------------------------------
#
# Each tree node's weight is checked against its states from the tree
# document, with predecessors read off the values' JSON rather than the index.


def _json_successors(c):
    def walk(obj, out):
        if isinstance(obj, dict):
            if isinstance(obj.get("x"), int):
                out.add(obj["x"])
            for v in obj.values():
                walk(v, out)
        elif isinstance(obj, list):
            for v in obj:
                walk(v, out)
        return out

    return [walk(value_to_obj(v), set()) for v in c.values]


def _assert_node_weights(r, weigh):
    """Each leaf weighs ``weigh`` of its members, and each inner node the sum
    of its children: a split partitions a block and every weight is a sum
    over states."""
    doc = json.loads(tree_to_json(r.tree))
    shape = WeightedTree(doc["parent"])
    for v, members in enumerate(doc["members"]):
        if members is None:
            assert doc["w"][v] == sum(doc["w"][u] for u in shape.children[v]), v
        else:
            assert doc["w"][v] == weigh(members), v
    assert doc["w"] == r.tree.weight


def test_block_weight_card():
    c = generate(GenSpec("dfa", 30, seed=6))
    r = refine_hopcroft(c, "card")
    assert len(r.tree.parent) > 1
    _assert_node_weights(r, len)


def test_block_weight_pred():
    # a block weighs the (predecessor, state) pairs into it
    for fam in ("nfa", "lts", "mdp"):
        c = generate(GenSpec(fam, 25, seed=6))
        succ = _json_successors(c)
        indeg = [sum(y in s for s in succ) for y in range(c.n_states)]
        r = refine_hopcroft(c, "pred")
        _assert_node_weights(r, lambda s: sum(indeg[x] for x in s))


def test_block_weight_reach():
    # a block weighs its states that are some state's successor
    for fam in ("nfa", "lts"):
        c = generate(GenSpec(fam, 25, seed=6))
        reach = set().union(*_json_successors(c))
        r = refine_hopcroft(c, "reach")
        _assert_node_weights(r, lambda s: sum(x in reach for x in s))


def test_zero_weight_children_under_pred():
    # states 0 and 1 have no incoming edges, so their singleton blocks carry
    # predecessor weight 0; splits must still work and the tree must audit
    c = dfa1(("0", 2), ("1", 2), ("0", 2))
    r = refine_hopcroft(c, "pred")
    assert r.partition.blocks == ((0, 2), (1,))
    assert partitions_equal(r.partition, refine_naive(c).partition)
    tree = WeightedTree(r.tree.parent)
    assert audit_tree(tree, r.tree.weight, r.tree.heavy).all_ok()
    assert 0 in r.tree.weight  # a zero-weight child actually occurred


def test_zero_weight_children_under_reach():
    # only state 2 is anyone's successor; the other blocks weigh 0 and one
    # of them is chosen heavy on a 0-0 tie
    c = Coalgebra.make(
        parse_functor("P X"),
        [SetVal(()), SetVal((StateRef(2),)), SetVal(())],
    )
    r = refine_hopcroft(c, "reach")
    base = refine_naive(c).partition
    assert partitions_equal(base, r.partition)
    tree = WeightedTree(r.tree.parent)
    assert audit_tree(tree, r.tree.weight, r.tree.heavy).all_ok()


def test_no_transitions_all_weights():
    c = Coalgebra.make(parse_functor("P X"), [SetVal(())] * 4)
    for w in ("card", "pred", "reach"):
        r = refine_hopcroft(c, w)
        assert r.partition.blocks == ((0, 1, 2, 3),)
        assert r.stats.splits == 0


# -- Partition type --------------------------------------------------------------


def test_partition_canonical_ordering():
    p = Partition.from_block_of([2, 0, 2, 1])
    assert p.blocks == ((0, 2), (1,), (3,))
    assert p.block_of == (0, 1, 0, 2)


def test_partition_from_blocks_rejects_overlap_and_gaps():
    with pytest.raises(ValueError, match="two blocks"):
        Partition.from_blocks([[0, 1], [1, 2]], 3)
    with pytest.raises(ValueError, match="not covered"):
        Partition.from_blocks([[0], [2]], 3)


def test_partition_from_blocks_rejects_states_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        Partition.from_blocks([[0, 1], [2, 3]], 3)
    with pytest.raises(ValueError, match="out of range"):
        Partition.from_blocks([[0, 1, -1], [2]], 3)


def sorted_canonical(labels):
    """The canonical form by sorting: blocks as ascending tuples, in order of
    smallest member; an independent reference for Partition's numbering."""
    groups = {}
    for x, b in enumerate(labels):
        groups.setdefault(b, set()).add(x)
    blocks = sorted(tuple(sorted(g)) for g in groups.values())
    block_of = [None] * len(labels)
    for i, g in enumerate(blocks):
        for x in g:
            block_of[x] = i
    return tuple(block_of), tuple(blocks)


def test_partition_canonical_form_matches_sorting():
    rng = random.Random(8)
    label_kinds = (
        lambda k: k,
        lambda k: -7 * k,  # negative, not in order of first occurrence
        lambda k: f"b{k}",
        lambda k: (k % 3, str(k)),
    )
    for _ in range(300):
        n = rng.randint(1, 40)
        kind = rng.choice(label_kinds)
        labels = [kind(rng.randrange(rng.randint(1, n))) for _ in range(n)]
        expected = sorted_canonical(labels)
        p = Partition.from_block_of(labels)
        assert (p.block_of, p.blocks) == expected
        # the same blocks, each shuffled, in shuffled order, with empty blocks
        blocks = [list(g) for g in expected[1]] + [[] for _ in range(rng.randint(0, 2))]
        for g in blocks:
            rng.shuffle(g)
        rng.shuffle(blocks)
        q = Partition.from_blocks(blocks, n)
        assert (q.block_of, q.blocks) == expected
        # a labelling canonical already needs no renumbering
        r = Partition.from_canonical(list(expected[0]))
        assert (r.block_of, r.blocks) == expected


def test_naive_result_is_the_canonical_partition_of_its_last_sweep(monkeypatch):
    # refine_naive groups its last labelling as it stands, which is only
    # right because every sweep numbers its keys canonically
    from_canonical = Partition.from_canonical
    calls = []

    def checked(block_of):
        number = {}
        assert [number.setdefault(b, len(number)) for b in block_of] == list(block_of)
        calls.append(len(block_of))
        return from_canonical(block_of)

    monkeypatch.setattr(Partition, "from_canonical", staticmethod(checked))
    for fam in FAMILIES:
        coalg = generate(GenSpec(fam, 30, seed=6))
        assert refine_naive(coalg).partition == refine_hopcroft(coalg).partition
    assert calls
