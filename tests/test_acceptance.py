"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criteria 3, 4 and 5 share one corpus of 1000 seeded instances per family,
evaluated once per session.
"""

import random
import time
from dataclasses import dataclass, field

import pytest
from util import random_weighted_tree

from bisimkit.coalgebra import SignatureEvaluator, build_pred_index
from bisimkit.engine import refine_hopcroft, refine_naive
from bisimkit.gen import GenSpec, generate
from bisimkit.oracle import bisim_bruteforce, partitions_equal
from bisimkit.wtree import (
    WeightedTree,
    audit_tree,
    choose_heavy,
    hopcroft_bound_check,
    light_child_sum,
    lpath_length_bound_check,
    lpath_weighted_leaf_sum,
    tighten,
    validate_weight,
)

FAMILIES = ("dfa", "nfa", "lts", "mc", "mdp")
INSTANCES_PER_FAMILY = 1000
WEIGHTS = ("card", "pred", "reach")


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- criterion 1: micro-example reproduction --------------------------------------

EX_PARENT = [0, 0, 0, 0, 1, 1, 2, 2, 2, 3, 9, 9]
EX_W_LOOSE = [36, 14, 14, 7, 5, 7, 5, 2, 3, 7, 2, 4]
EX_W_TIGHT = [36, 15, 14, 7, 5, 10, 9, 2, 3, 7, 2, 5]


def test_criterion_1_micro_example():
    tree = WeightedTree(EX_PARENT)
    h = choose_heavy(tree, EX_W_LOOSE)
    # warm up, then time one execution of the three operations
    tighten(tree, EX_W_LOOSE, h)
    t0 = time.perf_counter()
    tightened = tighten(tree, EX_W_LOOSE, h)
    ls = light_child_sum(tree, EX_W_TIGHT, h)
    lp = lpath_weighted_leaf_sum(tree, EX_W_TIGHT, h)
    elapsed = time.perf_counter() - t0
    ok = tightened == EX_W_TIGHT and ls == 33 and lp == 33 and elapsed < 1e-3
    report(
        "1",
        ok,
        f"tightening reproduces the drawn weights, sums {ls}={lp}, {elapsed * 1e6:.0f}us",
    )


# -- criterion 2: weighted-tree property suite -------------------------------------


def test_criterion_2_tree_property_suite():
    rng = random.Random(20240)
    t0 = time.perf_counter()
    failures = []
    for i in range(1000):
        tree, w = random_weighted_tree(rng, max_nodes=200, max_root_weight=10**6)
        h = choose_heavy(tree, w)
        ls, lp = light_child_sum(tree, w, h), lpath_weighted_leaf_sum(tree, w, h)
        if ls < lp:
            failures.append((i, "light-sum inequality"))
        w2 = tighten(tree, w, h)
        if light_child_sum(tree, w2, h) != lpath_weighted_leaf_sum(tree, w2, h):
            failures.append((i, "equality after tightening"))
        if validate_weight(tree, w2) != (True, True):
            failures.append((i, "tightening not tight"))
        if w2[tree.root] != w[tree.root]:
            failures.append((i, "root changed"))
        if any(a > b for a, b in zip(w, w2)):
            failures.append((i, "pointwise dominance"))
        if any(w2[u] != max(map(w2.__getitem__, tree.children[v]))
               for v, u in enumerate(h) if u is not None):
            failures.append((i, "heavy choice lost"))
        if not lpath_length_bound_check(tree, w, h):
            failures.append((i, "light-path bound"))
        ok, lhs, bound = hopcroft_bound_check(tree, w, h)
        if not ok:
            failures.append((i, "exact bound check"))
        if lhs > bound + 1e-9 * max(1.0, abs(bound)):
            failures.append((i, "float bound check"))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    report("2", ok, f"1000 random trees, all checks hold, {elapsed:.2f}s (<10s)"
           if not failures else f"failures: {failures[:5]}")


# -- criteria 3-5: shared corpus ----------------------------------------------------


@dataclass
class CorpusResults:
    equivalence_failures: list = field(default_factory=list)
    audit_failures: list = field(default_factory=list)
    counter_violations: list = field(default_factory=list)
    runs: int = 0
    trees_audited: int = 0
    card_runs_checked: int = 0
    equivalence_seconds: float = 0.0


@pytest.fixture(scope="session")
def corpus() -> CorpusResults:
    res = CorpusResults()
    for fam_idx, family in enumerate(FAMILIES):
        for i in range(INSTANCES_PER_FAMILY):
            n = (i % 50) + 1
            seed = fam_idx * 100_000 + i
            t0 = time.perf_counter()
            coalg = generate(GenSpec(family, n, seed=seed))
            base = refine_naive(coalg).partition
            hop = {w: refine_hopcroft(coalg, w) for w in WEIGHTS}
            oracle_part = bisim_bruteforce(coalg)
            for name, part in [("oracle", oracle_part)] + [
                (w, hop[w].partition) for w in WEIGHTS
            ]:
                if not partitions_equal(base, part):
                    res.equivalence_failures.append((family, seed, name))
            res.equivalence_seconds += time.perf_counter() - t0
            res.runs += 1

            for w in WEIGHTS:
                r = hop[w]
                tree = WeightedTree(r.tree.parent)
                rep = audit_tree(tree, r.tree.weight, r.tree.heavy)
                res.trees_audited += 1
                if not (rep.all_ok() and rep.tight):
                    res.audit_failures.append((family, seed, w))

            if n >= 2:
                stats = hop["card"].stats
                m_deg = build_pred_index(SignatureEvaluator(coalg)).max_indegree
                bound = m_deg * n * (n - 1).bit_length() + m_deg * n
                res.card_runs_checked += 1
                if stats.markdirty_touches > bound:
                    res.counter_violations.append(
                        (family, seed, stats.markdirty_touches, bound)
                    )
    return res


def test_criterion_3_cross_algorithm_equivalence(corpus):
    ok = not corpus.equivalence_failures and corpus.equivalence_seconds < 60.0
    detail = (
        f"{corpus.runs} instances x (naive, hopcroft card/pred/reach, brute force) "
        f"agree, {corpus.equivalence_seconds:.1f}s (<60s)"
        if not corpus.equivalence_failures
        else f"mismatches: {corpus.equivalence_failures[:5]}"
    )
    report("3", ok, detail)


def test_criterion_4_refinement_tree_audit(corpus):
    ok = not corpus.audit_failures
    detail = (
        f"{corpus.trees_audited} refinement trees pass the weight-bound audit"
        if ok
        else f"audit failures: {corpus.audit_failures[:5]}"
    )
    report("4", ok, detail)


def test_criterion_5_markdirty_counter_bound(corpus):
    ok = not corpus.counter_violations
    detail = (
        f"{corpus.card_runs_checked} card-weight runs satisfy "
        "touches <= M*n*ceil(log2 n) + M*n"
        if ok
        else f"violations: {corpus.counter_violations[:5]}"
    )
    report("5", ok, detail)


# -- criterion 6: loop-invariant snapshots ------------------------------------------


def refines(fine, coarse):
    """Every block of ``fine`` lies inside one block of ``coarse``."""
    return all(len({coarse.block_of[x] for x in b}) == 1 for b in fine.blocks)


def test_criterion_6_loop_invariant_snapshots():
    # blocks only split, and never separate bisimilar states: every snapshot
    # refines the one before it and is coarser than bisimilarity
    checked = 0
    bad = []
    for fam_idx, family in enumerate(FAMILIES):
        for i in range(15):
            n = (i % 30) + 1
            coalg = generate(GenSpec(family, n, seed=900_000 + fam_idx * 1000 + i))
            bisim = bisim_bruteforce(coalg)
            for w in WEIGHTS:
                snaps = []
                refine_hopcroft(coalg, w, snapshots=snaps)
                for before, part in zip(snaps[:1] + snaps, snaps):
                    checked += 1
                    if not (refines(part, before) and refines(bisim, part)):
                        bad.append((family, i, w))
    ok = not bad
    report(
        "6",
        ok,
        f"{checked} main-loop snapshots refine their predecessors and keep "
        "bisimilar states together"
        if ok
        else f"invalid snapshots: {bad[:5]}",
    )


# -- criterion 7: optimization effect ------------------------------------------------


def test_criterion_7_chain_sweep_optimization():
    ratios = []
    rows = []
    ok = True
    for k in range(6, 11):
        n = 2**k
        coalg = generate(GenSpec("chain", n, alphabet_size=1))
        sn = refine_naive(coalg).stats.signatures_computed
        sh = refine_hopcroft(coalg, "card").stats.signatures_computed
        if sh > sn:
            ok = False
        ratios.append(sh / sn)
        rows.append(f"n={n}:{sh}/{sn}")
    if any(b > a for a, b in zip(ratios, ratios[1:])):
        ok = False
    report("7", ok, "chain sweep " + " ".join(rows) + ", ratio non-increasing")


# -- criterion 8: desk-scale performance ---------------------------------------------


def test_criterion_8_desk_scale():
    big = generate(GenSpec("dfa", 100_000, alphabet_size=2, seed=424242))
    result = refine_hopcroft(big, "card")
    elapsed = result.stats.wall_time

    sub = generate(GenSpec("dfa", 10_000, alphabet_size=2, seed=424243))
    match = partitions_equal(refine_naive(sub).partition, refine_hopcroft(sub, "card").partition)

    ok = elapsed < 10.0 and match
    report(
        "8",
        ok,
        f"100000-state dfa refined in {elapsed:.2f}s (<10s), "
        f"{result.partition.n_blocks} blocks; 10000-state subsample matches naive",
    )
