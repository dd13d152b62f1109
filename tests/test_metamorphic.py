"""Metamorphic relations: answers that follow from other answers, with no
oracle.

Renaming the states of a coalgebra renames its bisimilarity classes and
nothing else.  Each family is run under the reversed numbering and under one
seeded random permutation.  The naive sweep and the worklist run under every
weight kind must each give the renamed partition of their own answer on the
original numbering, and every renamed run's refinement tree must pass its
audit.
"""

import random

import pytest
from util import labelled_mc, relabel

from bisimkit.engine import WEIGHT_KINDS, Partition, refine_hopcroft, refine_naive
from bisimkit.gen import GenSpec, generate
from bisimkit.wtree import WeightedTree, audit_tree

ENGINES = [refine_naive] + [
    lambda c, w=w: refine_hopcroft(c, w) for w in WEIGHT_KINDS
]


def renamed(partition, perm):
    return Partition.from_blocks([[perm[x] for x in b] for b in partition.blocks],
                                 partition.n_states)


@pytest.mark.parametrize("family", ["dfa", "nfa", "lts", "chain", "labelled_mc"])
def test_renaming_the_states_renames_the_partition(family):
    split = False
    for n, seed in ((7, 1), (40, 2), (120, 3)):
        c = labelled_mc(n, seed) if family == "labelled_mc" else generate(
            GenSpec(family, n, seed=seed))
        shuffled = list(range(n))
        random.Random(f"{family} {n}").shuffle(shuffled)
        answers = [engine(c).partition for engine in ENGINES]
        split |= answers[0].n_blocks > 1
        for perm in (range(n - 1, -1, -1), shuffled):
            d = relabel(c, perm)
            for engine, answer in zip(ENGINES, answers):
                r = engine(d)
                assert r.partition == renamed(answer, perm), (n, seed, engine)
                if r.tree is not None:
                    report = audit_tree(WeightedTree(r.tree.parent), r.tree.weight, r.tree.heavy)
                    assert report.all_ok()
    assert split
