"""Shared test helpers: seeded random weighted trees, old-form tree documents,
a labelled Markov chain family, DFAs written as dfa-text."""

import json
from fractions import Fraction

from bisimkit.coalgebra import Coalgebra
from bisimkit.functors import default_letters, parse_functor
from bisimkit.gen import SplitMix64
from bisimkit.values import DistVal, Label, StateRef, TupleVal
from bisimkit.wtree import WeightedTree, validate_weight


def random_weighted_tree(rng, max_nodes=200, max_root_weight=10**6):
    """A random rooted tree with a valid (not necessarily tight) weight.

    Weights are assigned top-down: each node's children split a random
    budget no larger than the node's weight, so the weight law holds by
    construction.  Zero weights and slack both occur.
    """
    n = rng.randint(1, max_nodes)
    parent = [0] * n
    for v in range(1, n):
        parent[v] = rng.randrange(v)
    tree = WeightedTree(parent)
    w = [0] * n
    w[0] = rng.randint(0, max_root_weight)
    for v in tree.topo_order():
        ch = tree.children[v]
        if not ch:
            continue
        budget = w[v] if rng.random() < 0.5 else rng.randint(0, w[v])
        for u in ch:
            part = rng.randint(0, budget)
            w[u] = part if rng.random() < 0.8 else rng.randint(0, part)
            budget -= part
    assert validate_weight(tree, w).valid
    return tree, w


def old_form_tree_document(text):
    """The tree document in its earlier form, rebuilt from the current one.

    The earlier form listed every node's sorted ``states`` where the current
    one lists ``members`` at leaves only.  A child's id exceeds its parent's,
    so in reverse id order every node's children are complete before the
    node itself is reached.
    """
    doc = json.loads(text)
    parent, members = doc["parent"], doc["members"]
    states = [None] * len(parent)
    below = [[] for _ in parent]
    for v in range(len(parent) - 1, -1, -1):
        states[v] = members[v] if members[v] is not None else sorted(below[v])
        if parent[v] != v:
            below[parent[v]].extend(states[v])
    old = {"parent": parent, "w": doc["w"], "states": states, "heavy": doc["heavy"]}
    return json.dumps(old, separators=(",", ":")) + "\n"


def labelled_mc(n, seed):
    """``{0,1} * D X``: an output bit and a distribution in quarters."""
    rng = SplitMix64(seed)
    values = []
    for _ in range(n):
        bit = Label(str(rng.below(2)))
        if rng.below(2) == 0:
            dist = ((rng.below(n), 4),)
        else:
            p = 1 + rng.below(3)
            dist = ((rng.below(n), p), (rng.below(n), 4 - p))
        values.append(
            TupleVal((bit, DistVal(tuple((StateRef(y), Fraction(q, 4)) for y, q in dist))))
        )
    return Coalgebra.make(parse_functor("{0,1} * D X"), values)


def dfa_text(coalg):
    """A ``{0,1} * (X ^ letters)`` coalgebra written in the dfa-text format."""
    k = len(coalg.values[0].items[1].entries)
    lines = [f"dfa {coalg.n_states} {k}"]
    for v in coalg.values:
        bit, fun = v.items
        succs = (fun.get(a).index for a in default_letters(k))
        lines.append(" ".join([bit.name, *map(str, succs)]))
    return "\n".join(lines) + "\n"
