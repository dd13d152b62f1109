"""Shared test helpers: seeded random weighted trees, old-form tree documents."""

import json

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
