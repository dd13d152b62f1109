"""Shared test helpers: seeded random weighted trees, a reference tree audit,
a reference brute-force oracle, the reference signature and reference value
walkers, old-form tree documents, a labelled Markov chain family, random
values of any functor, coalgebras with their states renamed, DFAs written as
dfa-text, reference loaders that build values, and an in-process CLI run."""

import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from bisimkit import cli
from bisimkit.coalgebra import Coalgebra
from bisimkit.engine import Partition
from bisimkit.functors import (
    ConstSet,
    Coproduct,
    Distribution,
    Exponent,
    Identity,
    Powerset,
    Product,
    default_letters,
    parse_functor,
)
from bisimkit.gen import SplitMix64
from bisimkit.oracle import BRUTEFORCE_STATE_LIMIT
from bisimkit.values import (
    DistVal,
    FunVal,
    FValue,
    InjVal,
    InvalidValueError,
    Label,
    ProbabilitySumError,
    SetVal,
    ShapeMismatchError,
    StateRangeError,
    StateRef,
    TupleVal,
    UnknownLabelError,
    parse_probability,
)
from bisimkit.wtree import AuditReport, MalformedTreeError, WeightedTree, validate_weight


def topo_order(tree):
    """Nodes root first, every parent before its children, from the tree's
    root and child lists."""
    order = [tree.root]
    for v in order:
        order.extend(tree.children[v])
    return order


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
    for v in topo_order(tree):
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


# -- a reference audit: the per-node definitions, one scan or sum per node -------


def ref_check_weights_shape(tree, w):
    if len(w) != tree.node_count:
        raise MalformedTreeError(
            f"weight assignment covers {len(w)} nodes, tree has {tree.node_count}"
        )
    for v, x in enumerate(w):
        if type(x) is not int or x < 0:
            raise MalformedTreeError(f"weight of node {v} is not a natural number: {x!r}")


def ref_weight_law(tree, w):
    sums = [(sum(w[u] for u in ch), w[v]) for v, ch in enumerate(tree.children) if ch]
    valid = all(s <= x for s, x in sums)
    return valid, valid and all(s == x for s, x in sums)


def ref_check_heavy(tree, h):
    """Every entry names a node; every internal node names one of its
    children, and a leaf names none."""
    for v, u in sorted(h.items()):
        if not 0 <= u < tree.node_count:
            raise MalformedTreeError(f"heavy choice of node {v} is not a node id: {u!r}")
    for v, ch in enumerate(tree.children):
        if not ch:
            if v in h:
                raise ValueError(f"heavy child {h[v]} is not a child of {v}")
        elif v not in h:
            raise ValueError(f"heavy choice missing for internal node {v}")
        elif h[v] not in ch:
            raise ValueError(f"heavy child {h[v]} is not a child of {v}")


def ref_heavy_is_maximal(tree, w, h):
    return all(w[h[v]] == max(w[c] for c in ch) for v, ch in enumerate(tree.children) if ch)


def ref_tighten(tree, w, h):
    out = list(w)
    for v in topo_order(tree):
        ch = tree.children[v]
        if ch:
            out[h[v]] = out[v] - sum(w[u] for u in ch if u != h[v])
    return out


def ref_path_counts(tree, kept):
    counts = [0] * tree.node_count
    for u in topo_order(tree)[1:]:
        counts[u] = counts[tree.parent[u]] + (u not in kept)
    return counts


def ref_outside_sum(tree, w, kept):
    return sum(w[u] for u in topo_order(tree)[1:] if u not in kept)


def ref_leaf_sum(tree, w, counts):
    return sum(counts[l] * w[l] for l in tree.leaves())


def ref_factorize(x: int) -> dict[int, int]:
    f: dict[int, int] = {}
    d = 2
    while d * d <= x:
        while x % d == 0:
            f[d] = f.get(d, 0) + 1
            x //= d
        d += 1 if d == 2 else 2
    if x > 1:
        f[x] = f.get(x, 0) + 1
    return f


def ref_products_equal(lhs: int, leaf_weights: Sequence[int], root_w: int) -> bool:
    """Whether 2^lhs * prod w^w == root^root, via prime exponent vectors."""
    exps: dict[int, int] = {2: lhs}
    for x in leaf_weights:
        for p, e in ref_factorize(x).items():
            exps[p] = exps.get(p, 0) + e * x
    for p, e in ref_factorize(root_w).items():
        exps[p] = exps.get(p, 0) - e * root_w
    return all(e == 0 for e in exps.values())


def ref_product_log_le(lhs, leaf_weights, root_w):
    if root_w == 0:
        return lhs == 0 and not leaf_weights
    if root_w > 1000 or len(leaf_weights) + 1 > 1000:
        pos = root_w * math.log2(root_w)
        neg = lhs + sum(x * math.log2(x) for x in leaf_weights)
        d = pos - neg
        err = (len(leaf_weights) + 4) * (pos + neg) * 2.0**-50 + 1e-12
        if d > err:
            return True
        if d < -err:
            return False
        if ref_products_equal(lhs, leaf_weights, root_w):
            return True
    return math.prod(x**x for x in leaf_weights) << lhs <= root_w**root_w


def reference_audit(tree, w, heavy=None):
    """``wtree.audit_tree`` as the per-node definitions state it."""
    ref_check_weights_shape(tree, w)
    if heavy is not None:
        ref_check_heavy(tree, heavy)
    valid, tight = ref_weight_law(tree, w)
    if not valid:
        return AuditReport(valid=False, tight=False)
    if heavy is None:
        h = {v: max(ch, key=w.__getitem__) for v, ch in enumerate(tree.children) if ch}
    elif ref_heavy_is_maximal(tree, w, heavy):
        h = heavy
    else:
        raise ValueError("a heavy child is lighter than one of its siblings")
    below_root = topo_order(tree)[1:]
    kept_sets = (set(), {u for u in below_root if h[tree.parent[u]] == u}, set(below_root))
    counts = [ref_path_counts(tree, s) for s in kept_sets]
    sums = [(ref_outside_sum(tree, w, s), ref_leaf_sum(tree, w, c))
            for s, c in zip(kept_sets, counts)]
    lemma1_ok = all(lhs >= rhs and (not tight or lhs == rhs) for lhs, rhs in sums)
    light_sum, lpath_sum = sums[1]
    lemma2_ok = light_sum >= lpath_sum and (not tight or light_sum == lpath_sum)
    w2 = ref_tighten(tree, w, h)
    lemma3_ok = (
        ref_weight_law(tree, w2) == (True, True)
        and w2[tree.root] == w[tree.root]
        and all(w2[v] >= w[v] for v in range(tree.node_count))
        and ref_heavy_is_maximal(tree, w2, h)
        and ref_outside_sum(tree, w2, kept_sets[1]) == ref_leaf_sum(tree, w2, counts[1])
    )
    wr = w[tree.root]
    lemma4_ok = all(w[v] == 0 or (w[v] << counts[1][v]) <= wr for v in range(tree.node_count))
    # Theorem 1 as the paper states it, decided exactly; the bound is B,
    # each nonzero tightened leaf weight times the doublings it takes to
    # stay within the root weight
    ok = ref_product_log_le(light_sum, [w[l] for l in tree.leaves() if w[l] != 0], wr)
    bound = 0
    for l in tree.leaves():
        if w2[l]:
            k = 0
            while w2[l] << (k + 1) <= wr:
                k += 1
            bound += w2[l] * k
    return AuditReport(
        valid=True, tight=tight, lemma1_ok=lemma1_ok, lemma2_ok=lemma2_ok,
        lemma3_ok=lemma3_ok, lemma4_ok=lemma4_ok, theorem1_ok=ok,
        light_sum=light_sum, lpath_sum=lpath_sum, bound=bound,
    )


# -- a reference oracle: pair elimination that rechecks every pair each round ----


def ref_lifted_related(a: FValue, b: FValue, class_of: Sequence[int]) -> bool:
    """One-step relatedness of two values under classes given by class_of."""
    if isinstance(a, StateRef):
        return isinstance(b, StateRef) and class_of[a.index] == class_of[b.index]
    if isinstance(a, Label):
        return isinstance(b, Label) and a.name == b.name
    if isinstance(a, TupleVal):
        return (
            isinstance(b, TupleVal)
            and len(a.items) == len(b.items)
            and all(ref_lifted_related(x, y, class_of) for x, y in zip(a.items, b.items))
        )
    if isinstance(a, InjVal):
        return (
            isinstance(b, InjVal)
            and a.tag == b.tag
            and ref_lifted_related(a.value, b.value, class_of)
        )
    if isinstance(a, FunVal):
        if not isinstance(b, FunVal) or len(a.entries) != len(b.entries):
            return False
        return all(
            ka == kb and ref_lifted_related(x, y, class_of)
            for (ka, x), (kb, y) in zip(a.entries, b.entries)
        )
    if isinstance(a, SetVal):
        if not isinstance(b, SetVal):
            return False
        forth = all(
            any(ref_lifted_related(x, y, class_of) for y in b.members) for x in a.members
        )
        back = all(
            any(ref_lifted_related(x, y, class_of) for x in a.members) for y in b.members
        )
        return forth and back
    if isinstance(a, DistVal):
        if not isinstance(b, DistVal):
            return False
        # mass per target class must agree; nested values are matched by a
        # representative-class key built from recursive relatedness
        return ref_class_masses(a, b, class_of)
    raise TypeError(f"not a value: {a!r}")


def ref_class_masses(a: DistVal, b: DistVal, class_of) -> bool:
    """Group both distributions' mass by relatedness and compare the sums."""
    if all(isinstance(v, StateRef) for v, _ in a.entries) and all(
        isinstance(v, StateRef) for v, _ in b.entries
    ):
        da: dict[int, Fraction] = {}
        db: dict[int, Fraction] = {}
        for v, p in a.entries:
            k = class_of[v.index]
            da[k] = da[k] + p if k in da else p
        for v, p in b.entries:
            k = class_of[v.index]
            db[k] = db[k] + p if k in db else p
        return da == db
    reps: list[FValue] = []
    sums_a: list[Fraction] = []
    sums_b: list[Fraction] = []

    def bucket(v: FValue) -> int:
        for i, r in enumerate(reps):
            if ref_lifted_related(v, r, class_of):
                return i
        reps.append(v)
        sums_a.append(Fraction(0))
        sums_b.append(Fraction(0))
        return len(reps) - 1

    for v, p in a.entries:
        sums_a[bucket(v)] += p
    for v, p in b.entries:
        sums_b[bucket(v)] += p
    return sums_a == sums_b


def ref_closure_classes(rows):
    """Connected components of a relation matrix's graph (its equivalence
    closure), each sorted, in order of least member."""
    n = len(rows)
    seen = [False] * n
    classes = []
    for x in range(n):
        if seen[x]:
            continue
        seen[x] = True
        comp = [x]
        for u in comp:
            for v in range(n):
                if rows[u][v] and not seen[v]:
                    seen[v] = True
                    comp.append(v)
        classes.append(sorted(comp))
    return classes


def reference_bruteforce(coalg: Coalgebra) -> Partition:
    """Greatest-fixpoint bisimilarity by pair elimination.

    Start from the total relation; repeatedly drop pairs whose values are
    not one-step related under the classes of the current relation's
    equivalence closure.  The classes at the fixpoint are the answer.
    """
    n = coalg.n_states
    if n > BRUTEFORCE_STATE_LIMIT:
        raise ValueError(f"brute force capped at {BRUTEFORCE_STATE_LIMIT} states")
    rows = [bytearray([1]) * n for _ in range(n)]
    values = coalg.values
    while True:
        classes = ref_closure_classes(rows)
        class_of = [0] * n
        for i, cls_ in enumerate(classes):
            for x in cls_:
                class_of[x] = i
        removed = False
        for x in range(n):
            for y in range(x + 1, n):
                if rows[x][y] and not ref_lifted_related(values[x], values[y], class_of):
                    rows[x][y] = rows[y][x] = 0
                    removed = True
        if not removed:
            return Partition.from_blocks(classes, n)


# -- reference value walkers: isinstance chains, as they were before the
# walkers in ``values`` dispatched on one type() lookup ------------------------


def reference_structure_key(v: FValue):
    if isinstance(v, StateRef):
        return (0, v.index)
    if isinstance(v, Label):
        return (1, v.name)
    if isinstance(v, TupleVal):
        return (2, tuple(reference_structure_key(i) for i in v.items))
    if isinstance(v, InjVal):
        return (3, v.tag, reference_structure_key(v.value))
    if isinstance(v, FunVal):
        return (4, tuple((k, reference_structure_key(x)) for k, x in v.entries))
    if isinstance(v, SetVal):
        return (5, tuple(reference_structure_key(m) for m in v.members))
    if isinstance(v, DistVal):
        return (6, tuple((reference_structure_key(x), p) for x, p in v.entries))
    raise TypeError(f"not a value: {v!r}")


def reference_validate_value(expr, v: FValue, n_states: int) -> None:
    if isinstance(expr, Identity):
        if not isinstance(v, StateRef):
            raise ShapeMismatchError(f"expected a state reference, got {type(v).__name__}")
        if not 0 <= v.index < n_states:
            raise StateRangeError(f"state {v.index} out of range [0, {n_states})")
        return
    if isinstance(expr, ConstSet):
        if not isinstance(v, Label):
            raise ShapeMismatchError(f"expected a label, got {type(v).__name__}")
        if v.name not in expr.labels:
            raise UnknownLabelError(f"label {v.name!r} not in {{{','.join(expr.labels)}}}")
        return
    if isinstance(expr, Product):
        if not isinstance(v, TupleVal):
            raise ShapeMismatchError(f"expected a tuple, got {type(v).__name__}")
        if len(v.items) != len(expr.factors):
            raise ShapeMismatchError(
                f"tuple arity {len(v.items)} does not match product arity {len(expr.factors)}"
            )
        for f, item in zip(expr.factors, v.items):
            reference_validate_value(f, item, n_states)
        return
    if isinstance(expr, Coproduct):
        if not isinstance(v, InjVal):
            raise ShapeMismatchError(f"expected an injection, got {type(v).__name__}")
        if not 0 <= v.tag < len(expr.summands):
            raise ShapeMismatchError(f"injection tag {v.tag} out of range")
        reference_validate_value(expr.summands[v.tag], v.value, n_states)
        return
    if isinstance(expr, Exponent):
        if not isinstance(v, FunVal):
            raise ShapeMismatchError(f"expected a label-indexed map, got {type(v).__name__}")
        have = [k for k, _ in v.entries]
        want = sorted(expr.labels)
        if have != want:
            extra = set(have) - set(expr.labels)
            if extra:
                raise UnknownLabelError(f"label {sorted(extra)[0]!r} not in exponent index")
            raise ShapeMismatchError(
                f"map covers labels {have}, exponent requires {want}"
            )
        for _, item in v.entries:
            reference_validate_value(expr.base, item, n_states)
        return
    if isinstance(expr, Powerset):
        if not isinstance(v, SetVal):
            raise ShapeMismatchError(f"expected a set, got {type(v).__name__}")
        for m in v.members:
            reference_validate_value(expr.inner, m, n_states)
        return
    if isinstance(expr, Distribution):
        if not isinstance(v, DistVal):
            raise ShapeMismatchError(f"expected a distribution, got {type(v).__name__}")
        for x, p in v.entries:
            if not 0 < p <= 1:
                raise ProbabilitySumError("a probability lies outside (0, 1]")
            reference_validate_value(expr.inner, x, n_states)
        if sum((p for _, p in v.entries), Fraction(0)) != 1:
            raise ProbabilitySumError("distribution does not sum to 1")
        return
    raise TypeError(f"not a functor expression: {expr!r}")


def signature_of(v: FValue, block_of) -> object:
    """Canonical form of ``v`` with each state replaced by its block label.

    ``block_of`` maps state index -> block label (any sortable, hashable
    value); a sequence indexed by state works.  Signatures are nested tuples:
    equal signatures mean the two values are indistinguishable by one
    observation step under the given block structure.  This is the
    reference every compiled key form is held to; the engine never calls it.
    """
    t = type(v)
    if t is StateRef:
        return block_of[v.index]
    if t is TupleVal:
        return tuple([signature_of(i, block_of) for i in v.items])
    if t is SetVal:
        return tuple(sorted({signature_of(m, block_of) for m in v.members}))
    if t is DistVal:
        acc: dict = {}
        for x, p in v.entries:
            s = signature_of(x, block_of)
            acc[s] = acc[s] + p if s in acc else p
        return tuple(sorted(acc.items()))
    if t is Label:
        return v.name
    if t is FunVal:
        return tuple([signature_of(x, block_of) for _, x in v.entries])
    if t is InjVal:
        return (v.tag, signature_of(v.value, block_of))
    raise TypeError(f"not a value: {v!r}")


def reference_signature_of(v: FValue, block_of) -> object:
    if isinstance(v, StateRef):
        return block_of[v.index]
    if isinstance(v, Label):
        return v.name
    if isinstance(v, TupleVal):
        return tuple(reference_signature_of(i, block_of) for i in v.items)
    if isinstance(v, InjVal):
        return (v.tag, reference_signature_of(v.value, block_of))
    if isinstance(v, FunVal):
        return tuple(reference_signature_of(x, block_of) for _, x in v.entries)
    if isinstance(v, SetVal):
        return tuple(sorted({reference_signature_of(m, block_of) for m in v.members}))
    if isinstance(v, DistVal):
        acc: dict = {}
        for x, p in v.entries:
            s = reference_signature_of(x, block_of)
            acc[s] = acc.get(s, Fraction(0)) + p
        return tuple(sorted(acc.items()))
    raise TypeError(f"not a value: {v!r}")


def _ref_is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def reference_value_from_obj(obj) -> FValue:
    if isinstance(obj, str):
        return Label(obj)
    if isinstance(obj, list):
        return TupleVal(tuple(reference_value_from_obj(i) for i in obj))
    if isinstance(obj, dict):
        if "x" in obj:
            if not _ref_is_int(obj["x"]):
                raise InvalidValueError(f"state reference must be an integer: {obj!r}")
            return StateRef(obj["x"])
        if "inj" in obj:
            if not _ref_is_int(obj["inj"]):
                raise InvalidValueError(f"injection tag must be an integer: {obj!r}")
            if "val" not in obj:
                raise InvalidValueError(f"injection needs a 'val': {obj!r}")
            return InjVal(obj["inj"], reference_value_from_obj(obj["val"]))
        if "fun" in obj:
            if not isinstance(obj["fun"], dict):
                raise InvalidValueError(f"'fun' must map labels to values: {obj!r}")
            return FunVal(tuple((k, reference_value_from_obj(x)) for k, x in obj["fun"].items()))
        if "set" in obj:
            if not isinstance(obj["set"], list):
                raise InvalidValueError(f"'set' must be an array: {obj!r}")
            return SetVal(tuple(reference_value_from_obj(m) for m in obj["set"]))
        if "dist" in obj:
            if not isinstance(obj["dist"], list):
                raise InvalidValueError(f"'dist' must be an array: {obj!r}")
            entries = []
            for pair in obj["dist"]:
                if not isinstance(pair, list) or len(pair) != 2:
                    raise InvalidValueError(f"distribution entry must be [value, prob]: {pair!r}")
                p = parse_probability(pair[1])
                entries.append((reference_value_from_obj(pair[0]), p))
            return DistVal(tuple(entries))
    raise InvalidValueError(f"unrecognized value encoding: {obj!r}")


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


# functors whose shapes carry different numbers of state references, down to
# none at all, and one with a powerset of such shapes; the naive sweep's
# column keys pad the shorter shapes
MIXED_ARITY_FUNCTORS = (
    "X + {stop}",
    "(X * X) + {z}",
    "({a,b} * X) + ({p} * X * X)",
    "{a,b}",
    "P ((X * X) + {z})",
)


def random_value(expr, rng, n):
    """A random value of ``expr`` over n states, drawn from small domains so
    that equal observations are common."""
    if isinstance(expr, Identity):
        return StateRef(rng.randrange(n))
    if isinstance(expr, ConstSet):
        return Label(rng.choice(expr.labels))
    if isinstance(expr, Product):
        return TupleVal(tuple(random_value(f, rng, n) for f in expr.factors))
    if isinstance(expr, Coproduct):
        tag = rng.randrange(len(expr.summands))
        return InjVal(tag, random_value(expr.summands[tag], rng, n))
    if isinstance(expr, Exponent):
        return FunVal(tuple((a, random_value(expr.base, rng, n)) for a in expr.labels))
    if isinstance(expr, Powerset):
        return SetVal(tuple(random_value(expr.inner, rng, n) for _ in range(rng.randrange(3))))
    # a distribution: four quarters split among one to three entries
    cuts = sorted(rng.sample(range(1, 4), rng.randrange(3)))
    shares = [b - a for a, b in zip([0] + cuts, cuts + [4])]
    return DistVal(tuple((random_value(expr.inner, rng, n), Fraction(q, 4)) for q in shares))


def relabel(coalg, perm):
    """``coalg`` with each state x renamed ``perm[x]``."""
    def rename(v):
        t = type(v)
        if t is StateRef:
            return StateRef(perm[v.index])
        if t is TupleVal:
            return TupleVal(tuple(map(rename, v.items)))
        if t is InjVal:
            return InjVal(v.tag, rename(v.value))
        if t is FunVal:
            return FunVal(tuple((a, rename(x)) for a, x in v.entries))
        if t is SetVal:
            return SetVal(tuple(map(rename, v.members)))
        if t is DistVal:
            return DistVal(tuple((rename(x), p) for x, p in v.entries))
        return v  # a label

    values = [None] * coalg.n_states
    for x, v in enumerate(coalg.values):
        values[perm[x]] = rename(v)
    return Coalgebra.make(coalg.functor, values)


def dfa_text(coalg):
    """A ``{0,1} * (X ^ letters)`` coalgebra written in the dfa-text format."""
    k = len(coalg.values[0].items[1].entries)
    lines = [f"dfa {coalg.n_states} {k}"]
    for v in coalg.values:
        bit, fun = v.items
        succs = (dict(fun.entries)[a].index for a in default_letters(k))
        lines.append(" ".join([bit.name, *map(str, succs)]))
    return "\n".join(lines) + "\n"


# -- reference loaders ------------------------------------------------------------
#
# The coalg-json, aut and mc-tsv loaders as they were before they decoded
# into the compiled form: every value built, then validated by
# Coalgebra.make.  Each returns the coalgebra or raises the loader's
# FormatError.


def reference_load(fmt, text):
    from bisimkit import formats

    loader = {"coalg-json": _reference_coalg_json, "aut": _reference_aut,
              "mc-tsv": _reference_mc_tsv}[fmt]
    return loader(formats, text)


def _reference_coalg_json(formats, text):
    from bisimkit.coalgebra import coalgebra_from_obj
    from bisimkit.functors import FunctorSyntaxError

    obj = formats._json_loads(text)
    try:
        return coalgebra_from_obj(obj)
    except (InvalidValueError, FunctorSyntaxError) as e:
        raise formats.FormatError(str(e)) from None
    except RecursionError:
        raise formats.FormatError("input nested too deeply") from None


_AUT_HEADER = re.compile(r"des\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)\s*$")
_AUT_EDGE = re.compile(r"\(\s*(\d+)\s*,\s*(\"[^\"]*\"|[^,]+?)\s*,\s*(\d+)\s*\)\s*$")


def _reference_aut(formats, text):
    FormatError = formats.FormatError
    lines = [(i + 1, line.strip()) for i, line in enumerate(io.StringIO(text)) if line.strip()]
    if not lines:
        raise FormatError("empty aut file")
    lineno, header = lines[0]
    m = _AUT_HEADER.match(header)
    if not m:
        raise FormatError("header must be 'des (first, transitions, states)'", lineno)
    first, n_edges, n = (formats._aut_int(m.group(i), lineno) for i in (1, 2, 3))
    if n < 1:
        raise FormatError("state count must be positive", lineno)
    if n > formats.AUT_MAX_STATES:
        raise FormatError(f"{n} states exceed the limit of {formats.AUT_MAX_STATES}", lineno)
    if first >= n:
        raise FormatError("initial state out of range", lineno)
    if len(lines) - 1 != n_edges:
        raise FormatError(f"header promises {n_edges} transitions, found {len(lines) - 1}", lineno)
    edges, labels = [], set()
    for lineno, line in lines[1:]:
        m = _AUT_EDGE.match(line)
        if not m:
            raise FormatError(f"bad transition {line!r}", lineno)
        src, dst = formats._aut_int(m.group(1), lineno), formats._aut_int(m.group(3), lineno)
        label = m.group(2)
        if label.startswith('"'):
            label = label[1:-1]
        if not label:
            raise FormatError("empty transition label", lineno)
        if src >= n or dst >= n:
            raise FormatError(f"state out of range in {line!r}", lineno)
        labels.add(label)
        edges.append((src, label, dst))
    alphabet = tuple(sorted(labels)) if labels else ("tau",)
    functor = Powerset(Product((ConstSet(alphabet), Identity())))
    per_state = [[] for _ in range(n)]
    for src, label, dst in edges:
        per_state[src].append(TupleVal((Label(label), StateRef(dst))))
    return Coalgebra.make(functor, [SetVal(tuple(v)) for v in per_state])


def _reference_mc_tsv(formats, text):
    FormatError = formats.FormatError
    rows, max_state = [], -1
    for i, line in enumerate(io.StringIO(text)):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 3:
            raise FormatError("expected 'src dst num/den'", i + 1)
        try:
            src, dst = int(fields[0]), int(fields[1])
        except ValueError:
            raise FormatError("state ids must be integers", i + 1) from None
        try:
            prob = parse_probability(fields[2])
        except InvalidValueError as e:
            raise FormatError(str(e), i + 1) from None
        if src < 0 or dst < 0:
            raise FormatError("state ids must be nonnegative", i + 1)
        if prob == 0:
            raise FormatError("probability must be positive", i + 1)
        rows.append((src, dst, prob))
        max_state = max(max_state, src, dst)
    if max_state < 0:
        raise FormatError("empty chain file")
    n = max_state + 1
    if n > len(rows):
        raise FormatError(f"{n} states but {len(rows)} rows: some state has no outgoing row")
    per_state = [[] for _ in range(n)]
    for src, dst, prob in rows:
        per_state[src].append((StateRef(dst), prob))
    try:
        return Coalgebra.make(Distribution(Identity()), [DistVal(tuple(e)) for e in per_state])
    except InvalidValueError as e:
        raise FormatError(str(e)) from None


@dataclass
class CliResult:
    exit_code: int
    stdout: str
    stderr: str
    output: str  # stdout and stderr interleaved as written


class _Tee(io.StringIO):
    """A captured stream that also copies each write into ``shared``."""

    def __init__(self, shared):
        super().__init__()
        self.shared = shared

    def write(self, s):
        self.shared.write(s)
        return super().write(s)


def invoke_cli(argv) -> CliResult:
    """Run one ``bisimkit`` command in this process with stdout and stderr
    captured.  A crash propagates: no test expects one."""
    output = io.StringIO()
    out, err = _Tee(output), _Tee(output)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            cli.main(argv)
    except SystemExit as e:
        code = e.code
    else:
        raise AssertionError("cli.main returned without exiting")
    return CliResult(code, out.getvalue(), err.getvalue(), output.getvalue())
