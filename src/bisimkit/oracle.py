"""Brute-force bisimilarity and partition comparison.

Deliberately independent of the refinement engine: no trees, no dirty
sets, no signatures, no shared canonicalization, nothing the engine
compiles.  ``related`` is the one semantics of one-step relatedness: a
recursive match, forth and back for sets, and for distributions equal
mass per bucket (a state's class, or the first related earlier entry).
Under a fixed class labelling it is an equivalence, so the fixpoint
splits each class by relatedness to one representative per group, round
after round, until no class splits.  Used to cross-check engine output.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .coalgebra import Coalgebra
from .engine import Partition
from .values import DistVal, FunVal, FValue, InjVal, Label, SetVal, StateRef, TupleVal

__all__ = [
    "bisim_bruteforce",
    "related",
    "partitions_equal",
]

BRUTEFORCE_STATE_LIMIT = 10**4


def related(a: FValue, b: FValue, class_of: Sequence[int]) -> bool:
    """One-step relatedness of two values under classes given by class_of.

    Under a fixed class_of this is an equivalence (reflexive, symmetric,
    transitive), so one representative decides membership of a group.
    Sets match forth and back.  Distributions match when they give each
    bucket the same mass: a state's bucket is its class, any other
    entry's the first earlier entry, of either side, related to it.
    """
    # one type() call and identity tests: values are never subclassed
    t = type(a)
    if t is not type(b):
        return False
    if t is StateRef:
        return class_of[a.index] == class_of[b.index]
    if t is TupleVal:
        if len(a.items) != len(b.items):
            return False
        for x, y in zip(a.items, b.items):
            if not related(x, y, class_of):
                return False
        return True
    if t is Label:
        return a.name == b.name
    if t is SetVal:
        # forth and back: every member has a related member on the other side
        for x in a.members:
            for y in b.members:
                if related(x, y, class_of):
                    break
            else:
                return False
        for y in b.members:
            for x in a.members:
                if related(x, y, class_of):
                    break
            else:
                return False
        return True
    if t is DistVal:
        # bucket i of a non-state entry is keyed ~i, below every class id
        reps: list[FValue] = []
        ma: dict[int, Fraction] = {}
        mb: dict[int, Fraction] = {}
        for d, m in ((a, ma), (b, mb)):
            for v, p in d.entries:
                if type(v) is StateRef:
                    k = class_of[v.index]
                else:
                    for i, r in enumerate(reps):
                        if related(v, r, class_of):
                            k = ~i
                            break
                    else:
                        k = ~len(reps)
                        reps.append(v)
                m[k] = m[k] + p if k in m else p
        return ma == mb
    if t is FunVal:
        if len(a.entries) != len(b.entries):
            return False
        for (ka, x), (kb, y) in zip(a.entries, b.entries):
            if ka != kb or not related(x, y, class_of):
                return False
        return True
    if t is InjVal:
        return a.tag == b.tag and related(a.value, b.value, class_of)
    raise TypeError(f"not a value: {a!r}")


def bisim_bruteforce(coalg: Coalgebra) -> Partition:
    """Greatest-fixpoint bisimilarity by splitting classes.

    Start from one class.  Each round splits every class into groups: a
    state joins the first group whose first member it is one-step related
    to under the round's classes, or starts a group of its own.  When no
    class splits, the classes are the answer.
    """
    n = coalg.n_states
    if n > BRUTEFORCE_STATE_LIMIT:
        raise ValueError(f"brute force capped at {BRUTEFORCE_STATE_LIMIT} states")
    values = coalg.values
    classes = [list(range(n))]
    class_of = [0] * n
    while True:
        new_classes = []
        for cls_ in classes:
            groups: list[list[int]] = []
            for x in cls_:
                vx = values[x]
                for group in groups:
                    if related(vx, values[group[0]], class_of):
                        group.append(x)
                        break
                else:
                    groups.append([x])
            new_classes.extend(groups)
        if len(new_classes) == len(classes):
            return Partition.from_blocks(classes, n)
        classes = new_classes
        for i, cls_ in enumerate(classes):
            for x in cls_:
                class_of[x] = i


def partitions_equal(p: Partition, q: Partition) -> bool:
    """Same kernel: identical grouping regardless of block numbering."""
    if p.n_states != q.n_states:
        raise ValueError(f"state counts differ: {p.n_states} vs {q.n_states}")
    seen: dict[int, int] = {}
    for x in range(p.n_states):
        a, b = p.block_of[x], q.block_of[x]
        if a in seen:
            if seen[a] != b:
                return False
        else:
            seen[a] = b
    return len(set(seen.values())) == len(seen)
