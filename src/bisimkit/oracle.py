"""Brute-force bisimilarity and partition comparison.

Deliberately independent of the refinement engine: no trees, no dirty
sets, no signatures, no shared canonicalization.  Relatedness of two
values under a class labelling is decided by a direct recursive matching
(forth-and-back for sets, per-class probability sums for distributions).
Under a fixed labelling it is an equivalence, so the fixpoint is computed
by splitting each class by relatedness to one representative per group,
round after round, until no class splits.  The oracle walks the values
itself and reads nothing the engine compiles.  Used to cross-check engine
output.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

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
    """One-step relatedness of two values under classes given by class_of."""
    return _related(a, b, class_of, {})


def _related(a: FValue, b: FValue, class_of: Sequence[int], masses: dict) -> bool:
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
            if not _related(x, y, class_of, masses):
                return False
        return True
    if t is Label:
        return a.name == b.name
    if t is SetVal:
        # forth and back: every member has a related member on the other side
        for x in a.members:
            for y in b.members:
                if _related(x, y, class_of, masses):
                    break
            else:
                return False
        for y in b.members:
            for x in a.members:
                if _related(x, y, class_of, masses):
                    break
            else:
                return False
        return True
    if t is DistVal:
        ma = _flat_masses(a, class_of, masses)
        mb = _flat_masses(b, class_of, masses)
        if ma is not None or mb is not None:
            # a distribution that is not flat has entries, none of them
            # a state, so it never matches a flat one
            return ma == mb
        return _bucket_masses(a, b, class_of, masses)
    if t is FunVal:
        if len(a.entries) != len(b.entries):
            return False
        for (ka, x), (kb, y) in zip(a.entries, b.entries):
            if ka != kb or not _related(x, y, class_of, masses):
                return False
        return True
    if t is InjVal:
        return a.tag == b.tag and _related(a.value, b.value, class_of, masses)
    raise TypeError(f"not a value: {a!r}")


def _flat_masses(d: DistVal, class_of: Sequence[int], masses: dict) -> Optional[dict]:
    """Mass per class of a distribution over states, or None if some entry
    is not a state; kept in ``masses`` under the value's id."""
    key = id(d)
    m = masses.get(key, False)
    if m is False:
        m = {}
        for v, p in d.entries:
            if type(v) is not StateRef:
                m = None
                break
            k = class_of[v.index]
            m[k] = m[k] + p if k in m else p
        masses[key] = m
    return m


def _bucket_masses(a: DistVal, b: DistVal, class_of: Sequence[int], masses: dict) -> bool:
    """Group both distributions' mass by relatedness and compare the sums."""
    reps: list[FValue] = []
    sums_a: list[Fraction] = []
    sums_b: list[Fraction] = []

    def bucket(v: FValue) -> int:
        for i, r in enumerate(reps):
            if _related(v, r, class_of, masses):
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
    classes = [list(range(n))] if n else []
    class_of = [0] * n
    while True:
        masses: dict = {}
        new_classes = []
        for cls_ in classes:
            groups: list[list[int]] = []
            for x in cls_:
                vx = values[x]
                for group in groups:
                    if _related(vx, values[group[0]], class_of, masses):
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
