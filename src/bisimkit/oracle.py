"""Brute-force bisimilarity and partition comparison.

Deliberately independent of the refinement engine: no trees, no dirty
sets, no shared canonicalization.  Relatedness of two values under an
equivalence is decided by a direct recursive matching (forth-and-back for
sets, per-class probability sums for distributions), and the fixpoint is
computed on an explicit pair matrix.  Used to cross-check engine output.

The fixpoint is Kanellakis and Smolka's pair elimination, with one
saving.  The first round checks every pair.  When a round splits a class
into pieces, one largest piece is left out, and the next round rechecks
only the related pairs that contain a predecessor of a state in another
piece.  This is sound because relatedness of two values depends only on
which of their successors share a class.  Classes only split, so
successors in different classes stay apart.  Two successors that shared an
old class still do if the class did not split or both lie in the piece
left out.  Otherwise one of them lies in another piece, and its
predecessor is rechecked.  So a pair that is not rechecked keeps its last
verdict.  Any single piece may be left out; the largest costs least.  The
oracle builds its own predecessor lists and reads nothing the engine
compiles.
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


def _successors(v: FValue, out: list[int]) -> None:
    """Append the states ``v`` refers to."""
    t = type(v)
    if t is StateRef:
        out.append(v.index)
    elif t is TupleVal:
        for x in v.items:
            _successors(x, out)
    elif t is SetVal:
        for x in v.members:
            _successors(x, out)
    elif t is DistVal:
        for x, _ in v.entries:
            _successors(x, out)
    elif t is FunVal:
        for _, x in v.entries:
            _successors(x, out)
    elif t is InjVal:
        _successors(v.value, out)
    elif t is not Label:
        raise TypeError(f"not a value: {v!r}")


def _predecessors(values: Sequence[FValue]) -> list[list[int]]:
    """Per state, the states whose values refer to it, each listed once."""
    preds: list[list[int]] = [[] for _ in values]
    for x, v in enumerate(values):
        out: list[int] = []
        _successors(v, out)
        for s in set(out):
            preds[s].append(x)
    return preds


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


def _components(rows: list[bytearray], members: Sequence[int]) -> list[list[int]]:
    """Connected components of the relation graph on ``members``, each sorted."""
    seen = set()
    comps = []
    for x in members:
        if x in seen:
            continue
        seen.add(x)
        comp = [x]
        for u in comp:
            row = rows[u]
            for v in members:
                if row[v] and v not in seen:
                    seen.add(v)
                    comp.append(v)
        comp.sort()
        comps.append(comp)
    return comps


def bisim_bruteforce(coalg: Coalgebra) -> Partition:
    """Greatest-fixpoint bisimilarity by pair elimination.

    Start from the total relation; repeatedly drop pairs whose values are
    not one-step related under the classes of the current relation's
    equivalence closure.  The classes at the fixpoint are the answer.  The
    first round checks every pair; a later round rechecks only the pairs
    with a state that refers into a piece of a class the round before split,
    all but one largest piece per class (see the module docstring).
    """
    n = coalg.n_states
    if n > BRUTEFORCE_STATE_LIMIT:
        raise ValueError(f"brute force capped at {BRUTEFORCE_STATE_LIMIT} states")
    rows = [bytearray([1]) * n for _ in range(n)]  # the total relation
    values = coalg.values
    classes = [list(range(n))] if n else []
    class_of = [0] * n
    recheck = bytearray([1]) * n
    preds = None
    while True:
        masses: dict = {}
        changed = []
        for cls_ in classes:
            removed = False
            for x in cls_:
                if not recheck[x]:
                    continue
                row, vx = rows[x], values[x]
                for y in cls_:
                    # a pair of two rechecked states is checked once, from its smaller state
                    if (
                        row[y]
                        and (y > x or not recheck[y])
                        and not _related(vx, values[y], class_of, masses)
                    ):
                        row[y] = rows[y][x] = 0
                        removed = True
            changed.append(removed)
        if not any(changed):
            return Partition.from_blocks(classes, n)
        if preds is None:
            preds = _predecessors(values)
        recheck = bytearray(n)
        new_classes = []
        for cls_, removed in zip(classes, changed):
            # the relation only shrinks, so its new classes refine the old ones
            pieces = _components(rows, cls_) if removed else [cls_]
            if len(pieces) > 1:
                kept = max(pieces, key=len)
                for piece in pieces:
                    if piece is not kept:
                        for s in piece:
                            for p in preds[s]:
                                recheck[p] = 1
            new_classes.extend(pieces)
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
