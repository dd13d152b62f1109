"""Finite coalgebras: a functor expression plus one observation per state.

Also houses the predecessor index (who can see whom in one step) and the
signature evaluator used by the refinement algorithms.  The evaluator
pre-compiles each state's value: for rigid functors (no powerset or
distribution layer) a state's signature is a flat tuple of a shape id and
block labels, otherwise a small prepared tree is interpreted with constant
subtrees folded away.  The same walk records each state's successor refs,
from which the predecessor index is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .functors import FunctorExpr, is_rigid, parse_functor, render_functor
from .values import (
    DistVal,
    FValue,
    FunVal,
    InjVal,
    InvalidValueError,
    Label,
    SetVal,
    StateRef,
    TupleVal,
    validate_value,
    value_from_obj,
    value_to_obj,
)

__all__ = [
    "Coalgebra",
    "PredIndex",
    "build_pred_index",
    "SignatureEvaluator",
    "coalgebra_to_obj",
    "coalgebra_from_obj",
]


@dataclass(frozen=True)
class Coalgebra:
    """A finite state space with one value per state."""

    functor: FunctorExpr
    n_states: int
    values: tuple[FValue, ...]

    def __post_init__(self):
        if self.n_states < 1:
            raise InvalidValueError("a coalgebra needs at least one state")
        if len(self.values) != self.n_states:
            raise InvalidValueError(
                f"{len(self.values)} values for {self.n_states} states"
            )

    @classmethod
    def make(cls, functor: FunctorExpr, values: Sequence[FValue]) -> "Coalgebra":
        """Construct and validate every state's value against the functor."""
        c = cls(functor, len(values), tuple(values))
        for x, v in enumerate(c.values):
            try:
                validate_value(functor, v, c.n_states)
            except InvalidValueError as e:
                raise type(e)(f"state {x}: {e}") from None
        return c


@dataclass(frozen=True)
class PredIndex:
    """Predecessor lists: ``x in preds[y]`` iff state y occurs in x's value.

    ``m`` is the total number of predecessor pairs, ``max_indegree`` the
    largest single list.
    """

    preds: tuple[tuple[int, ...], ...]
    m: int
    max_indegree: int


def build_pred_index(ev: SignatureEvaluator) -> PredIndex:
    """Predecessor lists from the successor refs the evaluator compiled."""
    preds: list[list[int]] = [[] for _ in range(ev.n_states)]
    for x, refs in enumerate(ev.refs):
        for y in set(refs):
            preds[y].append(x)
    m = sum(len(p) for p in preds)
    big = max((len(p) for p in preds), default=0)
    return PredIndex(tuple(tuple(p) for p in preds), m, big)


# -- signature evaluation -------------------------------------------------------

_CONST, _REF, _TUP, _INJ, _SET, _DIST = range(6)


def _prepare(v: FValue, refs: list[int]):
    """Compile a value into (has_refs, node); constant subtrees are folded.

    Every state reference met on the way is appended to ``refs``.
    """
    if isinstance(v, StateRef):
        refs.append(v.index)
        return True, (_REF, v.index)
    if isinstance(v, Label):
        return False, (_CONST, v.name)
    if isinstance(v, TupleVal):
        parts = [_prepare(i, refs) for i in v.items]
        if any(h for h, _ in parts):
            return True, (_TUP, tuple(n for _, n in parts))
        return False, (_CONST, tuple(n[1] for _, n in parts))
    if isinstance(v, InjVal):
        h, n = _prepare(v.value, refs)
        if h:
            return True, (_INJ, (v.tag, n))
        return False, (_CONST, (v.tag, n[1]))
    if isinstance(v, FunVal):
        parts = [_prepare(x, refs) for _, x in v.entries]
        if any(h for h, _ in parts):
            return True, (_TUP, tuple(n for _, n in parts))
        return False, (_CONST, tuple(n[1] for _, n in parts))
    if isinstance(v, SetVal):
        parts = [_prepare(m, refs) for m in v.members]
        if any(h for h, _ in parts):
            return True, (_SET, tuple(n for _, n in parts))
        return False, (_CONST, tuple(sorted({n[1] for _, n in parts})))
    if isinstance(v, DistVal):
        parts = [(_prepare(x, refs), p) for x, p in v.entries]
        if any(h for (h, _), _ in parts):
            return True, (_DIST, tuple((n, p) for (_, n), p in parts))
        acc: dict = {}
        for (_, n), p in parts:
            acc[n[1]] = acc.get(n[1], Fraction(0)) + p
        return False, (_CONST, tuple(sorted(acc.items())))
    raise TypeError(f"not a value: {v!r}")


def _eval_node(node, block_of):
    tag, payload = node
    if tag == _CONST:
        return payload
    if tag == _REF:
        return block_of[payload]
    if tag == _TUP:
        return tuple(_eval_node(c, block_of) for c in payload)
    if tag == _INJ:
        return (payload[0], _eval_node(payload[1], block_of))
    if tag == _SET:
        return tuple(sorted({_eval_node(c, block_of) for c in payload}))
    acc: dict = {}
    for c, p in payload:
        s = _eval_node(c, block_of)
        acc[s] = acc.get(s, Fraction(0)) + p
    return tuple(sorted(acc.items()))


def _rigid_skeleton(v: FValue, refs: list[int]):
    """Shape of a rigid value with state positions blanked, refs in order."""
    if isinstance(v, StateRef):
        refs.append(v.index)
        return ("@",)
    if isinstance(v, Label):
        return v.name
    if isinstance(v, TupleVal):
        return tuple(_rigid_skeleton(i, refs) for i in v.items)
    if isinstance(v, InjVal):
        return (v.tag, _rigid_skeleton(v.value, refs))
    if isinstance(v, FunVal):
        return tuple(_rigid_skeleton(x, refs) for _, x in v.entries)
    raise TypeError(f"value {v!r} is not rigid")


class SignatureEvaluator:
    """Per-coalgebra compiled signature computation.

    ``signature(x, block_of)`` returns a hashable key; two states of the same
    coalgebra get equal keys under ``block_of`` exactly when their full
    canonical signatures agree.  Keys from different evaluators or different
    modes are not comparable.  ``refs[x]`` lists the states occurring in x's
    value, in value order, repeats kept.
    """

    __slots__ = ("n_states", "refs", "_mode", "_skel", "_prep")

    def __init__(self, coalg: Coalgebra):
        self.n_states = coalg.n_states
        self.refs = []
        if is_rigid(coalg.functor):
            self._mode = "rigid"
            intern: dict = {}
            self._skel = []
            for v in coalg.values:
                refs: list[int] = []
                sk = _rigid_skeleton(v, refs)
                self._skel.append(intern.setdefault(sk, len(intern)))
                self.refs.append(tuple(refs))
            self._prep = None
        else:
            self._mode = "general"
            self._prep = []
            for v in coalg.values:
                refs = []
                self._prep.append(_prepare(v, refs)[1])
                self.refs.append(tuple(refs))
            self._skel = None

    def signature(self, x: int, block_of):
        if self._mode == "rigid":
            return (self._skel[x], *map(block_of.__getitem__, self.refs[x]))
        return _eval_node(self._prep[x], block_of)


# -- JSON ------------------------------------------------------------------------
#
#   {"functor": "<grammar string>", "states": n, "c": [<value>, ...]}


def coalgebra_to_obj(coalg: Coalgebra) -> dict:
    return {
        "functor": render_functor(coalg.functor),
        "states": coalg.n_states,
        "c": [value_to_obj(v) for v in coalg.values],
    }


def coalgebra_from_obj(obj) -> Coalgebra:
    if not isinstance(obj, dict):
        raise InvalidValueError("coalgebra document must be a JSON object")
    for key in ("functor", "states", "c"):
        if key not in obj:
            raise InvalidValueError(f"coalgebra document missing {key!r}")
    if not isinstance(obj["functor"], str):
        raise InvalidValueError("'functor' must be a string")
    functor = parse_functor(obj["functor"])
    n = obj["states"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InvalidValueError(f"bad state count: {n!r}")
    if not isinstance(obj["c"], list):
        raise InvalidValueError("'c' must be an array of values")
    values = [value_from_obj(o) for o in obj["c"]]
    if len(values) != n:
        raise InvalidValueError(f"{len(values)} values for {n} states")
    return Coalgebra.make(functor, values)
