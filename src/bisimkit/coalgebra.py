"""Finite coalgebras: a functor expression plus one observation per state.

Also houses the predecessor index (who can see whom in one step) and the
signature evaluator used by the refinement algorithms.  The evaluator
walks each state's value once, recording its successor refs, from which
the predecessor index is built.  For rigid functors (no powerset or
distribution layer) a state's signature is a flat tuple of a shape id and
block labels; otherwise it is :func:`values.signature_of`.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    signature_of,
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


def _skeleton(v: FValue, refs: list[int]):
    """Shape of a value with state positions blanked; refs appended in order."""
    if isinstance(v, StateRef):
        refs.append(v.index)
        return ("@",)
    if isinstance(v, Label):
        return v.name
    if isinstance(v, TupleVal):
        return tuple(_skeleton(i, refs) for i in v.items)
    if isinstance(v, InjVal):
        return (v.tag, _skeleton(v.value, refs))
    if isinstance(v, FunVal):
        return tuple(_skeleton(x, refs) for _, x in v.entries)
    if isinstance(v, SetVal):
        return tuple(_skeleton(m, refs) for m in v.members)
    if isinstance(v, DistVal):
        return tuple((_skeleton(x, refs), p) for x, p in v.entries)
    raise TypeError(f"not a value: {v!r}")


class SignatureEvaluator:
    """Per-coalgebra compiled signature computation.

    ``signature(x, block_of)`` returns a hashable key; two states of the same
    coalgebra get equal keys under ``block_of`` exactly when their full
    canonical signatures agree.  Keys from different evaluators or different
    modes are not comparable.  ``refs[x]`` lists the states occurring in x's
    value, in value order, repeats kept.
    """

    __slots__ = ("n_states", "refs", "_skel", "_values")

    def __init__(self, coalg: Coalgebra):
        self.n_states = coalg.n_states
        self.refs = []
        rigid = is_rigid(coalg.functor)
        intern: dict = {}
        self._skel = [] if rigid else None
        self._values = None if rigid else coalg.values
        for v in coalg.values:
            refs: list[int] = []
            sk = _skeleton(v, refs)
            if rigid:
                self._skel.append(intern.setdefault(sk, len(intern)))
            self.refs.append(tuple(refs))

    def signature(self, x: int, block_of):
        if self._skel is not None:
            return (self._skel[x], *map(block_of.__getitem__, self.refs[x]))
        return signature_of(self._values[x], block_of)


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
