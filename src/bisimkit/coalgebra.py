"""Finite coalgebras: a functor expression plus one observation per state.

A coalgebra of a rigid functor (no powerset or distribution layer) also
has a compiled form, :class:`RigidForm`: per state a shape id and the
states at its ``X`` positions.  A loader may build only that form; the
values are then decoded from it on first read.

Also houses the predecessor index (who can see whom in one step) and the
signature evaluator used by the refinement algorithms.  The evaluator
takes each state's successor refs from the compiled form, or from one walk
over the values of a general functor; the predecessor index is built from
those refs.  For rigid functors a state's signature is a flat tuple of a
shape id and block labels; otherwise it is :func:`values.signature_of`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterator, Optional, Sequence

from .functors import (
    ConstSet,
    Coproduct,
    Exponent,
    FunctorExpr,
    Identity,
    Product,
    is_rigid,
    parse_functor,
    render_functor,
)
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
    "RigidForm",
    "PredIndex",
    "build_pred_index",
    "SignatureEvaluator",
    "coalgebra_to_obj",
    "coalgebra_from_obj",
]


@dataclass(frozen=True)
class RigidForm:
    """A rigid coalgebra compiled: one shape id and one refs tuple per state.

    ``skeletons[shape[x]]`` is state x's value with its state references
    blanked (:func:`_skeleton`), and ``refs[x]`` lists those references in
    value order.  Shape ids are numbered in order of first occurrence.
    """

    shape: Sequence[int]
    refs: Sequence[tuple[int, ...]]
    skeletons: tuple


@dataclass(frozen=True, eq=False)
class Coalgebra:
    """A finite state space with one value per state.

    It holds its values, its :class:`RigidForm`, or both; ``values`` and
    ``rigid`` derive a missing one on first read and keep it.  Equality
    compares the functor and the values.
    """

    functor: FunctorExpr
    n_states: int
    _values: Optional[tuple[FValue, ...]] = field(default=None, repr=False)
    _rigid: Optional[RigidForm] = field(default=None, repr=False)

    def __post_init__(self):
        if self.n_states < 1:
            raise InvalidValueError("a coalgebra needs at least one state")
        if self._values is not None:
            have = len(self._values)
        elif self._rigid is not None:
            have = len(self._rigid.shape)
        else:
            raise InvalidValueError("a coalgebra needs its values or its compiled form")
        if have != self.n_states:
            raise InvalidValueError(f"{have} values for {self.n_states} states")

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

    @classmethod
    def from_rigid(cls, functor: FunctorExpr, form: RigidForm) -> "Coalgebra":
        """A coalgebra of the rigid ``functor`` given by its compiled form.

        Nothing is validated: the caller has checked that every skeleton
        fits the functor and every ref lies below the state count.
        """
        return cls(functor, len(form.shape), None, form)

    @property
    def values(self) -> tuple[FValue, ...]:
        if self._values is None:
            form = self._rigid
            values = tuple(
                _decode(self.functor, form.skeletons[sh], iter(refs))
                for sh, refs in zip(form.shape, form.refs)
            )
            object.__setattr__(self, "_values", values)
        return self._values

    @property
    def rigid(self) -> Optional[RigidForm]:
        """The compiled form; None when the functor is not rigid."""
        if self._rigid is None and is_rigid(self.functor):
            object.__setattr__(self, "_rigid", _compile_rigid(self._values))
        return self._rigid

    def __eq__(self, other):
        if not isinstance(other, Coalgebra):
            return NotImplemented
        return (self.functor, self.n_states, self.values) == (
            other.functor, other.n_states, other.values
        )

    def __hash__(self):
        return hash((self.functor, self.n_states, self.values))


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
    sizes = list(map(len, preds))
    return PredIndex(tuple(map(tuple, preds)), sum(sizes), max(sizes, default=0))


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
    raise TypeError(f"not a rigid value: {v!r}")


def _decode(expr: FunctorExpr, skel, refs: Iterator[int]) -> FValue:
    """The value of rigid ``expr`` whose skeleton is ``skel`` and whose state
    references are read from ``refs``: the inverse of :func:`_skeleton`."""
    if isinstance(expr, Identity):
        return StateRef(next(refs))
    if isinstance(expr, ConstSet):
        return Label(skel)
    if isinstance(expr, Product):
        return TupleVal(tuple(_decode(f, s, refs) for f, s in zip(expr.factors, skel)))
    if isinstance(expr, Coproduct):
        tag, inner = skel
        return InjVal(tag, _decode(expr.summands[tag], inner, refs))
    if isinstance(expr, Exponent):
        items = [_decode(expr.base, s, refs) for s in skel]
        return FunVal(tuple(zip(sorted(expr.labels), items)))
    raise TypeError(f"not a rigid functor expression: {expr!r}")


def _compile_rigid(values: Sequence[FValue]) -> RigidForm:
    shape: list[int] = []
    refs: list[tuple[int, ...]] = []
    intern: dict = {}
    for v in values:
        r: list[int] = []
        shape.append(intern.setdefault(_skeleton(v, r), len(intern)))
        refs.append(tuple(r))
    return RigidForm(shape, refs, tuple(intern))


def _collect_refs(v: FValue, refs: list[int]) -> None:
    """Append the state references of ``v`` in value order."""
    if isinstance(v, StateRef):
        refs.append(v.index)
    elif isinstance(v, TupleVal):
        for i in v.items:
            _collect_refs(i, refs)
    elif isinstance(v, SetVal):
        for m in v.members:
            _collect_refs(m, refs)
    elif isinstance(v, InjVal):
        _collect_refs(v.value, refs)
    elif isinstance(v, FunVal):
        for _, x in v.entries:
            _collect_refs(x, refs)
    elif isinstance(v, DistVal):
        for x, _ in v.entries:
            _collect_refs(x, refs)
    elif not isinstance(v, Label):
        raise TypeError(f"not a value: {v!r}")


def _no_labels(block_of) -> tuple:
    return ()


class SignatureEvaluator:
    """Per-coalgebra compiled signature computation.

    ``signature(x, block_of)`` returns a hashable key; two states of the same
    coalgebra get equal keys under ``block_of`` exactly when their full
    canonical signatures agree.  Keys from different evaluators or different
    modes are not comparable.  ``refs[x]`` lists the states occurring in x's
    value, in value order, repeats kept.
    """

    __slots__ = ("n_states", "refs", "_shape", "_labels", "_values")

    def __init__(self, coalg: Coalgebra):
        self.n_states = coalg.n_states
        form = coalg.rigid
        if form is not None:
            self._shape = form.shape
            self._values = None
            self.refs = form.refs
            # per state, a getter of its successors' block labels; a shape
            # fixes the number of refs, so equal shapes give keys of one form
            self._labels = [itemgetter(*r) if r else _no_labels for r in form.refs]
            return
        self._shape = None
        self._values = coalg.values
        self.refs = []
        for v in self._values:
            refs: list[int] = []
            _collect_refs(v, refs)
            self.refs.append(tuple(refs))

    def signature(self, x: int, block_of):
        if self._shape is not None:
            return (self._shape[x], self._labels[x](block_of))
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
