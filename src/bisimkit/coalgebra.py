"""Finite coalgebras: a functor expression plus one observation per state.

Every coalgebra has one compiled form, :class:`CompiledForm`, built by
one walk over its values on first read and kept: per state the states its
value refers to, in value order, and, when the functor is rigid (no
powerset or distribution layer), a shape id.  A shape id numbers the flat
tuple of the value's labels and injection tags in value order; the functor
supplies the nesting, so a shape key and the refs decode back to the
value.  A loader of a rigid functor may build only the compiled form; the
values are then decoded from it on first read.

Also houses the predecessor index (who can see whom in one step) and the
signature evaluator used by the refinement algorithms; both read the
compiled form.  For rigid functors a state's signature is a flat tuple of
a shape id and block labels; otherwise it is :func:`values.signature_of`.
A naive sweep takes every state's key at once, for rigid functors from the
successor refs transposed into columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat, zip_longest
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
    "CompiledForm",
    "PredIndex",
    "build_pred_index",
    "SignatureEvaluator",
    "coalgebra_to_obj",
    "coalgebra_from_obj",
]


@dataclass(frozen=True)
class CompiledForm:
    """A coalgebra compiled: successor refs per state, shape ids if rigid.

    ``refs[x]`` lists the states occurring in x's value, in value order,
    repeats kept.  For a rigid functor ``keys[shape[x]]`` is the flat tuple
    of x's labels and injection tags in value order (:func:`_walk`), and
    shape ids are numbered in order of first occurrence; for a functor with
    a ``P`` or ``D`` layer ``shape`` is None.
    """

    refs: Sequence[tuple[int, ...]]
    shape: Optional[Sequence[int]] = None
    keys: tuple = ()


@dataclass(frozen=True, eq=False)
class Coalgebra:
    """A finite state space with one value per state.

    It holds its values, its :class:`CompiledForm`, or both; ``values``
    and ``form`` derive a missing one on first read and keep it.  Only a
    rigid form (one with shapes) can stand in for the values.  Equality
    compares the functor and the values.
    """

    functor: FunctorExpr
    n_states: int
    _values: Optional[tuple[FValue, ...]] = field(default=None, repr=False)
    _form: Optional[CompiledForm] = field(default=None, repr=False)

    def __post_init__(self):
        if self.n_states < 1:
            raise InvalidValueError("a coalgebra needs at least one state")
        if self._values is not None:
            have = len(self._values)
        elif self._form is not None and self._form.shape is not None:
            have = len(self._form.shape)
        else:
            raise InvalidValueError("a coalgebra needs its values or a rigid compiled form")
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
    def from_form(cls, functor: FunctorExpr, form: CompiledForm) -> "Coalgebra":
        """A coalgebra of the rigid ``functor`` given by its compiled form.

        Nothing is validated: the caller has checked that every shape key
        fits the functor and every ref lies below the state count.
        """
        return cls(functor, len(form.refs), None, form)

    @property
    def values(self) -> tuple[FValue, ...]:
        if self._values is None:
            form = self._form
            values = tuple(
                _decode(self.functor, iter(form.keys[sh]), iter(refs))
                for sh, refs in zip(form.shape, form.refs)
            )
            object.__setattr__(self, "_values", values)
        return self._values

    @property
    def form(self) -> CompiledForm:
        """The compiled form, built from the values on first read and kept."""
        if self._form is None:
            object.__setattr__(self, "_form", _compile(self._values, is_rigid(self.functor)))
        return self._form

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


def _walk(v: FValue, refs: list[int], key: list) -> None:
    """Append the state references of ``v`` to ``refs`` and its labels and
    injection tags to ``key``, both in value order."""
    # one type() call and identity tests: values are never subclassed, and
    # this walk is most of a general coalgebra's compile time
    t = type(v)
    if t is StateRef:
        refs.append(v.index)
    elif t is TupleVal:
        for i in v.items:
            _walk(i, refs, key)
    elif t is Label:
        key.append(v.name)
    elif t is SetVal:
        for m in v.members:
            _walk(m, refs, key)
    elif t is DistVal:
        for x, _ in v.entries:
            _walk(x, refs, key)
    elif t is FunVal:
        for _, x in v.entries:
            _walk(x, refs, key)
    elif t is InjVal:
        key.append(v.tag)
        _walk(v.value, refs, key)
    else:
        raise TypeError(f"not a value: {v!r}")


def _compile(values: Sequence[FValue], rigid: bool) -> CompiledForm:
    """The compiled form of ``values``: one walk per value, shape ids interned
    from the walk's keys when the functor is rigid."""
    refs: list[tuple[int, ...]] = []
    shape: list[int] = []
    intern: dict = {}
    for v in values:
        r: list[int] = []
        k: list = []
        _walk(v, r, k)
        refs.append(tuple(r))
        if rigid:
            shape.append(intern.setdefault(tuple(k), len(intern)))
    return CompiledForm(refs, shape if rigid else None, tuple(intern))


def _decode(expr: FunctorExpr, key: Iterator, refs: Iterator[int]) -> FValue:
    """The value of rigid ``expr`` whose labels and injection tags are read
    from ``key`` and whose state references from ``refs``: the inverse of
    :func:`_walk`."""
    if isinstance(expr, Identity):
        return StateRef(next(refs))
    if isinstance(expr, ConstSet):
        return Label(next(key))
    if isinstance(expr, Product):
        return TupleVal(tuple(_decode(f, key, refs) for f in expr.factors))
    if isinstance(expr, Coproduct):
        tag = next(key)
        return InjVal(tag, _decode(expr.summands[tag], key, refs))
    if isinstance(expr, Exponent):
        return FunVal(tuple((a, _decode(expr.base, key, refs)) for a in sorted(expr.labels)))
    raise TypeError(f"not a rigid functor expression: {expr!r}")


def _no_labels(block_of) -> tuple:
    return ()


class SignatureEvaluator:
    """Per-coalgebra compiled signature computation.

    ``signature(x, block_of)`` returns a hashable key; two states of the same
    coalgebra get equal keys under ``block_of`` exactly when their full
    canonical signatures agree.  ``sweep_keys(block_of)`` yields every
    state's ``(block, signature)`` pair at once, in another key form: two
    of its keys are equal exactly when the states' blocks and ``signature``
    keys are.  Keys from different evaluators, modes or methods are not
    comparable.  ``refs[x]`` lists the states occurring in x's value, in
    value order, repeats kept.
    """

    __slots__ = ("n_states", "refs", "_shape", "_labels", "_values", "_columns")

    def __init__(self, coalg: Coalgebra):
        form = coalg.form
        self.n_states = coalg.n_states
        self.refs = form.refs
        self._shape = form.shape
        self._columns = None
        if form.shape is None:
            self._values = coalg.values
            return
        self._values = None
        # per state, a getter of its successors' block labels; a shape
        # fixes the number of refs, so equal shapes give keys of one form
        self._labels = [itemgetter(*r) if r else _no_labels for r in form.refs]

    def signature(self, x: int, block_of):
        if self._shape is not None:
            return (self._shape[x], self._labels[x](block_of))
        return signature_of(self._values[x], block_of)

    def sweep_keys(self, block_of: Sequence[int]) -> Iterator[tuple]:
        """Every state's key, in state order: ``block_of[x]`` first, then
        x's signature in a form of its own, computed column by column.

        For a rigid functor a key is the block, the shape id and the blocks
        of the successors, one column of the transposed refs each.  The
        columns are built on the first call and kept.  A state with fewer
        refs than the widest is padded with state -1, whose block is then
        in every key of its shape at the same place: a shape fixes the
        number of refs, so the pad cannot tell states of one shape apart.
        """
        if self._shape is None:
            return zip(block_of, map(signature_of, self._values, repeat(block_of)))
        if self._columns is None:
            self._columns = list(zip_longest(*self.refs, fillvalue=-1))
        get = block_of.__getitem__
        return zip(block_of, self._shape, *[map(get, col) for col in self._columns])


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
