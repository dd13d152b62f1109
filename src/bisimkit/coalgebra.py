"""Finite coalgebras: a functor expression plus one observation per state.

Every coalgebra has one compiled form, :class:`CompiledForm`, that stands
in for its values: per state the states its value refers to, in value
order, and the rest of the value as a flat code of plain ints and strings
(labels, injection tags, a member count per powerset layer, an entry count
and integer masses per distribution layer).  The functor supplies the
nesting, so the code and the refs decode back to the value.  A coalgebra
built from values compiles them by one walk on first read of its form; the
loaders build the form alone, and the values are decoded from it on first
read.  The code of a set or a distribution is written by :func:`_set_code`
and :func:`_dist_code` alone, for the walk and for every loader.

Also houses the predecessor index (who can see whom in one step) and the
signature evaluator used by the refinement algorithms; both read the
compiled form.  For rigid functors (no ``P`` or ``D`` layer) a state's key
is a flat tuple of a shape id and block labels.  Otherwise one builder,
:func:`_column_plan`, reads the codes column by column into keys mirroring
the values' signatures (``signature_of`` in ``tests/util.py``): a powerset
as a frozenset of member keys, a distribution as a frozenset of (key, mass)
pairs, masses summed per key and divided by their gcd.  It keys every state for a naive sweep and a leaf's
dirty states for a split.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice, repeat, zip_longest
from math import gcd, lcm
from operator import itemgetter
from typing import Iterator, Optional, Sequence

from .functors import (
    ConstSet,
    Coproduct,
    Distribution,
    Exponent,
    FunctorExpr,
    Identity,
    Powerset,
    Product,
    is_rigid,
    parse_functor,
    render_functor,
)
from .values import (
    _TOO_MANY_DIGITS,
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
    "CompiledForm",
    "PredIndex",
    "build_pred_index",
    "SignatureEvaluator",
    "coalgebra_to_obj",
    "coalgebra_from_obj",
]


@dataclass(frozen=True)
class CompiledForm:
    """A coalgebra compiled: successor refs and a flat code per state.

    ``refs[x]`` lists the states occurring in x's value, in value order,
    repeats kept.  x's code lists the rest of the value in value order
    (:func:`_walk`): labels, injection tags, a member count before the
    members of each ``P`` layer, and an entry count before the entries of
    each ``D`` layer, each entry led by its integer mass over the
    distribution's least common denominator (so a distribution's masses
    are coprime and sum to that denominator).  Members and entries are in
    the values' canonical order, deduplicated and merged.  For a rigid
    functor the code is ``keys[shape[x]]``, shape ids numbered in order of
    first occurrence, and ``code`` is None; otherwise it is ``code[x]``
    and ``shape`` is None.
    """

    refs: Sequence[tuple[int, ...]]
    shape: Optional[Sequence[int]] = None
    keys: tuple = ()
    code: Optional[Sequence[tuple]] = None

    @classmethod
    def of(cls, refs: Sequence[tuple[int, ...]], codes: Sequence[tuple],
           rigid: bool) -> "CompiledForm":
        """The form of per-state refs and codes: shape ids interned from the
        codes when the functor is rigid."""
        if not rigid:
            return cls(refs, code=codes)
        intern: dict = {}
        shape = [intern.setdefault(k, len(intern)) for k in codes]
        return cls(refs, shape, tuple(intern))


@dataclass(frozen=True, eq=False)
class Coalgebra:
    """A finite state space with one value per state.

    It holds its values, its :class:`CompiledForm`, or both; ``values``
    and ``form`` derive a missing one on first read and keep it.  A form
    stands in for the values when it has shapes or codes.  Equality
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
        elif self._form is not None and self._form.code is not None:
            have = len(self._form.code)
        else:
            raise InvalidValueError("a coalgebra needs its values or a compiled form of them")
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
        """A coalgebra of ``functor`` given by its compiled form.

        Nothing is validated: the caller has checked that every code fits
        the functor, as :func:`_compile` would write it from valid values,
        and every ref lies below the state count.
        """
        return cls(functor, len(form.refs), None, form)

    @property
    def values(self) -> tuple[FValue, ...]:
        if self._values is None:
            form = self._form
            codes = form.code if form.shape is None else map(form.keys.__getitem__, form.shape)
            values = tuple(
                _decode(self.functor, iter(code), iter(refs))
                for code, refs in zip(codes, form.refs)
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


# -- compiling and decoding values ------------------------------------------------


def _walk(v: FValue, refs: list[int], key: list) -> None:
    """Append the state references of ``v`` to ``refs`` and the rest of its
    code to ``key``, both in value order."""
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
        # members and entries are in canonical order, so their places are keys
        _set_code([(i, *_parts(m)) for i, m in enumerate(v.members)], key, refs)
    elif t is DistVal:
        entries = [(i, *_parts(x), p.numerator, p.denominator)
                   for i, (x, p) in enumerate(v.entries)]
        if _dist_code(entries, key, refs) is None:
            raise InvalidValueError(f"not a distribution: {v!r}")
    elif t is FunVal:
        for _, x in v.entries:
            _walk(x, refs, key)
    elif t is InjVal:
        key.append(v.tag)
        _walk(v.value, refs, key)
    else:
        raise TypeError(f"not a value: {v!r}")


def _parts(v: FValue) -> tuple[list, list[int]]:
    """The code and the refs of ``v`` on their own."""
    refs: list[int] = []
    key: list = []
    _walk(v, refs, key)
    return key, refs


# Members and entries come to these two as (key, code, refs) items, the keys
# ordering and equating them as values.structure_key does.


def _set_code(members: list, code: list, refs: list) -> list:
    """Append a set of ``members`` to ``code`` and ``refs``: the count of
    distinct keys, then each member's code and refs in order of key, equal
    keys once.  Returns the kept keys."""
    # sorted, then equal neighbours dropped: keys may hold Fractions, which
    # are compared here but never hashed
    members.sort(key=itemgetter(0))
    kept = [m for i, m in enumerate(members) if not i or members[i - 1][0] != m[0]]
    code.append(len(kept))
    for _, c, r in kept:
        code.extend(c)
        refs.extend(r)
    return [k for k, _, _ in kept]


def _dist_code(entries: list, code: list, refs: list) -> Optional[list]:
    """Append a distribution to ``code`` and ``refs``, its ``entries``
    items (key, code, refs, num, den) of probability num/den > 0: the count
    of distinct keys, then in order of key each merged entry's mass over the
    least common denominator, code and refs.  Returns the merged entries'
    (key, mass) pairs, the masses summing to that denominator; or None,
    appending nothing, when the probabilities do not sum to 1 or their
    denominators have a common multiple of more than 4300 digits."""
    den = 1
    for e in entries:
        den = lcm(den, e[4])
        if den >= _TOO_MANY_DIGITS:
            return None
    entries.sort(key=itemgetter(0))
    merged: list[list] = []  # [key, code, refs, mass over den]
    for k, c, r, num, d in entries:
        mass = num * (den // d)
        if merged and merged[-1][0] == k:
            merged[-1][3] += mass
        else:
            merged.append([k, c, r, mass])
    if sum([e[3] for e in merged]) != den:
        return None
    # the masses sum to den, so their gcd divides it: reduced, they are the
    # masses over the least common denominator
    g = gcd(*[e[3] for e in merged])
    code.append(len(merged))
    for e in merged:
        e[3] //= g
        code.append(e[3])
        code.extend(e[1])
        refs.extend(e[2])
    return [(e[0], e[3]) for e in merged]


def _compile(values: Sequence[FValue], rigid: bool) -> CompiledForm:
    """The compiled form of ``values``: one walk per value."""
    refs: list[tuple[int, ...]] = []
    codes: list[tuple] = []
    for v in values:
        r: list[int] = []
        k: list = []
        _walk(v, r, k)
        refs.append(tuple(r))
        codes.append(tuple(k))
    return CompiledForm.of(refs, codes, rigid)


def _decode(expr: FunctorExpr, key: Iterator, refs: Iterator[int]) -> FValue:
    """The value of ``expr`` whose code is read from ``key`` and whose state
    references from ``refs``: the inverse of :func:`_walk`."""
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
    # a code holds sets and distributions in canonical order, merged
    if isinstance(expr, Powerset):
        return SetVal.canonical(tuple([_decode(expr.inner, key, refs) for _ in range(next(key))]))
    if isinstance(expr, Distribution):
        entries = []
        for _ in range(next(key)):
            mass = next(key)
            entries.append((_decode(expr.inner, key, refs), mass))
        den = sum(mass for _, mass in entries)
        return DistVal.canonical(tuple([(x, Fraction(mass, den)) for x, mass in entries]))
    raise TypeError(f"not a functor expression: {expr!r}")


# -- signature evaluation -------------------------------------------------------


def _no_labels(block_of) -> tuple:
    return ()


def _dist_key(entries) -> frozenset:
    """A distribution's key from its (key, mass) entries: the masses summed
    per key and divided by their gcd.  A distribution's masses sum to its
    denominator, so the reduced masses alone fix the probabilities."""
    acc: dict = {}
    for k, mass in entries:
        acc[k] = acc[k] + mass if k in acc else mass
    g = gcd(*acc.values())
    return frozenset([(k, mass // g) for k, mass in acc.items()])


def _read_by_slices(expr: FunctorExpr) -> bool:
    """True for ``P X``, ``P (A * X)`` and ``D X``: after its count, each
    member's or entry's code is one label, one mass or nothing, and its
    refs one state."""
    t = type(expr)
    if t is Powerset and type(expr.inner) is Product:
        f = expr.inner.factors
        return len(f) == 2 and type(f[0]) is ConstSet and type(f[1]) is Identity
    return (t is Powerset or t is Distribution) and type(expr.inner) is Identity


def _column(cols: list) -> list:
    """A new empty column, listed in ``cols``."""
    cols.append([])
    return cols[-1]


def _column_plan(expr: FunctorExpr, cols: list):
    """``(fill, keys)`` for values of ``expr``, its columns listed in ``cols``.

    ``fill(code, refs)`` reads one value from the iterators into columns
    kept per functor node: the states of an ``X``, the labels of a label
    set, the tags of a sum, the member counts of a ``P``, the entry counts
    and masses of a ``D``.  ``keys(get)`` then yields every filled value's
    key, in fill order, from builtin passes over the columns: an ``X``
    gives its block ``get(x)``, a label itself, a product or exponent the
    tuple of its parts' keys, an injection (tag, key), a powerset the
    frozenset of its members' keys and a distribution :func:`_dist_key`,
    whose merge is the one Python call.  Emptying ``cols`` empties the plan.
    """
    t = type(expr)
    if t is Identity:
        states = _column(cols)
        return (lambda code, refs: states.append(next(refs))), (lambda get: map(get, states))
    if t is ConstSet:
        labels = _column(cols)
        return (lambda code, refs: labels.append(next(code))), (lambda get: labels)
    if t is Product or t is Exponent:
        if t is Product and not expr.factors:  # an exponent has labels
            empties = _column(cols)
            return (lambda code, refs: empties.append(())), (lambda get: empties)
        plans = ([_column_plan(f, cols) for f in expr.factors] if t is Product
                 else [_column_plan(expr.base, cols) for _ in expr.labels])

        def fill_parts(code, refs):
            for fill, _ in plans:
                fill(code, refs)

        return fill_parts, (lambda get: zip(*[keys(get) for _, keys in plans]))
    if t is Coproduct:
        tags = _column(cols)
        plans = [_column_plan(s, cols) for s in expr.summands]

        def fill_injection(code, refs):
            tag = next(code)
            tags.append(tag)
            plans[tag][0](code, refs)

        def injection_keys(get):
            inner = [iter(keys(get)) for _, keys in plans]
            return zip(tags, map(next, map(inner.__getitem__, tags)))

        return fill_injection, injection_keys
    if _read_by_slices(expr):
        return _leaf_column_plan(expr, cols)
    if t is Powerset:
        counts = _column(cols)
        fill_member, member_keys = _column_plan(expr.inner, cols)

        def fill_set(code, refs):
            c = next(code)
            counts.append(c)
            for _ in range(c):
                fill_member(code, refs)

        return fill_set, (
            lambda get: map(frozenset, map(islice, repeat(iter(member_keys(get))), counts))
        )
    if t is Distribution:
        sizes, masses = _column(cols), _column(cols)
        fill_entry, entry_keys = _column_plan(expr.inner, cols)

        def fill_distribution(code, refs):
            c = next(code)
            sizes.append(c)
            for _ in range(c):
                masses.append(next(code))
                fill_entry(code, refs)

        return fill_distribution, (
            lambda get: map(_dist_key, map(islice, repeat(zip(entry_keys(get), masses)), sizes))
        )
    raise TypeError(f"not a functor expression: {expr!r}")


def _leaf_column_plan(expr: FunctorExpr, cols: list):
    """:func:`_column_plan` of a functor :func:`_read_by_slices`: a value's
    refs, and its labels or masses, are read as one slice each."""
    counts, states = _column(cols), _column(cols)
    inner = _column(cols)  # the members' labels, or the entries' masses
    coded = type(expr) is Distribution or type(expr.inner) is not Identity

    def fill(code, refs):
        c = next(code)
        counts.append(c)
        states.extend(islice(refs, c))
        if coded:
            inner.extend(islice(code, c))

    if type(expr) is Distribution:
        return fill, (lambda get: map(
            _dist_key, map(islice, repeat(zip(map(get, states), inner)), counts)))
    if type(expr.inner) is Identity:
        return fill, (lambda get: map(frozenset, map(islice, repeat(map(get, states)), counts)))
    return fill, (lambda get: map(
        frozenset, map(islice, repeat(zip(inner, map(get, states))), counts)))


class SignatureEvaluator:
    """Per-coalgebra compiled signature computation.

    ``signature(x, block_of)`` returns a hashable key; two states of the same
    coalgebra get equal keys under ``block_of`` exactly when their full
    canonical signatures (``signature_of`` in ``tests/util.py``) agree.  It
    reads only the compiled form and ``block_of``: no value, and no
    ``Fraction``.
    Unless ``rigid``, ``keys(states, block_of)`` gives the same keys for
    many states at once; it and ``signature`` then refill one set of
    columns, so an evaluator is not for use by two threads at once.
    ``sweep_keys(block_of)`` yields every state's ``(block, signature)``
    pair at once, in another key form when ``rigid``: two of its keys are
    equal exactly when the states' blocks and ``signature`` keys are.
    Keys from different evaluators are not comparable.
    ``refs[x]`` lists the states occurring in x's value, in value order,
    repeats kept.
    """

    __slots__ = ("n_states", "refs", "rigid", "_shape", "_labels", "_functor", "_code",
                 "_columns", "_split_plan")

    def __init__(self, coalg: Coalgebra):
        form = coalg.form
        self.n_states = coalg.n_states
        self.refs = form.refs
        self._shape = form.shape
        self.rigid = form.shape is not None
        self._columns = None
        if not self.rigid:
            self._functor = coalg.functor
            self._code = form.code
            cols: list = []
            self._split_plan = (*_column_plan(coalg.functor, cols), cols)
            return
        # per state, a getter of its successors' block labels; a shape
        # fixes the number of refs, so equal shapes give keys of one form
        self._labels = [itemgetter(*r) if r else _no_labels for r in form.refs]

    def signature(self, x: int, block_of):
        if self.rigid:
            return (self._shape[x], self._labels[x](block_of))
        return next(iter(self.keys((x,), block_of)))

    def keys(self, states: Sequence[int], block_of: Sequence[int]) -> Iterator:
        """The ``signature`` keys of ``states``, in order, for a functor
        that is not ``rigid``: read from a :func:`_column_plan` kept for
        this and refilled with ``states`` alone, so read them before the
        next call."""
        fill, keys, cols = self._split_plan
        for col in cols:
            col.clear()
        code, refs = self._code, self.refs
        for x in states:
            fill(iter(code[x]), iter(refs[x]))
        return keys(block_of.__getitem__)

    def sweep_keys(self, block_of: Sequence[int], shaped: bool = True) -> Iterator[tuple]:
        """Every state's key, in state order: ``block_of[x]`` first, then
        x's signature, computed column by column.

        For a rigid functor a key is the block, the shape id and the blocks
        of the successors, one column of the transposed refs each.  A state
        with fewer refs than the widest is padded with state -1, whose block
        is then in every key of its shape at the same place: a shape fixes
        the number of refs, so the pad cannot tell states of one shape
        apart.  With ``shaped`` false the shape id is left out; that is
        exact only when ``block_of`` refines the shapes, so that a block
        fixes its shape and with it the pad positions.  Otherwise the
        signature is the one ``signature`` gives, from the columns of
        :func:`_column_plan`, and ``shaped`` is ignored.  The columns are
        built on the first call and kept.
        """
        get = block_of.__getitem__
        if not self.rigid:
            if self._columns is None:
                fill, self._columns = _column_plan(self._functor, [])
                for code, refs in zip(self._code, self.refs):
                    fill(iter(code), iter(refs))
            return zip(block_of, self._columns(get))
        if self._columns is None:
            self._columns = list(zip_longest(*self.refs, fillvalue=-1))
        shape = (self._shape,) if shaped else ()
        return zip(block_of, *shape, *[map(get, col) for col in self._columns])


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
    """The coalgebra of a JSON document, every value built by
    ``value_from_obj`` and validated by ``Coalgebra.make``.  Its errors are
    the messages of record of the coalg-json loader, which decodes a
    document straight into the compiled form when it can."""
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
