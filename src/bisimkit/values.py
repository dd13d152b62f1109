"""Per-state observation values: validation, canonical forms, signatures.

A value mirrors the shape of its governing functor expression: state
references for ``X``, labels for constant sets, tuples, tagged injections,
label-indexed maps for exponents, finite sets, and exact-rational finite
distributions.  Sets and distributions are canonicalized at construction
(sorted, duplicates removed or merged), so structural equality of values is
plain ``==``.

The *signature* of a value under a block labelling replaces every state
reference by its block label and re-canonicalizes.  Two states are related
by one refinement step of the induced equivalence exactly when their
signatures are equal.

Values and functor expressions are never subclassed: every walker here
dispatches on one ``type()`` lookup with identity tests, so an instance of
a subclass is "not a value" (or not a functor expression).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .functors import (
    ConstSet,
    Coproduct,
    Distribution,
    Exponent,
    FunctorExpr,
    Identity,
    Powerset,
    Product,
)

__all__ = [
    "FValue",
    "StateRef",
    "Label",
    "TupleVal",
    "InjVal",
    "FunVal",
    "SetVal",
    "DistVal",
    "InvalidValueError",
    "ShapeMismatchError",
    "UnknownLabelError",
    "ProbabilitySumError",
    "StateRangeError",
    "validate_value",
    "structure_key",
    "value_to_obj",
    "value_from_obj",
    "parse_probability",
    "probability_ratio",
]


class InvalidValueError(ValueError):
    """Base for all value-validation failures."""


class ShapeMismatchError(InvalidValueError):
    pass


class UnknownLabelError(InvalidValueError):
    pass


class ProbabilitySumError(InvalidValueError):
    pass


class StateRangeError(InvalidValueError):
    pass


@dataclass(frozen=True)
class StateRef:
    index: int


@dataclass(frozen=True)
class Label:
    name: str


@dataclass(frozen=True)
class TupleVal:
    items: tuple["FValue", ...]


@dataclass(frozen=True)
class InjVal:
    tag: int
    value: "FValue"


@dataclass(frozen=True)
class FunVal:
    """Label-indexed values, stored sorted by label name."""

    entries: tuple[tuple[str, "FValue"], ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.entries, key=lambda e: e[0]))
        object.__setattr__(self, "entries", ordered)


@dataclass(frozen=True)
class SetVal:
    """A finite set of values; members deduplicated and kept sorted."""

    members: tuple["FValue", ...]

    def __post_init__(self):
        keyed = {structure_key(m): m for m in self.members}
        ordered = tuple([keyed[k] for k in sorted(keyed)])
        object.__setattr__(self, "members", ordered)

    @classmethod
    def canonical(cls, members: tuple["FValue", ...]) -> "SetVal":
        """The set of ``members``, which are distinct and in order of
        ``structure_key`` already: kept as given, not sorted again."""
        v = object.__new__(cls)
        object.__setattr__(v, "members", members)
        return v


@dataclass(frozen=True)
class DistVal:
    """A finite map value -> probability; zero entries dropped, equals merged."""

    entries: tuple[tuple["FValue", Fraction], ...]

    def __post_init__(self):
        acc: dict = {}
        vals: dict = {}
        for v, p in self.entries:
            p = p if type(p) is Fraction else Fraction(p)
            if not p:
                continue
            k = structure_key(v)
            acc[k] = acc[k] + p if k in acc else p
            vals[k] = v
        ordered = tuple([(vals[k], acc[k]) for k in sorted(acc)])
        object.__setattr__(self, "entries", ordered)

    @classmethod
    def canonical(cls, entries: tuple[tuple["FValue", Fraction], ...]) -> "DistVal":
        """The distribution of ``entries``, whose values are distinct and in
        order of ``structure_key`` already and whose probabilities are
        positive ``Fraction``s: kept as given, not merged again."""
        v = object.__new__(cls)
        object.__setattr__(v, "entries", entries)
        return v

    def total(self) -> Fraction:
        ps = [p for _, p in self.entries]
        return sum(ps[1:], ps[0]) if ps else Fraction(0)


FValue = Union[StateRef, Label, TupleVal, InjVal, FunVal, SetVal, DistVal]


def structure_key(v: FValue):
    """A total-order key for raw values (state indices untranslated)."""
    t = type(v)
    if t is StateRef:
        return (0, v.index)
    if t is TupleVal:
        return (2, tuple([structure_key(i) for i in v.items]))
    if t is Label:
        return (1, v.name)
    if t is InjVal:
        return (3, v.tag, structure_key(v.value))
    if t is FunVal:
        return (4, tuple([(k, structure_key(x)) for k, x in v.entries]))
    if t is SetVal:
        return (5, tuple([structure_key(m) for m in v.members]))
    if t is DistVal:
        return (6, tuple([(structure_key(x), p) for x, p in v.entries]))
    raise TypeError(f"not a value: {v!r}")


_TOO_MANY_DIGITS = 10**4300  # Python prints no integer of more digits


def validate_value(expr: FunctorExpr, v: FValue, n_states: int) -> None:
    """Check that ``v`` matches the shape of ``expr``; raise a typed error if not.

    Distributions must sum to exactly 1 with every probability in (0, 1] and
    of at most 4300 digits; state references must lie below ``n_states``.
    """
    e, t = type(expr), type(v)
    if e is Identity:
        if t is not StateRef:
            raise ShapeMismatchError(f"expected a state reference, got {t.__name__}")
        if not 0 <= v.index < n_states:
            raise StateRangeError(f"state {v.index} out of range [0, {n_states})")
    elif e is Product:
        if t is not TupleVal:
            raise ShapeMismatchError(f"expected a tuple, got {t.__name__}")
        if len(v.items) != len(expr.factors):
            raise ShapeMismatchError(
                f"tuple arity {len(v.items)} does not match product arity {len(expr.factors)}"
            )
        for f, item in zip(expr.factors, v.items):
            validate_value(f, item, n_states)
    elif e is ConstSet:
        if t is not Label:
            raise ShapeMismatchError(f"expected a label, got {t.__name__}")
        if v.name not in expr.labels:
            raise UnknownLabelError(f"label {v.name!r} not in {{{','.join(expr.labels)}}}")
    elif e is Powerset:
        if t is not SetVal:
            raise ShapeMismatchError(f"expected a set, got {t.__name__}")
        for m in v.members:
            validate_value(expr.inner, m, n_states)
    elif e is Distribution:
        if t is not DistVal:
            raise ShapeMismatchError(f"expected a distribution, got {t.__name__}")
        # a Fraction's denominator is positive: 0 < p <= 1 without Fraction arithmetic
        for x, p in v.entries:
            if not 0 < p.numerator <= p.denominator:
                raise ProbabilitySumError("a probability lies outside (0, 1]")
            validate_value(expr.inner, x, n_states)
        if v.total() != 1:
            raise ProbabilitySumError("distribution does not sum to 1")
        if any(p.denominator >= _TOO_MANY_DIGITS for _, p in v.entries):
            raise InvalidValueError("a probability has more than 4300 digits")
    elif e is Exponent:
        if t is not FunVal:
            raise ShapeMismatchError(f"expected a label-indexed map, got {t.__name__}")
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
            validate_value(expr.base, item, n_states)
    elif e is Coproduct:
        if t is not InjVal:
            raise ShapeMismatchError(f"expected an injection, got {t.__name__}")
        if not 0 <= v.tag < len(expr.summands):
            raise ShapeMismatchError(f"injection tag {v.tag} out of range")
        validate_value(expr.summands[v.tag], v.value, n_states)
    else:
        raise TypeError(f"not a functor expression: {expr!r}")


# -- JSON encoding -------------------------------------------------------------
#
#   StateRef  {"x": i}
#   Label     "a"
#   TupleVal  [...]
#   InjVal    {"inj": k, "val": v}
#   FunVal    {"fun": {"a": v, ...}}
#   SetVal    {"set": [...]}
#   DistVal   {"dist": [[v, "num/den"], ...]}


def value_to_obj(v: FValue):
    t = type(v)
    if t is StateRef:
        return {"x": v.index}
    if t is Label:
        return v.name
    if t is TupleVal:
        return [value_to_obj(i) for i in v.items]
    if t is InjVal:
        return {"inj": v.tag, "val": value_to_obj(v.value)}
    if t is FunVal:
        return {"fun": {k: value_to_obj(x) for k, x in v.entries}}
    if t is SetVal:
        return {"set": [value_to_obj(m) for m in v.members]}
    if t is DistVal:
        return {"dist": [[value_to_obj(x), f"{p.numerator}/{p.denominator}"] for x, p in v.entries]}
    raise TypeError(f"not a value: {v!r}")


def probability_ratio(text) -> tuple[int, int]:
    """A nonnegative probability literal as (numerator, denominator), not
    necessarily in lowest terms, the denominator positive: an integer, or a
    string that ``Fraction`` reads without an exponent ('num/den', a
    decimal, an integer).

    Exponent notation is refused before ``Fraction`` expands it: expanding
    '1e-10000000' takes seconds, and '1e-5000' already has more digits than
    Python will print.  No message formats a number read from the input.
    An ASCII 'digits/digits' or 'digits' is read by ``int`` alone; other
    forms go through ``Fraction``.
    """
    if type(text) is int:
        num, den = text, 1
    elif type(text) is not str:
        raise InvalidValueError(f"probability must be a 'num/den' string, got {text!r}")
    elif "e" in text or "E" in text:
        raise InvalidValueError("probability in exponent notation; write it as 'num/den'")
    else:
        head, slash, tail = text.partition("/")
        try:
            if text.isascii() and head.isdigit() and (tail.isdigit() or not slash):
                num, den = int(head), int(tail) if slash else 1
            else:
                p = Fraction(text)
                num, den = p.numerator, p.denominator
        except ValueError:  # not a literal, or past Python's str-to-int digit limit
            raise InvalidValueError(
                "probability is not 'num/den', a decimal or an integer, or has too many digits"
            ) from None
        except ZeroDivisionError:
            raise InvalidValueError("probability has a zero denominator") from None
        if den == 0:
            raise InvalidValueError("probability has a zero denominator")
    if num < 0:
        raise InvalidValueError("probability is negative")
    return num, den


def parse_probability(text) -> Fraction:
    """:func:`probability_ratio` as a ``Fraction``."""
    return Fraction(*probability_ratio(text))


# the keys a JSON object may encode a value by, in the order they are looked for
_ENCODINGS = ("x", "inj", "fun", "set", "dist")


def _value_encoding(obj: dict) -> Optional[str]:
    """The key by which :func:`value_from_obj` reads JSON object ``obj``:
    the first of ``_ENCODINGS`` it has, or None."""
    for k in _ENCODINGS:
        if k in obj:
            return k
    return None


def value_from_obj(obj) -> FValue:
    """Decode the JSON form of a value; raises InvalidValueError on bad input."""
    t = type(obj)
    if t is dict:
        encoding = _value_encoding(obj)
        if encoding == "x":
            if type(obj["x"]) is not int:
                raise InvalidValueError(f"state reference must be an integer: {obj!r}")
            return StateRef(obj["x"])
        if encoding == "inj":
            if type(obj["inj"]) is not int:
                raise InvalidValueError(f"injection tag must be an integer: {obj!r}")
            if "val" not in obj:
                raise InvalidValueError(f"injection needs a 'val': {obj!r}")
            return InjVal(obj["inj"], value_from_obj(obj["val"]))
        if encoding == "fun":
            if type(obj["fun"]) is not dict:
                raise InvalidValueError(f"'fun' must map labels to values: {obj!r}")
            return FunVal(tuple([(k, value_from_obj(x)) for k, x in obj["fun"].items()]))
        if encoding == "set":
            if type(obj["set"]) is not list:
                raise InvalidValueError(f"'set' must be an array: {obj!r}")
            return SetVal(tuple([value_from_obj(m) for m in obj["set"]]))
        if encoding == "dist":
            if type(obj["dist"]) is not list:
                raise InvalidValueError(f"'dist' must be an array: {obj!r}")
            entries = []
            for pair in obj["dist"]:
                if type(pair) is not list or len(pair) != 2:
                    raise InvalidValueError(f"distribution entry must be [value, prob]: {pair!r}")
                p = parse_probability(pair[1])
                entries.append((value_from_obj(pair[0]), p))
            return DistVal(tuple(entries))
    elif t is list:
        return TupleVal(tuple([value_from_obj(i) for i in obj]))
    elif t is str:
        return Label(obj)
    raise InvalidValueError(f"unrecognized value encoding: {obj!r}")
