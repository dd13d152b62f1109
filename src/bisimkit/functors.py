"""System-type expressions and their surface syntax.

A functor expression fixes the shape of one state's observation:

    F ::= X | {l,...} | F * F | F + F | F ^ {l,...} | P F | D F

``X`` is the state placeholder, ``{l,...}`` a finite label set, ``*``/``+``
product and sum, ``^`` a label-indexed product (e.g. ``X ^ {a,b}`` for a
transition function over a two-letter alphabet), ``P`` finite powerset and
``D`` finitely supported probability distribution.

Precedence, tightest first: ``^``, then prefix ``P``/``D``, then ``*``,
then ``+``; parentheses override.  ``{0,1} * (X ^ {a,b})`` is the classic
acceptance-bit-plus-successors DFA type, ``P ({a,b} * X)`` a labelled
transition system.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Union

__all__ = [
    "FunctorExpr",
    "Identity",
    "ConstSet",
    "Product",
    "Coproduct",
    "Exponent",
    "Powerset",
    "Distribution",
    "FunctorSyntaxError",
    "parse_functor",
    "render_functor",
    "is_rigid",
    "default_letters",
]


def default_letters(k: int) -> tuple[str, ...]:
    """Alphabet names for k letters: a, b, ..., z, then s26, s27, ..."""
    return tuple(string.ascii_lowercase[i] if i < 26 else f"s{i}" for i in range(k))


class FunctorSyntaxError(ValueError):
    """Bad functor syntax; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _check_labels(labels: tuple[str, ...], empty: str, duplicate: str) -> None:
    if not labels:
        raise FunctorSyntaxError(empty, 0)
    if len(set(labels)) != len(labels):
        raise FunctorSyntaxError(duplicate, 0)


@dataclass(frozen=True)
class Identity:
    pass


@dataclass(frozen=True)
class ConstSet:
    labels: tuple[str, ...]

    def __post_init__(self):
        _check_labels(self.labels, "label set must be nonempty", "duplicate label in label set")


@dataclass(frozen=True)
class Product:
    factors: tuple["FunctorExpr", ...]


@dataclass(frozen=True)
class Coproduct:
    summands: tuple["FunctorExpr", ...]


@dataclass(frozen=True)
class Exponent:
    base: "FunctorExpr"
    labels: tuple[str, ...]

    def __post_init__(self):
        _check_labels(self.labels, "exponent label set must be nonempty",
                      "duplicate label in exponent")


@dataclass(frozen=True)
class Powerset:
    inner: "FunctorExpr"


@dataclass(frozen=True)
class Distribution:
    inner: "FunctorExpr"


FunctorExpr = Union[Identity, ConstSet, Product, Coproduct, Exponent, Powerset, Distribution]


def is_rigid(expr: FunctorExpr) -> bool:
    """True when the expression contains no powerset or distribution layer.

    Values of a rigid functor have a fixed shape, which enables flat
    signature computation in the refinement engine.
    """
    if isinstance(expr, (Identity, ConstSet)):
        return True
    if isinstance(expr, Product):
        return all(is_rigid(f) for f in expr.factors)
    if isinstance(expr, Coproduct):
        return all(is_rigid(s) for s in expr.summands)
    if isinstance(expr, Exponent):
        return is_rigid(expr.base)
    return False


# -- tokenizer -----------------------------------------------------------------

_PUNCT = set("{},*+^()")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Tokens as (kind, value, position); kind in punct chars, 'ident', 'end'."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isalnum() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise FunctorSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise FunctorSyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> FunctorExpr:
        expr = self.sum()
        tok = self.peek()
        if tok[0] != "end":
            raise FunctorSyntaxError(f"trailing input {tok[1]!r}", tok[2])
        return expr

    def sum(self) -> FunctorExpr:
        parts = [self.product()]
        while self.peek()[0] == "+":
            self.next()
            parts.append(self.product())
        return parts[0] if len(parts) == 1 else Coproduct(tuple(parts))

    def product(self) -> FunctorExpr:
        parts = [self.prefix()]
        while self.peek()[0] == "*":
            self.next()
            parts.append(self.prefix())
        return parts[0] if len(parts) == 1 else Product(tuple(parts))

    def prefix(self) -> FunctorExpr:
        kind, value, _ = self.peek()
        if kind == "ident" and value in ("P", "D"):
            self.next()
            inner = self.prefix()
            return Powerset(inner) if value == "P" else Distribution(inner)
        return self.postfix()

    def postfix(self) -> FunctorExpr:
        expr = self.atom()
        while self.peek()[0] == "^":
            pos = self.next()[2]
            labels = self.label_set(pos)
            expr = Exponent(expr, labels)
        return expr

    def atom(self) -> FunctorExpr:
        kind, value, pos = self.next()
        if kind == "ident":
            if value == "X":
                return Identity()
            raise FunctorSyntaxError(f"unexpected name {value!r}", pos)
        if kind == "{":
            self.pos -= 1
            return ConstSet(self.label_set(pos))
        if kind == "(":
            expr = self.sum()
            self.expect(")")
            return expr
        raise FunctorSyntaxError(f"unexpected token {value!r}", pos)

    def label_set(self, at: int) -> tuple[str, ...]:
        tok = self.next()
        if tok[0] != "{":
            raise FunctorSyntaxError("expected '{'", tok[2])
        labels = []
        if self.peek()[0] == "}":
            raise FunctorSyntaxError("empty label set", self.peek()[2])
        while True:
            name = self.expect("ident")
            labels.append(name[1])
            kind, _, pos = self.next()
            if kind == "}":
                break
            if kind != ",":
                raise FunctorSyntaxError("expected ',' or '}' in label set", pos)
        if len(set(labels)) != len(labels):
            raise FunctorSyntaxError("duplicate label in label set", at)
        return tuple(labels)


def parse_functor(text: str) -> FunctorExpr:
    """Parse a functor expression; raises FunctorSyntaxError with a position."""
    return _Parser(text).parse()


def _render(expr: FunctorExpr, level: int) -> str:
    # level: 0 = sum context, 1 = product, 2 = prefix, 3 = postfix/atom
    if isinstance(expr, Identity):
        return "X"
    if isinstance(expr, ConstSet):
        return "{" + ",".join(expr.labels) + "}"
    if isinstance(expr, Product):
        s = " * ".join(_render(f, 2) for f in expr.factors)
        return f"({s})" if level > 1 else s
    if isinstance(expr, Coproduct):
        s = " + ".join(_render(f, 1) for f in expr.summands)
        return f"({s})" if level > 0 else s
    if isinstance(expr, Exponent):
        return _render(expr.base, 3) + " ^ {" + ",".join(expr.labels) + "}"
    if isinstance(expr, Powerset):
        s = "P " + _render(expr.inner, 2)
        return f"({s})" if level > 2 else s
    if isinstance(expr, Distribution):
        s = "D " + _render(expr.inner, 2)
        return f"({s})" if level > 2 else s
    raise TypeError(f"not a functor expression: {expr!r}")


def render_functor(expr: FunctorExpr) -> str:
    """Canonical text form; parse_functor(render_functor(e)) == e."""
    return _render(expr, 0)
