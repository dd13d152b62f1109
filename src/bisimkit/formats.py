"""File formats: coalgebra inputs, partition and refinement-tree outputs.

Input formats
  coalg-json  {"functor": "...", "states": n, "c": [...]}  (native);
              decoded by a decoder directed by the functor that validates
              as it goes; what it does not accept (any error, a probability
              of zero) goes through ``coalgebra_from_obj``, which builds
              and validates values: it accepts the document or gives the
              message of record
  dfa-text    header ``dfa n k``; one line per state: accept bit then k
              successor ids, one per letter a, b, ...; blank lines are
              skipped, and a form feed separates fields but ends no line;
              the body is checked and converted a column at a time (a
              failed check rescans it line by line to name the bad line)
  aut         Aldebaran: ``des (first, m, n)`` then ``(src, "label", dst)``
              triples; becomes a labelled transition system; at most
              ``AUT_MAX_STATES`` states
  mc-tsv      whitespace rows ``src dst num/den``; becomes a Markov chain;
              a chain whose integer masses do not sum to the denominator
              is built from values, whose validation names the bad state

Every input loads into the compiled form (``coalgebra.CompiledForm``)
without building values: its code holds each state's labels, member
counts and integer masses, in the order and with the merges the values
would have, sets and distributions written by the same two functions that
compile values (``coalgebra._set_code`` and ``coalgebra._dist_code``).

Output documents
  partition   {"blocks": [[...], ...]}: sorted blocks, ordered by smallest
              member
  tree        {"parent": [...], "w": [...], "members": [...], "heavy": [...]}:
              the four per-node arrays of a ``RefinementTree``, written as
              they are: the parent (the root is its own), the weight, the
              sorted states of a leaf (null at inner nodes) and the heavy
              child (null at leaves).  Reading a tree parses the JSON and
              returns ``parent``, ``w`` and ``heavy`` as they stand; their
              validity is ``wtree``'s to decide, for the library and for
              ``audit-tree`` alike.  Documents that list every node's
              ``states`` instead of ``members`` read the same.

Both are emitted in one canonical compact-JSON form so results are
byte-for-byte reproducible.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Optional, TextIO

from .coalgebra import (
    Coalgebra,
    CompiledForm,
    _dist_code,
    _set_code,
    coalgebra_from_obj,
    coalgebra_to_obj,
)
from .engine import Partition, RefinementTree
from .functors import (
    ConstSet,
    Coproduct,
    Distribution,
    Exponent,
    FunctorExpr,
    FunctorSyntaxError,
    Identity,
    Powerset,
    Product,
    default_letters,
    is_rigid,
    parse_functor,
)
from .values import (
    DistVal,
    InvalidValueError,
    StateRef,
    _value_encoding,
    probability_ratio,
)
from .wtree import WeightedTree

__all__ = [
    "FORMATS",
    "AUT_MAX_STATES",
    "FormatError",
    "detect_format",
    "load_coalgebra",
    "dump_coalgebra",
    "partition_to_json",
    "tree_to_json",
    "tree_from_json",
]

FORMATS = ("coalg-json", "dfa-text", "aut", "mc-tsv")

# An .aut header may declare states that no transition mentions, so its
# state count cannot be checked against the lines read; a count above this
# cap is rejected before anything is sized by it.  Ten times the largest
# input of the performance corpus, a 100k-state DFA.
AUT_MAX_STATES = 1_000_000

_EXTENSIONS = {
    ".json": "coalg-json",
    ".dfa": "dfa-text",
    ".aut": "aut",
    ".tsv": "mc-tsv",
}


class FormatError(ValueError):
    """Unparsable input; carries a line number when one makes sense."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


def detect_format(path: str) -> str:
    for ext, fmt in _EXTENSIONS.items():
        if path.endswith(ext):
            return fmt
    raise FormatError(
        f"cannot infer format from {path!r}; pass --format explicitly"
    )


def _json_dumps(obj) -> str:
    # every document is a tree of dicts, lists and tuples built here, down
    # to ints, strings and None, so none holds itself and the check is waste
    return json.dumps(obj, separators=(",", ":"), check_circular=False) + "\n"


def _json_loads(text: str):
    """``json.loads``, every way it can fail on bad input a FormatError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"bad JSON: {e.msg}", e.lineno) from None
    except ValueError:  # an integer literal past Python's str-to-int digit limit
        raise FormatError("bad JSON: number has too many digits") from None
    except RecursionError:
        raise FormatError("input nested too deeply") from None


# -- coalgebra inputs -----------------------------------------------------------


def _load_coalg_json(stream: TextIO) -> Coalgebra:
    # the decoder, the functor parser, the value codec and validation all
    # recurse, so a deep enough document exhausts the stack in any of them
    obj = _json_loads(stream.read())
    try:
        try:
            return _decode_coalgebra(obj)
        except (_Decline, FunctorSyntaxError, RecursionError):
            return coalgebra_from_obj(obj)  # which accepts it, or names the fault
    except (InvalidValueError, FunctorSyntaxError) as e:
        raise FormatError(str(e)) from None
    except RecursionError:
        raise FormatError("input nested too deeply") from None


class _Decline(Exception):
    """The direct decoder leaves this document to ``coalgebra_from_obj``."""


def _decode_coalgebra(obj) -> Coalgebra:
    """A coalgebra document decoded into its compiled form, or _Decline.

    It accepts only documents that ``coalgebra_from_obj`` accepts, and
    writes the code that compiling their values would write.
    It declines every error, a probability of zero (whose entry the values
    drop unvalidated) and a distribution whose denominators have a common
    multiple of more than 4300 digits.
    """
    if type(obj) is not dict:
        raise _Decline
    text, n, values = obj.get("functor"), obj.get("states"), obj.get("c")
    if type(text) is not str or type(n) is not int or n < 1:
        raise _Decline
    if type(values) is not list or len(values) != n:
        raise _Decline
    functor = parse_functor(text)
    decode = _value_decoder(functor, n, False)
    refs, codes = [], []
    for v in values:
        r: list[int] = []
        k: list = []
        decode(v, k, r)
        refs.append(tuple(r))
        codes.append(tuple(k))
    return Coalgebra.from_form(functor, CompiledForm.of(refs, codes, is_rigid(functor)))


def _payload(obj, key: str):
    """``obj[key]`` when ``value_from_obj`` reads JSON ``obj`` by ``key``,
    else None (as when ``obj`` maps ``key`` to null)."""
    return obj[key] if type(obj) is dict and _value_encoding(obj) == key else None


def _value_decoder(expr: FunctorExpr, n: int, keyed: bool):
    """``decode(obj, code, refs)``: append the code and refs of the value of
    ``expr`` that JSON ``obj`` encodes, over ``n`` states, or raise
    _Decline.  When ``keyed`` (below a ``P`` or ``D``) it returns a key
    that orders and equates values as :func:`values.structure_key` does,
    by which members are sorted and deduplicated and entries merged."""
    t = type(expr)
    if t is Identity:
        def state(obj, code, refs):
            x = obj.get("x") if type(obj) is dict else None
            if type(x) is not int or not 0 <= x < n:
                raise _Decline
            refs.append(x)
            return x

        return state
    if t is ConstSet:
        names = frozenset(expr.labels)

        def label(obj, code, refs):
            if type(obj) is not str or obj not in names:
                raise _Decline
            code.append(obj)
            return obj

        return label
    if t is Product:
        parts = [_value_decoder(f, n, keyed) for f in expr.factors]

        def product(obj, code, refs):
            if type(obj) is not list or len(obj) != len(parts):
                raise _Decline
            return tuple([part(o, code, refs) for part, o in zip(parts, obj)])

        return product
    if t is Exponent:
        base = _value_decoder(expr.base, n, keyed)
        letters = sorted(expr.labels)
        letter_set = set(letters)

        def function(obj, code, refs):
            fun = _payload(obj, "fun")
            if type(fun) is not dict or fun.keys() != letter_set:
                raise _Decline
            return tuple([base(fun[a], code, refs) for a in letters])

        return function
    if t is Coproduct:
        summands = [_value_decoder(s, n, keyed) for s in expr.summands]

        def injection(obj, code, refs):
            tag = _payload(obj, "inj")
            if type(tag) is not int or not 0 <= tag < len(summands) or "val" not in obj:
                raise _Decline
            code.append(tag)
            return tag, summands[tag](obj["val"], code, refs)

        return injection
    if t is Powerset:
        return _set_decoder(expr, n)
    if t is Distribution:
        return _distribution_decoder(expr, n, keyed)
    raise TypeError(f"not a functor expression: {expr!r}")


def _set_decoder(expr: Powerset, n: int):
    """:func:`_value_decoder` of a powerset, written by ``_set_code``; its
    key is the tuple of its members' keys."""
    member = _value_decoder(expr.inner, n, True)

    def members(obj, code, refs):
        items = _payload(obj, "set")
        if type(items) is not list:
            raise _Decline
        decoded = []
        for m in items:
            c: list = []
            r: list[int] = []
            decoded.append((member(m, c, r), c, r))
        return tuple(_set_code(decoded, code, refs))

    return members


def _distribution_decoder(expr: Distribution, n: int, keyed: bool):
    """:func:`_value_decoder` of a distribution, written by ``_dist_code``;
    its key is the tuple of (entry key, probability) pairs."""
    entry = _value_decoder(expr.inner, n, True)
    ratios: dict[str, tuple[int, int]] = {}  # each literal read once per document

    def distribution(obj, code, refs):
        pairs = _payload(obj, "dist")
        if type(pairs) is not list:
            raise _Decline
        decoded = []
        for pair in pairs:
            if type(pair) is not list or len(pair) != 2:
                raise _Decline
            p = pair[1]
            ratio = ratios.get(p) if type(p) is str else None
            if ratio is None:
                try:
                    ratio = probability_ratio(p)
                except InvalidValueError:
                    raise _Decline from None
                if type(p) is str:
                    ratios[p] = ratio
            if ratio[0] == 0:
                raise _Decline
            c: list = []
            r: list[int] = []
            decoded.append((entry(pair[0], c, r), c, r, *ratio))
        merged = _dist_code(decoded, code, refs)
        if merged is None:
            raise _Decline
        if keyed:
            den = sum([mass for _, mass in merged])
            return tuple([(k, Fraction(mass, den)) for k, mass in merged])
        return None

    return distribution


def _load_dfa_text(stream: TextIO) -> Coalgebra:
    # split at "\n" alone, as iterating the stream does: str.splitlines()
    # also breaks at \x0c, \x1c and others that str.split() takes for spaces
    lines = stream.read().split("\n")
    rows = list(filter(None, map(str.split, lines)))
    if not rows:
        raise FormatError("empty dfa file")
    header, *body = rows
    lineno = next(i for i, line in enumerate(lines, 1) if line.split())
    if len(header) != 3 or header[0] != "dfa":
        raise FormatError("header must be 'dfa <states> <letters>'", lineno)
    try:
        n, k = int(header[1]), int(header[2])
    except ValueError:
        raise FormatError("header counts must be integers", lineno) from None
    if n < 1 or k < 1:
        raise FormatError("state and letter counts must be positive", lineno)
    if len(body) != n:
        raise FormatError(f"expected {n} state lines, found {len(body)}", lineno)
    # the body is checked and converted a column at a time; k comes from the
    # header, so the rows must show it before it sizes anything
    if set(map(len, body)) != {k + 1}:
        raise _bad_dfa_row(lines, n, k)
    bits, *cols = zip(*body)
    seen = dict.fromkeys(bits)  # the bits in order of first occurrence
    if not seen.keys() <= {"0", "1"}:
        raise _bad_dfa_row(lines, n, k)
    try:
        cols = [list(map(int, col)) for col in cols]
    except ValueError:
        raise _bad_dfa_row(lines, n, k) from None
    if min(map(min, cols)) < 0 or max(map(max, cols)) >= n:
        raise _bad_dfa_row(lines, n, k)
    # each state compiles to the shape key (bit,), its value's one label, and
    # its successors taken in the value's letter order, which sorts the
    # names (s26 before t)
    letters = default_letters(k)
    order = sorted(range(k), key=letters.__getitem__)
    refs = list(zip(*[cols[i] for i in order]))
    shape = list(map({b: i for i, b in enumerate(seen)}.__getitem__, bits))
    functor = Product((ConstSet(("0", "1")), Exponent(Identity(), letters)))
    return Coalgebra.from_form(functor, CompiledForm(refs, shape, tuple((b,) for b in seen)))


def _bad_dfa_row(lines: list[str], n: int, k: int) -> FormatError:
    """The error of the first bad state line of a .dfa text whose header is
    good, found line by line once a check of whole columns has failed:
    field counts first, then each line's accept bit, integers and range."""
    rows = [(i, fields) for i, fields in enumerate(map(str.split, lines), 1) if fields][1:]
    for lineno, fields in rows:
        if len(fields) != k + 1:
            return FormatError(f"expected accept bit and {k} successors", lineno)
    for lineno, fields in rows:
        bit = fields[0]
        if bit not in ("0", "1"):
            return FormatError(f"accept flag must be 0 or 1, got {bit!r}", lineno)
        try:
            succs = list(map(int, fields[1:]))
        except ValueError:
            return FormatError("successors must be integers", lineno)
        for s in succs:
            if not 0 <= s < n:
                return FormatError(f"successor {s} out of range", lineno)
    raise AssertionError("a column check failed on good rows")


_AUT_HEADER = re.compile(r"des\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)\s*$")
_AUT_EDGE = re.compile(r"\(\s*(\d+)\s*,\s*(\"[^\"]*\"|[^,]+?)\s*,\s*(\d+)\s*\)\s*$")


def _aut_int(digits: str, lineno: int) -> int:
    try:
        return int(digits)
    except ValueError:  # past Python's str-to-int digit limit
        raise FormatError("number has too many digits", lineno) from None


def _load_aut(stream: TextIO) -> Coalgebra:
    lines = [(i + 1, line.strip()) for i, line in enumerate(stream) if line.strip()]
    if not lines:
        raise FormatError("empty aut file")
    lineno, header = lines[0]
    m = _AUT_HEADER.match(header)
    if not m:
        raise FormatError("header must be 'des (first, transitions, states)'", lineno)
    first, n_edges, n = (_aut_int(m.group(i), lineno) for i in (1, 2, 3))
    if n < 1:
        raise FormatError("state count must be positive", lineno)
    if n > AUT_MAX_STATES:
        raise FormatError(f"{n} states exceed the limit of {AUT_MAX_STATES}", lineno)
    if first >= n:
        raise FormatError("initial state out of range", lineno)
    if len(lines) - 1 != n_edges:
        raise FormatError(
            f"header promises {n_edges} transitions, found {len(lines) - 1}", lineno
        )
    edges: list[tuple[int, str, int]] = []
    labels: set[str] = set()
    for lineno, text in lines[1:]:
        m = _AUT_EDGE.match(text)
        if not m:
            raise FormatError(f"bad transition {text!r}", lineno)
        src, dst = _aut_int(m.group(1), lineno), _aut_int(m.group(3), lineno)
        label = m.group(2)
        if label.startswith('"'):
            label = label[1:-1]
        if not label:
            raise FormatError("empty transition label", lineno)
        if src >= n or dst >= n:
            raise FormatError(f"state out of range in {text!r}", lineno)
        labels.add(label)
        edges.append((src, label, dst))
    # a transitionless system still needs a nonempty action alphabet
    alphabet = tuple(sorted(labels)) if labels else ("tau",)
    functor = Powerset(Product((ConstSet(alphabet), Identity())))
    per_state: list[list] = [[] for _ in range(n)]
    for src, label, dst in edges:
        per_state[src].append(((label, dst), (label,), (dst,)))
    # a state's code is its member count and the members' labels, its refs
    # their targets, members in order of (label, target) as the values are
    codes, refs = [], []
    for out in per_state:
        c: list = []
        r: list[int] = []
        _set_code(out, c, r)
        codes.append(tuple(c))
        refs.append(tuple(r))
    return Coalgebra.from_form(functor, CompiledForm(refs, code=codes))


def _load_mc_tsv(stream: TextIO) -> Coalgebra:
    rows: list[tuple[int, int, int, int]] = []
    max_state = -1
    for i, line in enumerate(stream):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 3:
            raise FormatError("expected 'src dst num/den'", i + 1)
        try:
            src, dst = int(fields[0]), int(fields[1])
        except ValueError:
            raise FormatError("state ids must be integers", i + 1) from None
        try:
            num, den = probability_ratio(fields[2])
        except InvalidValueError as e:
            raise FormatError(str(e), i + 1) from None
        if src < 0 or dst < 0:
            raise FormatError("state ids must be nonnegative", i + 1)
        if num == 0:
            raise FormatError("probability must be positive", i + 1)
        rows.append((src, dst, num, den))
        max_state = max(max_state, src, dst)
    if max_state < 0:
        raise FormatError("empty chain file")
    n = max_state + 1
    # every state needs an outgoing row, so a large id must not size anything
    if n > len(rows):
        raise FormatError(f"{n} states but {len(rows)} rows: some state has no outgoing row")
    per_state: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for src, dst, num, den in rows:
        per_state[src].append((dst, num, den))
    # a state's code is its entry count and the masses of its targets, in
    # order, over the least common denominator of its probabilities
    codes, refs = [], []
    for entries in per_state:
        c: list = []
        r: list[int] = []
        if _dist_code([(dst, (), (dst,), num, den) for dst, num, den in entries], c, r) is None:
            return _mc_from_values(per_state)
        codes.append(tuple(c))
        refs.append(tuple(r))
    return Coalgebra.from_form(Distribution(Identity()), CompiledForm(refs, code=codes))


def _mc_from_values(per_state: list[list[tuple[int, int, int]]]) -> Coalgebra:
    """The chain built from values and validated by ``Coalgebra.make``: it
    decides a chain whose integer masses did not check out, and names the
    first bad state."""
    values = [
        DistVal(tuple([(StateRef(dst), Fraction(num, den)) for dst, num, den in entries]))
        for entries in per_state
    ]
    try:
        return Coalgebra.make(Distribution(Identity()), values)
    except InvalidValueError as e:  # a sum other than 1, or a probability too long to print
        raise FormatError(str(e)) from None


_LOADERS = {
    "coalg-json": _load_coalg_json,
    "dfa-text": _load_dfa_text,
    "aut": _load_aut,
    "mc-tsv": _load_mc_tsv,
}


def load_coalgebra(path: str, fmt: str = "auto") -> Coalgebra:
    if fmt == "auto":
        fmt = detect_format(path)
    if fmt not in _LOADERS:
        raise FormatError(f"unknown format {fmt!r}; choose from {FORMATS}")
    with open(path, "r", encoding="utf-8") as f:
        return _LOADERS[fmt](f)


def dump_coalgebra(coalg: Coalgebra) -> str:
    """Canonical JSON text; loading it back is the identity."""
    return _json_dumps(coalgebra_to_obj(coalg))


# -- result outputs --------------------------------------------------------------


def partition_to_json(partition: Partition) -> str:
    return _json_dumps({"blocks": partition.blocks})  # tuples dump as arrays


def tree_to_json(tree: RefinementTree) -> str:
    """The tree document: the tree's four per-node arrays as they are."""
    return _json_dumps(
        {"parent": tree.parent, "w": tree.weight, "members": tree.members, "heavy": tree.heavy}
    )


def tree_from_json(text: str) -> tuple[WeightedTree, list, Optional[list]]:
    """Parse a tree document into (tree, weights, recorded heavy choice).

    Only the shape is checked: ``parent`` a rooted tree, ``w`` an array,
    ``heavy`` an array or absent (None then).  ``wtree`` checks the rest.
    """
    obj = _json_loads(text)
    if not isinstance(obj, dict) or "parent" not in obj or "w" not in obj:
        raise FormatError("tree document needs 'parent' and 'w' arrays")
    parent = obj["parent"]
    weights = obj["w"]
    if not isinstance(parent, list) or not isinstance(weights, list):
        raise FormatError("'parent' and 'w' must be arrays")
    heavy = obj.get("heavy")
    if heavy is not None and not isinstance(heavy, list):
        raise FormatError("'heavy' must be an array or null")
    try:
        tree = WeightedTree(parent)
    except ValueError as e:
        raise FormatError(str(e)) from None
    return tree, weights, heavy
