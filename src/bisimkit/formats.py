"""File formats: coalgebra inputs, partition and refinement-tree outputs.

Input formats
  coalg-json  {"functor": "...", "states": n, "c": [...]}  (native)
  dfa-text    header ``dfa n k``; one line per state: accept bit then k
              successor ids, one per letter a, b, ...; blank lines are
              skipped, and a form feed separates fields but ends no line;
              loads into the compiled form, without building values,
              checking and converting the body a column at a time (a
              failed check rescans it line by line to name the bad line)
  aut         Aldebaran: ``des (first, m, n)`` then ``(src, "label", dst)``
              triples; becomes a labelled transition system; at most
              ``AUT_MAX_STATES`` states
  mc-tsv      whitespace rows ``src dst num/den``; becomes a Markov chain

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

from .coalgebra import Coalgebra, CompiledForm, coalgebra_from_obj, coalgebra_to_obj
from .engine import Partition, RefinementTree
from .functors import (
    ConstSet,
    Distribution,
    Exponent,
    FunctorSyntaxError,
    Identity,
    Powerset,
    Product,
    default_letters,
)
from .values import (
    DistVal,
    InvalidValueError,
    Label,
    SetVal,
    StateRef,
    TupleVal,
    parse_probability,
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
        return coalgebra_from_obj(obj)
    except (InvalidValueError, FunctorSyntaxError) as e:
        raise FormatError(str(e)) from None
    except RecursionError:
        raise FormatError("input nested too deeply") from None


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
        per_state[src].append(TupleVal((Label(label), StateRef(dst))))
    values = [SetVal(tuple(v)) for v in per_state]
    return Coalgebra.make(functor, values)


def _load_mc_tsv(stream: TextIO) -> Coalgebra:
    rows: list[tuple[int, int, int, Fraction]] = []
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
            prob = parse_probability(fields[2])
        except InvalidValueError as e:
            raise FormatError(str(e), i + 1) from None
        if src < 0 or dst < 0:
            raise FormatError("state ids must be nonnegative", i + 1)
        if prob == 0:
            raise FormatError("probability must be positive", i + 1)
        rows.append((i + 1, src, dst, prob))
        max_state = max(max_state, src, dst)
    if max_state < 0:
        raise FormatError("empty chain file")
    n = max_state + 1
    # every state needs an outgoing row, so a large id must not size anything
    if n > len(rows):
        raise FormatError(f"{n} states but {len(rows)} rows: some state has no outgoing row")
    per_state: list[list] = [[] for _ in range(n)]
    for lineno, src, dst, prob in rows:
        per_state[src].append((StateRef(dst), prob))
    values = [DistVal(tuple(entries)) for entries in per_state]
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
