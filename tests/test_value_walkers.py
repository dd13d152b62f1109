"""The value walkers agree with the isinstance-chain references in ``util``.

``structure_key``, ``signature_of``, ``validate_value`` and ``value_from_obj``
dispatch on one ``type()`` lookup; ``util.reference_*`` keep the chains they
replaced.  On gen's six families, ``labelled_mc`` and hand-built values that
nest every functor layer, both must return equal results and raise the same
exception class with the same message.
"""

import random
from fractions import Fraction

import pytest
from util import (
    labelled_mc,
    random_value,
    reference_signature_of,
    reference_structure_key,
    reference_validate_value,
    reference_value_from_obj,
)

from bisimkit.functors import parse_functor, render_functor
from bisimkit.gen import FAMILIES, GenSpec, generate
from bisimkit.values import (
    DistVal,
    FunVal,
    InjVal,
    Label,
    SetVal,
    StateRef,
    TupleVal,
    signature_of,
    structure_key,
    validate_value,
    value_from_obj,
    value_to_obj,
)

# every layer nested in every other: +, ^, P P, D under P, P under D
NESTED = [
    "X + {a,b}",
    "(X ^ {a,b}) + {c} + X",
    "P P X",
    "P D X",
    "D P X",
    "D (P ({a,b} * X) + X ^ {a})",
    "P (D (X + {a}) * {u,v})",
    "{0,1} * (P X) ^ {a,b}",
    "(D X) ^ {a,b} + P (X * X)",
]

# JSON subtrees that some walker refuses or reads differently from a value
JUNK = [
    5, None, 1.5, True, "zz", {"weird": 1}, {"x": True}, {"x": "0"}, {"x": 99}, {"x": -1},
    {"inj": 0}, {"inj": True, "val": "a"}, {"inj": 7, "val": {"x": 0}}, {"fun": []},
    {"fun": {"q": {"x": 0}}}, {"set": {}}, {"set": [{"x": 0}, 3]}, {"dist": 3},
    {"dist": [[{"x": 0}]]}, {"dist": [[{"x": 0}, "1e-3"]]}, {"dist": [[{"x": 0}, "3/2"]]},
    {"dist": [[{"x": 0}, "-1/2"], [{"x": 0}, "3/2"]]}, {"dist": [[{"x": 0}, "1/0"]]},
    {"dist": [[{"x": 0}, "1/3"]]}, {"dist": [[{"x": 0}, 1]]}, [], [{"x": 0}], ["a", "b", "c"],
]


def outcome(fn, *args):
    """What a call returned, or the class and message of what it raised."""
    try:
        return "ok", fn(*args)
    except Exception as e:  # noqa: BLE001 - the class is what is compared
        return type(e), str(e)


def corpus():
    """(functor, values, state count) for every family and nesting."""
    for family in FAMILIES:
        for n in (1, 2, 5, 17, 30):
            for seed in range(3):
                c = generate(GenSpec(family, n, seed=seed))
                yield c.functor, c.values, n
    for seed in range(3):
        c = labelled_mc(25, seed)
        yield c.functor, c.values, c.n_states
    rng = random.Random(7)
    for text in NESTED:
        expr = parse_functor(text)
        for n in (1, 3, 6):
            yield expr, [random_value(expr, rng, n) for _ in range(40)], n


CORPUS = list(corpus())
FUNCTORS = list({expr: None for expr, _, _ in CORPUS})


def labellings(rng, n):
    return [list(range(n)), [0] * n, [x % 3 for x in range(n)],
            [rng.randrange(4) for _ in range(n)], [str(rng.randrange(3)) for _ in range(n)]]


def test_structure_key_and_signature_match_the_references():
    rng = random.Random(3)
    for _, values, n in CORPUS:
        blocks = labellings(rng, n)
        for v in values:
            assert structure_key(v) == reference_structure_key(v)
            for block_of in blocks:
                sig = signature_of(v, block_of)
                assert sig == reference_signature_of(v, block_of)
                assert hash(sig) == hash(reference_signature_of(v, block_of))


def test_validate_value_matches_the_reference_on_every_functor():
    for expr, values, n in CORPUS:
        for v in values:
            assert validate_value(expr, v, n) is None
            # fewer states, and every other functor: the same error or none
            for m in (n, n // 2):
                for other in FUNCTORS:
                    got = outcome(validate_value, other, v, m)
                    assert got == outcome(reference_validate_value, other, v, m), (
                        render_functor(other), v)


def test_validate_value_matches_the_reference_on_bad_distributions():
    dx = parse_functor("D X")
    bad = [
        DistVal(((StateRef(0), Fraction(3, 2)), (StateRef(1), Fraction(-1, 2)))),
        DistVal(((StateRef(0), Fraction(-1, 2)), (StateRef(1), Fraction(3, 2)))),
        DistVal(((StateRef(0), Fraction(1, 3)),)),
        DistVal(((StateRef(0), Fraction(1, 2)), (StateRef(5), Fraction(1, 2)))),
        DistVal(((Label("a"), Fraction(1)),)),
        DistVal(()),
    ]
    for v in bad:
        got = outcome(validate_value, dx, v, 2)
        assert got[0] != "ok" and got == outcome(reference_validate_value, dx, v, 2)


def subtrees(obj, path=()):
    """Every JSON subtree's path, the root first."""
    yield path
    if type(obj) is list:
        for i, x in enumerate(obj):
            yield from subtrees(x, path + (i,))
    elif type(obj) is dict:
        for k, x in obj.items():
            yield from subtrees(x, path + (k,))


def replaced(obj, path, new):
    if not path:
        return new
    head, rest = path[0], path[1:]
    if type(obj) is list:
        return [replaced(x, rest, new) if i == head else x for i, x in enumerate(obj)]
    return {k: replaced(x, rest, new) if k == head else x for k, x in obj.items()}


def test_value_from_obj_matches_the_reference():
    rng = random.Random(11)
    mutated = 0
    for expr, values, n in CORPUS:
        for v in values:
            obj = value_to_obj(v)
            assert value_from_obj(obj) == reference_value_from_obj(obj) == v
            paths = list(subtrees(obj))
            for _ in range(2):
                bad = replaced(obj, rng.choice(paths), rng.choice(JUNK))
                got = outcome(value_from_obj, bad)
                assert got == outcome(reference_value_from_obj, bad), bad
                if got[0] == "ok":
                    w = got[1]
                    assert outcome(validate_value, expr, w, n) == outcome(
                        reference_validate_value, expr, w, n)
                else:
                    mutated += 1
    assert mutated > 1000


@pytest.mark.parametrize("cls", [StateRef, Label, TupleVal, InjVal, FunVal, SetVal, DistVal])
def test_a_subclass_is_not_a_value(cls):
    sub = type("Sub" + cls.__name__, (cls,), {})
    fields = {StateRef: (0,), Label: ("a",), TupleVal: ((),), InjVal: (0, Label("a")),
              FunVal: ((),), SetVal: ((),), DistVal: ((),)}[cls]
    v = sub(*fields)
    for walk in (structure_key, value_to_obj, lambda v: signature_of(v, [0])):
        with pytest.raises(TypeError, match="not a value"):
            walk(v)
