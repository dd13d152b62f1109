"""Value validation, canonical forms, signatures, JSON codec."""

import random
from fractions import Fraction

import pytest

from bisimkit.coalgebra import Coalgebra
from bisimkit.functors import parse_functor
from bisimkit.values import (
    DistVal,
    FunVal,
    InjVal,
    InvalidValueError,
    Label,
    ProbabilitySumError,
    SetVal,
    ShapeMismatchError,
    StateRangeError,
    StateRef,
    TupleVal,
    UnknownLabelError,
    parse_probability,
    signature_of,
    value_from_obj,
    value_to_obj,
    validate_value,
)

DX = parse_functor("D X")
DFA = parse_functor("{0,1} * (X ^ {a,b})")
PX = parse_functor("P X")


def dist(*pairs):
    return DistVal(tuple((StateRef(i), Fraction(p)) for i, p in pairs))


def dfa_val(bit, sa, sb):
    return TupleVal((Label(bit), FunVal((("a", StateRef(sa)), ("b", StateRef(sb))))))


# -- canonical construction ------------------------------------------------------


def test_set_members_dedupe_and_sort():
    s = SetVal((StateRef(4), StateRef(1), StateRef(4)))
    assert s.members == (StateRef(1), StateRef(4))
    assert s == SetVal((StateRef(1), StateRef(4), StateRef(1)))


def test_dist_zero_entries_dropped_and_merged():
    d = DistVal(
        (
            (StateRef(1), Fraction(1, 2)),
            (StateRef(0), Fraction(0)),
            (StateRef(1), Fraction(1, 2)),
        )
    )
    assert d.entries == ((StateRef(1), Fraction(1)),)


def test_fun_entries_sorted_by_label():
    f = FunVal((("b", StateRef(0)), ("a", StateRef(1))))
    assert [k for k, _ in f.entries] == ["a", "b"]
    assert f == FunVal((("a", StateRef(1)), ("b", StateRef(0))))


# -- validate_value --------------------------------------------------------------


def test_validate_distribution_ok():
    validate_value(DX, dist((0, "1/2"), (1, "1/2")), 2)


def test_validate_distribution_bad_sum():
    with pytest.raises(ProbabilitySumError):
        validate_value(DX, dist((0, "1/2"), (1, "1/3")), 2)


def test_validate_unknown_label():
    with pytest.raises(UnknownLabelError):
        validate_value(DFA, dfa_val("2", 0, 0), 1)


def test_validate_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        validate_value(DFA, StateRef(0), 1)


def test_validate_state_out_of_range():
    with pytest.raises(StateRangeError):
        validate_value(PX, SetVal((StateRef(5),)), 3)


def test_validate_fun_labels_must_match_exponent():
    bad = TupleVal((Label("0"), FunVal((("a", StateRef(0)),))))
    with pytest.raises(ShapeMismatchError):
        validate_value(DFA, bad, 1)
    extra = TupleVal(
        (Label("0"), FunVal((("a", StateRef(0)), ("b", StateRef(0)), ("c", StateRef(0)))))
    )
    with pytest.raises(UnknownLabelError):
        validate_value(DFA, extra, 1)


def test_validate_injection():
    f = parse_functor("X + {stop}")
    validate_value(f, InjVal(0, StateRef(1)), 2)
    validate_value(f, InjVal(1, Label("stop")), 2)
    with pytest.raises(ShapeMismatchError):
        validate_value(f, InjVal(2, Label("stop")), 2)


# -- signatures ------------------------------------------------------------------


def test_signature_powerset_dedupes_blocks():
    blocks = {1: 0, 2: 0, 4: 2}
    v = SetVal((StateRef(1), StateRef(2), StateRef(4)))
    assert signature_of(v, blocks) == (0, 2)


def test_signature_distribution_merges_blocks():
    blocks = {1: 0, 2: 0, 4: 2}
    v = dist((1, "1/2"), (2, "1/4"), (4, "1/4"))
    assert signature_of(v, blocks) == ((0, Fraction(3, 4)), (2, Fraction(1, 4)))


def test_signature_dfa_same_block_successors():
    blocks = [0, 1, 1]
    a = dfa_val("1", 1, 2)
    b = dfa_val("1", 2, 1)
    assert signature_of(a, blocks) == ("1", (1, 1))
    assert signature_of(a, blocks) == signature_of(b, blocks)
    c = dfa_val("0", 1, 2)
    assert signature_of(c, blocks) != signature_of(a, blocks)


def test_signature_verdicts_survive_block_renaming():
    # only equality of signatures matters; renaming block labels with the
    # same kernel must not change any verdict
    vs = [dfa_val("0", 0, 1), dfa_val("0", 1, 0), dfa_val("1", 2, 2), dfa_val("0", 0, 2)]
    b1 = [0, 0, 1]
    b2 = [7, 7, 3]  # same kernel, different names
    for x in vs:
        for y in vs:
            eq1 = signature_of(x, b1) == signature_of(y, b1)
            eq2 = signature_of(x, b2) == signature_of(y, b2)
            assert eq1 == eq2


def test_signature_refinement_never_merges():
    coarse = [0, 0, 0]
    fine = [0, 1, 0]  # refines coarse
    vs = [SetVal((StateRef(0),)), SetVal((StateRef(1),)), SetVal((StateRef(0), StateRef(2)))]
    for x in vs:
        for y in vs:
            if signature_of(x, fine) == signature_of(y, fine):
                assert signature_of(x, coarse) == signature_of(y, coarse)


def test_signature_pure_distribution_all_equal():
    # any state of a plain-distribution system looks the same under one block
    one_block = [0, 0, 0]
    d1 = dist((0, "1/2"), (1, "1/2"))
    d2 = dist((2, 1))
    assert signature_of(d1, one_block) == signature_of(d2, one_block)


def test_constant_value_signature_is_block_independent():
    v = SetVal((TupleVal((Label("a"), StateRef(0))),))
    w = SetVal(())
    assert signature_of(w, [0]) == signature_of(w, [99])
    assert signature_of(v, [0]) != signature_of(v, [99])


# -- JSON codec ------------------------------------------------------------------


@pytest.mark.parametrize(
    "v",
    [
        StateRef(3),
        Label("go"),
        dfa_val("1", 0, 2),
        InjVal(1, Label("stop")),
        SetVal((StateRef(0), TupleVal((Label("a"), StateRef(1))))),
        dist((0, "1/3"), (1, "2/3")),
        SetVal((dist((0, "1/2"), (1, "1/2")), dist((2, 1)))),
    ],
)
def test_value_json_round_trip(v):
    assert value_from_obj(value_to_obj(v)) == v


def test_dist_json_uses_num_den_strings():
    obj = value_to_obj(dist((0, "1/2"), (1, "1/2")))
    assert obj == {"dist": [[{"x": 0}, "1/2"], [{"x": 1}, "1/2"]]}


def test_value_from_obj_rejects_junk():
    with pytest.raises(InvalidValueError):
        value_from_obj({"weird": 1})
    with pytest.raises(InvalidValueError):
        value_from_obj({"dist": [[{"x": 0}, "1/0"]]})
    with pytest.raises(InvalidValueError):
        value_from_obj({"x": "zero"})


@pytest.mark.parametrize("obj", [
    {"inj": 0},
    {"inj": "0", "val": {"x": 0}},
    {"inj": True, "val": {"x": 0}},
    {"fun": [1, 2]},
    {"set": 3},
    {"dist": 5},
    {"dist": [[{"x": 0}, True]]},
])
def test_value_from_obj_rejects_malformed_fields(obj):
    with pytest.raises(InvalidValueError):
        value_from_obj(obj)


@pytest.mark.parametrize("text, p", [
    (1, 1), (0, 0), ("1", 1), ("1/2", Fraction(1, 2)), ("0.25", Fraction(1, 4)),
    ("1/%d" % 10**3000, Fraction(1, 10**3000)),
])
def test_parse_probability_accepts(text, p):
    assert parse_probability(text) == p


@pytest.mark.parametrize("text", [
    "1e-5000", "1E-5", "0.5e0", "1e-10000000",  # exponents are refused, not expanded
    "-1/2", -1, "1/0", "half", "1/" + "1" * 5000, 0.5, True, None,
])
def test_parse_probability_rejects(text):
    with pytest.raises(InvalidValueError):
        parse_probability(text)


def test_probability_errors_format_no_number_from_the_input():
    # the merged mass and the sum have more digits than Python will print
    a, b = 10**3000 + 1, 10**3000 + 3
    v = value_from_obj({"dist": [[{"x": 0}, f"1/{a}"], [{"x": 0}, f"1/{b}"]]})
    with pytest.raises(ProbabilitySumError, match="does not sum to 1"):
        validate_value(DX, v, 1)
    v = value_from_obj({"dist": [[{"x": 0}, f"{a}/{b}"], [{"x": 0}, f"{b}/{a}"]]})
    with pytest.raises(ProbabilitySumError, match=r"outside \(0, 1\]"):
        validate_value(DX, v, 1)


# signed, padded, underscored, non-ASCII digits, leading zeros, a zero
# denominator, and numerators at and past Python's 4300-digit limit
EDGE_LITERALS = ["+1/2", " 1/2 ", "1_0/20", "٣/٤", "0007/0014", "1/0", "-1/2",
                 "7" * 4300 + "/" + "8" * 4300, "7" * 4301 + "/" + "8" * 4301, "7" * 4301 + "/8"]


@pytest.mark.parametrize("text", EDGE_LITERALS, ids=range(len(EDGE_LITERALS)))
def test_parse_probability_reads_what_fraction_reads(text):
    # an ASCII digits/digits literal takes two int() calls, the rest Fraction
    # itself: both must accept the same literals and refuse with one message
    try:
        want = Fraction(text)
    except ZeroDivisionError:
        want = "probability has a zero denominator"
    except ValueError:
        want = "probability is not 'num/den', a decimal or an integer, or has too many digits"
    else:
        want = "probability is negative" if want < 0 else want
    try:
        got = parse_probability(text)
    except InvalidValueError as e:
        got = str(e)
    assert got == want
    assert type(got) is type(want)


def test_parse_probability_fast_path_matches_fraction_on_ascii_literals():
    rng = random.Random(5)
    for _ in range(2000):
        num = "0" * rng.randrange(3) + str(rng.randrange(10**rng.randrange(1, 30)))
        den = "0" * rng.randrange(3) + str(rng.randrange(10**rng.randrange(1, 30)))
        text = f"{num}/{den}"
        try:
            want = Fraction(text)
        except ZeroDivisionError:
            with pytest.raises(InvalidValueError, match="zero denominator"):
                parse_probability(text)
        else:
            assert parse_probability(text) == want


def test_probability_digits_are_capped_at_4300():
    # value_to_obj prints every probability, and Python prints no integer of
    # more than 4300 digits; the check compares integers, never str()
    for digits, ok in ((4300, True), (4301, False)):
        den = 10**digits - 1 if ok else 10**(digits - 1)
        v = DistVal(((StateRef(0), Fraction(1, den)), (StateRef(1), Fraction(den - 1, den))))
        if ok:
            validate_value(DX, v, 2)
            assert value_from_obj(value_to_obj(v)) == v
        else:
            with pytest.raises(InvalidValueError, match="more than 4300 digits"):
                validate_value(DX, v, 2)
            with pytest.raises(InvalidValueError, match="state 0: .*more than 4300 digits"):
                Coalgebra.make(DX, [v, DistVal(((StateRef(1), Fraction(1)),))])
