"""Brute-force oracle and partition comparison."""

import random
import time
from fractions import Fraction

import pytest
from util import labelled_mc, random_value, ref_lifted_related, reference_bruteforce

from bisimkit import oracle
from bisimkit.coalgebra import Coalgebra
from bisimkit.engine import Partition, refine_naive
from bisimkit.functors import parse_functor
from bisimkit.gen import FAMILIES, GenSpec, generate
from bisimkit.oracle import bisim_bruteforce, partitions_equal, related
from bisimkit.values import DistVal, FunVal, InjVal, Label, SetVal, StateRef, TupleVal


def dfa1(*rows):
    f = parse_functor("{0,1} * (X ^ {a})")
    values = [TupleVal((Label(b), FunVal((("a", StateRef(s)),)))) for b, s in rows]
    return Coalgebra.make(f, values)


def test_bruteforce_pure_distribution_one_block():
    c = Coalgebra.make(
        parse_functor("D X"),
        [DistVal(((StateRef((i + 1) % 4), 1),)) for i in range(4)],
    )
    assert bisim_bruteforce(c).blocks == ((0, 1, 2, 3),)


def test_bruteforce_chain_singletons():
    c = dfa1(("0", 1), ("0", 2), ("1", 2))
    assert bisim_bruteforce(c).blocks == ((0,), (1,), (2,))


def test_bruteforce_isomorphic_components_share_blocks():
    # two copies of the same 3-state machine: 0~3, 1~4, 2~5
    c = dfa1(("0", 1), ("0", 2), ("1", 2), ("0", 4), ("0", 5), ("1", 5))
    p = bisim_bruteforce(c)
    assert p.blocks == ((0, 3), (1, 4), (2, 5))


def test_bruteforce_size_cap():
    with pytest.raises(ValueError):
        bisim_bruteforce(
            Coalgebra.make(
                parse_functor("D X"),
                [DistVal(((StateRef(0), 1),))] * (10**4 + 1),
            )
        )


def test_bruteforce_one_block_takes_a_linear_number_of_relatedness_tests(monkeypatch):
    # each state is tested against the first member of each group, and one
    # block has one group: no pair of states is tested beyond that
    c = generate(GenSpec("mc", 200, seed=1))
    real, calls = oracle.related, []

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(oracle, "related", counting)
    assert bisim_bruteforce(c).n_blocks == 1
    assert len(calls) <= 2 * c.n_states


def test_bruteforce_matches_naive_on_a_3000_state_lts():
    c = generate(GenSpec("lts", 3000, seed=5))
    started = time.perf_counter()
    p = bisim_bruteforce(c)
    assert time.perf_counter() - started < 10
    assert p == refine_naive(c).partition


# -- against the reference oracle, which eliminates pairs and rechecks every
# pair every round ---------------------------------------------------------------


def test_bruteforce_matches_reference_on_a_chain_beside_a_cycle():
    # the chain peels one state off per round; the cycle's class never splits
    chain = [("0", i + 1) for i in range(19)] + [("1", 19)]
    cycle = [("0", 20 + (i + 1) % 40) for i in range(40)]
    c = dfa1(*chain, *cycle)
    p = bisim_bruteforce(c)
    assert p == reference_bruteforce(c)
    assert p.blocks == tuple((i,) for i in range(20)) + (tuple(range(20, 60)),)


@pytest.mark.parametrize("family", FAMILIES)
def test_bruteforce_matches_reference_on_generated_families(family):
    for n in range(1, 41):
        c = generate(GenSpec(family, n, seed=7000 + n))
        assert bisim_bruteforce(c) == reference_bruteforce(c), (family, n)


def test_bruteforce_matches_reference_on_labelled_chains():
    blocks = set()
    for seed in range(8):
        c = labelled_mc(60, seed)
        p = bisim_bruteforce(c)
        assert p == reference_bruteforce(c), seed
        blocks.add(p.n_blocks)
    assert any(1 < b < 60 for b in blocks)


NESTED = ["P D X", "D (X + {stop})", "P (X ^ {a,b})", "{0,1} * P ({a,b} * D (X + {stop}))",
          "D P X", "{0,1} * D D X"]


@pytest.mark.parametrize("functor", NESTED)
def test_bruteforce_matches_reference_on_nested_values(functor, seed=17):
    expr = parse_functor(functor)
    rng = random.Random(seed)
    joined = separated = False
    for n in (2, 5, 9, 14) * 5:
        c = Coalgebra.make(expr, [random_value(expr, rng, n) for _ in range(n)])
        p = bisim_bruteforce(c)
        assert p == reference_bruteforce(c), (functor, n)
        joined |= p.n_blocks < n
        separated |= p.n_blocks > 1
    assert joined and separated


@pytest.mark.parametrize("functor", NESTED)
def test_related_matches_reference(functor, seed=3):
    expr = parse_functor(functor)
    rng = random.Random(seed)
    verdicts = set()
    for _ in range(6):
        values = [random_value(expr, rng, 6) for _ in range(10)]
        class_of = [rng.randrange(3) for _ in range(6)]
        for a in values:
            for b in values:
                same = related(a, b, class_of)
                assert same == ref_lifted_related(a, b, class_of)
                verdicts.add(same)
    assert verdicts == {True, False}


def dist(*entries):
    return DistVal(tuple((v, Fraction(p)) for v, p in entries))


def test_bruteforce_nested_hand_built():
    # P D X: 0 and 1 offer the same two distributions up to 2 ~ 3; 4 offers
    # only one of them
    half = Fraction(1, 2)
    pdx = Coalgebra.make(parse_functor("P D X"), [
        SetVal((dist((StateRef(2), 1)), dist((StateRef(2), half), (StateRef(4), half)))),
        SetVal((dist((StateRef(3), 1)), dist((StateRef(3), half), (StateRef(4), half)))),
        SetVal(()),
        SetVal(()),
        SetVal((dist((StateRef(2), 1)),)),
    ])
    # D (X + {stop}): the stop mass separates 0 from 1; 2 and 3 loop
    stop = InjVal(1, Label("stop"))
    dxs = Coalgebra.make(parse_functor("D (X + {stop})"), [
        dist((InjVal(0, StateRef(2)), half), (stop, half)),
        dist((InjVal(0, StateRef(3)), 1)),
        dist((InjVal(0, StateRef(2)), 1)),
        dist((InjVal(0, StateRef(3)), 1)),
    ])
    # P (X ^ {a,b}): 0 and 1 step to 2 and 3, which differ only in their
    # own successors
    def fun(a, b):
        return FunVal((("a", StateRef(a)), ("b", StateRef(b))))

    pxa = Coalgebra.make(parse_functor("P (X ^ {a,b})"), [
        SetVal((fun(2, 2),)),
        SetVal((fun(3, 3),)),
        SetVal((fun(2, 2),)),
        SetVal(()),
    ])
    for c, blocks in [
        (pdx, ((0, 1), (2, 3), (4,))),
        (dxs, ((0,), (1, 2, 3))),
        (pxa, ((0, 2), (1,), (3,))),
    ]:
        assert bisim_bruteforce(c).blocks == blocks
        assert reference_bruteforce(c).blocks == blocks


# -- partitions_equal ------------------------------------------------------------


def test_partitions_equal_identity():
    p = Partition.from_block_of([0, 1, 0])
    assert partitions_equal(p, p)


def test_partitions_equal_renamed_blocks():
    p = Partition.from_blocks([[0, 2], [1]], 3)
    q = Partition.from_blocks([[1], [0, 2]], 3)
    assert partitions_equal(p, q)


def test_partitions_equal_extra_split():
    p = Partition.from_blocks([[0, 1, 2]], 3)
    q = Partition.from_blocks([[0, 1], [2]], 3)
    assert not partitions_equal(p, q)
    assert not partitions_equal(q, p)


def test_partitions_equal_size_mismatch():
    with pytest.raises(ValueError):
        partitions_equal(Partition.from_block_of([0]), Partition.from_block_of([0, 0]))
