"""Benchmark inputs and their independent reference answers.

Every instance is built twice over: once as a bisimkit coalgebra (through
``bisimkit.gen.generate`` or ``Coalgebra.make``) that is written to an input
file, and once as plain integer tables that the benchmark keeps for
itself.  The reference partition is computed from the tables by
``plain_refinement`` below, a fixpoint over Python sets and dicts that shares
no code with the engine, the signature evaluator or the value layer.

The labelled probabilistic families live here rather than in ``gen``:
``gen``'s ``mc`` and ``mdp`` families collapse to one block on every seed,
so they only ever test the trivial answer.  Labels on the states (``lmc``)
or on the choices (``lmdp``) make their bisimilarity quotients non-trivial.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

from bisimkit.coalgebra import Coalgebra
from bisimkit.formats import dump_coalgebra
from bisimkit.functors import parse_functor
from bisimkit.gen import GenSpec, SplitMix64, generate
from bisimkit.values import DistVal, Label, SetVal, StateRef, TupleVal

LETTERS = ("a", "b")
LMC_FUNCTOR = "{0,1} * D X"
LMDP_FUNCTOR = "P ({a,b} * D X)"
# quarter probabilities make equal class masses likely, so blocks merge
_DENOMINATOR = 4


class Instance:
    """One generated input: the file text to write and its reference answer.

    ``reference()`` computes the canonical blocks; ``gen_s`` is the time
    spent inside ``bisimkit.gen.generate``.
    """

    def __init__(self, family, n, ext, text, reference, gen_s=0.0):
        self.family = family
        self.n = n
        self.ext = ext
        self.text = text
        self.reference = reference
        self.gen_s = gen_s


# -- reference -----------------------------------------------------------------


def canonical_blocks(block_of):
    """Blocks as member lists, ordered by smallest member, members ascending."""
    groups = {}
    for x, b in enumerate(block_of):
        groups.setdefault(b, []).append(x)
    return list(groups.values())


def plain_refinement(n, signature):
    """Coarsest stable partition by whole sweeps (Moore's algorithm).

    ``signature(x, block)`` is the one-step observation of state x with
    successors replaced by their block ids in ``block``; it must be
    hashable and independent of the order successors are listed in.
    """
    block = [0] * n
    count = 1
    while True:
        ids = {}
        new = [ids.setdefault((block[x], signature(x, block)), len(ids)) for x in range(n)]
        if len(ids) == count:
            return canonical_blocks(block)
        block, count = new, len(ids)


def moore(acc, succ):
    """``plain_refinement`` for DFAs, on int arrays: acceptance bits and
    one successor column per letter."""
    columns = list(zip(*succ))
    block = list(acc)
    count = len(set(block))
    while True:
        ids = {}
        keys = zip(block, *(map(block.__getitem__, col) for col in columns))
        new = [ids.setdefault(k, len(ids)) for k in keys]
        if len(ids) == count:
            return canonical_blocks(block)
        block, count = new, len(ids)


def _class_mass(dist, block):
    mass = {}
    for y, p in dist:
        b = block[y]
        mass[b] = mass.get(b, 0) + p
    return frozenset(mass.items())


# -- families built by bisimkit.gen ----------------------------------------------


def _generate(family, n, seed):
    t0 = perf_counter()
    coalg = generate(GenSpec(family, n, seed=seed))
    return coalg, perf_counter() - t0


def dfa_text(acc, succ):
    lines = [f"dfa {len(acc)} {len(succ[0])}"]
    lines.extend(f"{a} {' '.join(map(str, s))}" for a, s in zip(acc, succ))
    return "\n".join(lines) + "\n"


def _dfa_tables(coalg):
    acc = [int(v.items[0].name) for v in coalg.values]
    succ = [tuple(s.index for _, s in v.items[1].entries) for v in coalg.values]
    return acc, succ


def dfa_instance(family, n, seed):
    """``dfa`` or ``chain`` from gen, written as ``.dfa`` text."""
    coalg, gen_s = _generate(family, n, seed)
    acc, succ = _dfa_tables(coalg)
    return Instance(family, n, ".dfa", dfa_text(acc, succ), lambda: moore(acc, succ), gen_s)


def nfa_instance(n, seed):
    """``nfa`` from gen, written as coalgebra JSON."""
    coalg, gen_s = _generate("nfa", n, seed)
    acc = [v.items[0].name for v in coalg.values]
    succ = [
        tuple(tuple(m.index for m in s.members) for _, s in v.items[1].entries)
        for v in coalg.values
    ]

    def sig(x, blk):
        return acc[x], tuple(frozenset(blk[y] for y in s) for s in succ[x])

    return Instance("nfa", n, ".json", dump_coalgebra(coalg), lambda: plain_refinement(n, sig), gen_s)


def lts_instance(n, seed):
    """``lts`` from gen, written as Aldebaran ``.aut``."""
    coalg, gen_s = _generate("lts", n, seed)
    edges = [tuple((m.items[0].name, m.items[1].index) for m in v.members) for v in coalg.values]
    lines = [f"des (0, {sum(map(len, edges))}, {n})"]
    for src, out in enumerate(edges):
        lines.extend(f'({src}, "{label}", {dst})' for label, dst in out)

    def sig(x, blk):
        return frozenset((label, blk[y]) for label, y in edges[x])

    text = "\n".join(lines) + "\n"
    return Instance("lts", n, ".aut", text, lambda: plain_refinement(n, sig), gen_s)


# -- labelled probabilistic families -----------------------------------------------


def _random_dist(rng, n):
    """One or two targets; probabilities in quarters (integers summing to 4)."""
    if rng.below(2) == 0:
        return ((rng.below(n), _DENOMINATOR),)
    p = 1 + rng.below(_DENOMINATOR - 1)
    return ((rng.below(n), p), (rng.below(n), _DENOMINATOR - p))


def _dist_value(dist):
    return DistVal(tuple((StateRef(y), Fraction(p, _DENOMINATOR)) for y, p in dist))


def lmc_instance(n, seed):
    """Labelled Markov chain ``{0,1} * D X``: an output bit and one distribution."""
    rng = SplitMix64(seed)
    bits = []
    dists = []
    for _ in range(n):
        bits.append(str(rng.below(2)))
        dists.append(_random_dist(rng, n))
    values = [TupleVal((Label(b), _dist_value(d))) for b, d in zip(bits, dists)]
    coalg = Coalgebra.make(parse_functor(LMC_FUNCTOR), values)

    def sig(x, blk):
        return bits[x], _class_mass(dists[x], blk)

    return Instance("lmc", n, ".json", dump_coalgebra(coalg), lambda: plain_refinement(n, sig))


def lmdp_instance(n, seed):
    """Labelled MDP ``P ({a,b} * D X)``: up to two action-labelled distributions.

    A state with no choice is a deadlock, which separates it from the rest.
    """
    rng = SplitMix64(seed)
    choices = []
    for _ in range(n):
        choices.append(
            tuple((LETTERS[rng.below(2)], _random_dist(rng, n)) for _ in range(rng.below(3)))
        )
    values = [
        SetVal(tuple(TupleVal((Label(a), _dist_value(d))) for a, d in cs)) for cs in choices
    ]
    coalg = Coalgebra.make(parse_functor(LMDP_FUNCTOR), values)

    def sig(x, blk):
        return frozenset((a, _class_mass(d, blk)) for a, d in choices[x])

    return Instance("lmdp", n, ".json", dump_coalgebra(coalg), lambda: plain_refinement(n, sig))


GENERATORS = {
    "dfa": lambda n, seed: dfa_instance("dfa", n, seed),
    "chain": lambda n, seed: dfa_instance("chain", n, seed),
    "nfa": nfa_instance,
    "lts": lts_instance,
    "lmc": lmc_instance,
    "lmdp": lmdp_instance,
}
