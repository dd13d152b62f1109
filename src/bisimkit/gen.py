"""Seeded random and adversarial instance generators.

Families: ``dfa`` (acceptance bit plus one successor per letter), ``nfa``
(acceptance bit plus successor sets per letter), ``lts`` (sets of
action-labelled successors), ``mc`` (exact-rational distributions), ``mdp``
(sets of distributions), and ``chain`` (the counter chain: state i steps to
i+1 on every letter, only the last state accepts, via a self-loop).

Randomness comes from splitmix64 with its standard constants, so the same
spec reproduces the same coalgebra bytes on any platform.  Bounded draws
use plain modulo on the 64-bit output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coalgebra import Coalgebra
from .functors import (
    ConstSet,
    Distribution,
    Exponent,
    Identity,
    Powerset,
    Product,
    default_letters,
)
from .values import DistVal, FunVal, Label, SetVal, StateRef, TupleVal

__all__ = ["SplitMix64", "GenSpec", "generate", "FAMILIES"]

FAMILIES = ("dfa", "nfa", "lts", "mc", "mdp", "chain")

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# fixed denominator for generated distributions; reduced fractions stay
# well below the 2**16 cap
_DIST_DENOMINATOR = 256


class SplitMix64:
    """The splitmix64 generator; tiny, fast, reproducible everywhere."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish draw in [0, n) by modulo; n must be positive."""
        if n <= 0:
            raise ValueError(f"bound must be positive: {n}")
        return self.next_u64() % n


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one generated instance.

    ``alphabet_size`` is the letter count for dfa/nfa/chain and the action
    count for lts/mdp; ``branching`` caps successors per slot (edges per
    letter, distribution support, distributions per state), at most
    ``_DIST_DENOMINATOR`` for mc/mdp.
    """

    family: str
    n_states: int
    alphabet_size: int = 2
    branching: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; pick one of {FAMILIES}")
        if self.n_states < 1:
            raise ValueError("n_states must be at least 1")
        if self.alphabet_size < 1:
            raise ValueError("alphabet_size must be at least 1")
        if self.branching < 1:
            raise ValueError("branching must be at least 1")
        if self.family in ("mc", "mdp") and self.branching > _DIST_DENOMINATOR:
            raise ValueError(
                f"branching must be at most {_DIST_DENOMINATOR} for {self.family}: every "
                f"point of a distribution gets a mass of at least 1/{_DIST_DENOMINATOR}"
            )


def _random_distribution(rng: SplitMix64, n: int, branching: int) -> DistVal:
    """A distribution with exact fractions summing to 1 by construction."""
    t = 1 + rng.below(branching)
    targets = [rng.below(n) for _ in range(t)]
    remaining = _DIST_DENOMINATOR
    parts = []
    for i in range(t - 1):
        ceiling = remaining - (t - 1 - i)
        parts.append(1 + rng.below(ceiling))
        remaining -= parts[-1]
    parts.append(remaining)
    return DistVal(
        tuple(
            (StateRef(x), Fraction(p, _DIST_DENOMINATOR))
            for x, p in zip(targets, parts)
        )
    )


def generate(spec: GenSpec) -> Coalgebra:
    """Build the coalgebra for a spec; identical specs give identical bytes."""
    rng = SplitMix64(spec.seed)
    n = spec.n_states
    k = spec.alphabet_size
    b = spec.branching
    letters = default_letters(k)
    bits = ConstSet(("0", "1"))

    if spec.family == "dfa":
        functor = Product((bits, Exponent(Identity(), letters)))
        values = []
        for _ in range(n):
            accept = Label(str(rng.below(2)))
            succ = FunVal(tuple((a, StateRef(rng.below(n))) for a in letters))
            values.append(TupleVal((accept, succ)))
        return Coalgebra.make(functor, values)

    if spec.family == "chain":
        functor = Product((bits, Exponent(Identity(), letters)))
        values = []
        for i in range(n):
            accept = Label("1" if i == n - 1 else "0")
            target = i + 1 if i < n - 1 else i
            succ = FunVal(tuple((a, StateRef(target)) for a in letters))
            values.append(TupleVal((accept, succ)))
        return Coalgebra.make(functor, values)

    if spec.family == "nfa":
        functor = Product((bits, Exponent(Powerset(Identity()), letters)))
        values = []
        for _ in range(n):
            accept = Label(str(rng.below(2)))
            entries = []
            for a in letters:
                count = rng.below(b + 1)
                entries.append(
                    (a, SetVal(tuple(StateRef(rng.below(n)) for _ in range(count))))
                )
            values.append(TupleVal((accept, FunVal(tuple(entries)))))
        return Coalgebra.make(functor, values)

    if spec.family == "lts":
        functor = Powerset(Product((ConstSet(letters), Identity())))
        values = []
        for _ in range(n):
            count = rng.below(k * b + 1)
            edges = tuple(
                TupleVal((Label(letters[rng.below(k)]), StateRef(rng.below(n))))
                for _ in range(count)
            )
            values.append(SetVal(edges))
        return Coalgebra.make(functor, values)

    if spec.family == "mc":
        functor = Distribution(Identity())
        values = [_random_distribution(rng, n, b) for _ in range(n)]
        return Coalgebra.make(functor, values)

    if spec.family == "mdp":
        functor = Powerset(Distribution(Identity()))
        values = []
        for _ in range(n):
            count = 1 + rng.below(k)
            values.append(
                SetVal(tuple(_random_distribution(rng, n, b) for _ in range(count)))
            )
        return Coalgebra.make(functor, values)

    raise AssertionError(f"unhandled family {spec.family!r}")
