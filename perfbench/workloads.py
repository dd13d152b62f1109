"""The benchmark's workloads: which inputs each builds and which commands it runs.

Why these three (see also BENCHMARK.json):

``dfa-5k``
    One seeded 5k-state, 2-letter random DFA in ``.dfa`` text, through
    ``minimize --audit`` and ``minimize --algo naive``.  Much input to load,
    the rigid signature path, the main loop, canonicalization and a large
    tree audit; the naive run gives the "Hopcroft beats naive" reading.
``chain-1k``
    The 1000-state counter chain with ``--audit``.  Loading is trivial and
    each split peels one state off a heavy child, so per-split heavy-child
    work, tree recording and tree serialization dominate.  The naive sweep
    needs one pass per state on a chain, so ``naive_s`` here is taken on a
    350-state chain.
``crosscheck-small``
    60 seeded 30-state instances from six families, each run the
    way ``compare`` runs it (naive, hopcroft with card/pred/reach weights)
    plus a tree audit, and checked against the brute-force oracle.  Per-call
    fixed cost plus the oracle; big-input layers do little here.  Its nfa
    (``.json``), lts (``.aut``) and labelled lmc/lmdp (``.json``, exact
    rationals) inputs also carry the JSON and aut loaders, value validation
    and the general signature path under ``--weight pred``.

Sizes are chosen so that one pass over a workload takes well under a
second, and a run repeats it often enough for each command's fastest pass
to hold still on a shared two-core machine.  Every workload runs in one
process without threads.

A fourth workload, three 1000-state branching inputs (NFA, LTS, labelled
MDP) under ``--weight pred``, was dropped: four workloads fit the
benchmark's time limit only with runs too short to outlast the host's slow
spells, and crosscheck-small covers the same loaders and signature path.
"""

from __future__ import annotations

from bisimkit.gen import SplitMix64

NAIVE = ("naive", ("--algo", "naive"))
CROSSCHECK_FAMILIES = ("dfa", "nfa", "lts", "chain", "lmc", "lmdp")


class Spec:
    """One input of a workload.

    ``ops`` are (kind, extra minimize arguments); kind ``minimize`` counts
    towards ``minimize_s`` and ``naive`` towards ``naive_s``.  ``reference``
    is ``plain`` (the benchmark's own refinement, computed in set-up),
    ``singletons`` (the known answer) or ``oracle`` (brute force, run in
    every pass).
    """

    def __init__(self, family, n, seed, ops, reference):
        self.family = family
        self.n = n
        self.seed = seed
        self.ops = ops
        self.reference = reference


def dfa_5k(rng, smoke):
    n = 1000 if smoke else 5_000
    ops = [("minimize", ("--audit",)), NAIVE]
    return [Spec("dfa", n, rng.next_u64(), ops, "plain")]


def chain_1k(rng, smoke):
    return [
        Spec("chain", 300 if smoke else 1000, 0, [("minimize", ("--audit",))], "singletons"),
        Spec("chain", 60 if smoke else 350, 0, [NAIVE], "singletons"),
    ]


def crosscheck_small(rng, smoke):
    ops = [
        NAIVE,
        ("minimize", ("--weight", "card", "--audit")),
        ("minimize", ("--weight", "pred")),
        ("minimize", ("--weight", "reach")),
    ]
    # a fixed size keeps the work of a pass the same across seeds
    per_family, n = (2, 10) if smoke else (10, 30)
    return [
        Spec(family, n, rng.next_u64(), ops, "oracle")
        for family in CROSSCHECK_FAMILIES
        for _ in range(per_family)
    ]


WORKLOADS = {
    "dfa-5k": dfa_5k,
    "chain-1k": chain_1k,
    "crosscheck-small": crosscheck_small,
}


def specs(workload, seed, smoke=False):
    """The inputs of a workload; the same seed gives the same inputs."""
    return WORKLOADS[workload](SplitMix64(seed), smoke)
