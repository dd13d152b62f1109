"""Pinned output bytes: partition and tree JSON and counters never drift.

Each digest is the sha256 over the outputs of a few seeded instances of
one family under one weight kind.  Any change to the engine or the output
formats that alters a single byte of a partition or tree document, or a
single counter, changes a digest here.  The tree is pinned twice: as
written, and rebuilt in the earlier form that listed every node's states,
whose digests were recorded before the tree document went leaf-only.  The
DFA and chain instances are also written as dfa-text and loaded back, which
builds their compiled form without values; the digests stay the same.
The naive sweep and both engines' main-loop snapshots are pinned as well.
"""

import hashlib
import json

import pytest
from util import dfa_text, labelled_mc, old_form_tree_document

from bisimkit.engine import refine_hopcroft, refine_naive
from bisimkit.formats import load_coalgebra, partition_to_json, tree_to_json
from bisimkit.gen import GenSpec, generate

COUNTERS = ("iterations", "splits", "dirty_markings", "markdirty_touches",
            "signatures_computed")
NAIVE_COUNTERS = ("iterations", "splits", "signatures_computed")
SEEDS = (3, 11, 42)


INSTANCES = {
    "dfa": lambda seed: generate(GenSpec("dfa", 80, alphabet_size=1 + seed % 2, seed=seed)),
    "lts": lambda seed: generate(GenSpec("lts", 60, seed=seed)),
    "chain": lambda seed: generate(GenSpec("chain", 40 + seed)),
    "lmc": lambda seed: labelled_mc(60, seed),
}

# (partition, old-form tree, counters) digests; the first two were recorded
# before the refinement tree stopped storing per-node states, the counters
# after split_leaf stopped keying a lone dirty state beside a clean mass
PINNED = {
    ("chain", "card"): ("f8a96cafaed0819c", "ce264b9015807d28", "e1b24d4e68ad7054"),
    ("chain", "pred"): ("f8a96cafaed0819c", "64626bdec1a6a712", "1d84a79b0d30951d"),
    ("chain", "reach"): ("f8a96cafaed0819c", "36457a3eee282442", "1d84a79b0d30951d"),
    ("dfa", "card"): ("03c7a114db6457aa", "420e5bbb0bf643ac", "2be4a39dd10e3381"),
    ("dfa", "pred"): ("03c7a114db6457aa", "0fa5fe48f1196737", "16cf4c759ec98721"),
    ("dfa", "reach"): ("03c7a114db6457aa", "39067ca49ea4a140", "ebe1111fa1892c5b"),
    ("lmc", "card"): ("95657545a220b45f", "7108e434cf6f556b", "696e4ce1fdbc2875"),
    ("lmc", "pred"): ("95657545a220b45f", "1a4dcd12e95f7bb0", "9b62186841e644f9"),
    ("lmc", "reach"): ("95657545a220b45f", "c6d105d2a28c56a8", "6f1ff5cf655521fc"),
    ("lts", "card"): ("2825abb6faf6d1da", "d3dcb8f5fb6816f6", "de4f043f54d5d0d3"),
    ("lts", "pred"): ("2825abb6faf6d1da", "4b38f13f189945bb", "572b205b4e5f74c8"),
    ("lts", "reach"): ("2825abb6faf6d1da", "3a260c33c95f3155", "34ed283ffba42ab1"),
}


# digests of the tree documents as written: parent, w, leaf members, heavy
PINNED_TREE = {
    ("chain", "card"): "b20eaade15788c69",
    ("chain", "pred"): "664ae634b820e529",
    ("chain", "reach"): "e4c23196e1d5be5c",
    ("dfa", "card"): "5ba0c4470bde6b36",
    ("dfa", "pred"): "f6a612390b279d21",
    ("dfa", "reach"): "6037d5a625cf330b",
    ("lmc", "card"): "9349a45375f780e0",
    ("lmc", "pred"): "c4e2ad7ae1efdc85",
    ("lmc", "reach"): "e3a37c3fda92ea62",
    ("lts", "card"): "683b8c4b2cc295f2",
    ("lts", "pred"): "3baefd6cfc1cab3c",
    ("lts", "reach"): "d8ec7b54e61aa81b",
}


def digests(instance, weight):
    part, old, stats, tree = (hashlib.sha256() for _ in range(4))
    for seed in SEEDS:
        r = refine_hopcroft(instance(seed), weight)
        part.update(partition_to_json(r.partition).encode())
        doc = tree_to_json(r.tree)
        old.update(old_form_tree_document(doc).encode())
        stats.update(json.dumps([getattr(r.stats, k) for k in COUNTERS]).encode())
        tree.update(doc.encode())
    return tuple(h.hexdigest()[:16] for h in (part, old, stats, tree))


@pytest.mark.parametrize("family", sorted(INSTANCES))
@pytest.mark.parametrize("weight", ("card", "pred", "reach"))
def test_outputs_match_pinned_digests(family, weight):
    *pinned, tree = digests(INSTANCES[family], weight)
    assert tuple(pinned) == PINNED[family, weight]
    assert tree == PINNED_TREE[family, weight]


@pytest.mark.parametrize("family", ("chain", "dfa"))
@pytest.mark.parametrize("weight", ("card", "pred", "reach"))
def test_dfa_text_inputs_match_pinned_digests(family, weight, tmp_path):
    def loaded(seed):
        path = tmp_path / f"{family}-{seed}.dfa"
        path.write_text(dfa_text(INSTANCES[family](seed)), encoding="utf-8")
        return load_coalgebra(str(path))

    *pinned, tree = digests(loaded, weight)
    assert tuple(pinned) == PINNED[family, weight]
    assert tree == PINNED_TREE[family, weight]


# (partition, counters, snapshots) digests of refine_naive, recorded while
# each sweep still grouped states into per-group lists
PINNED_NAIVE = {
    "chain": ("f8a96cafaed0819c", "2bee322e2b64b67c", "9b313ce7f65e4230"),
    "dfa": ("03c7a114db6457aa", "4ad14bd431100e2c", "550b2eb4435657d3"),
    "lmc": ("95657545a220b45f", "51cd19aeadad3cae", "85a4df7e352323cb"),
    "lts": ("2825abb6faf6d1da", "0d63fcacaf969ef9", "0822267f161e7bfe"),
}

# digests of refine_hopcroft's main-loop snapshots, recorded while the
# snapshots were built from sorted leaf slices
PINNED_SNAPSHOTS = {
    ("chain", "card"): "42d41b50914addf4",
    ("chain", "pred"): "d246a6c1d89e316e",
    ("chain", "reach"): "d246a6c1d89e316e",
    ("dfa", "card"): "0a244bf9456e0910",
    ("dfa", "pred"): "c28e897834540201",
    ("dfa", "reach"): "632af9212e32938c",
    ("lmc", "card"): "79db938bc3e6a6d1",
    ("lmc", "pred"): "0d7f5c94bbf36f1b",
    ("lmc", "reach"): "14b8dbc16065c22c",
    ("lts", "card"): "871e4f9112f0a142",
    ("lts", "pred"): "83d9fab25cf052ba",
    ("lts", "reach"): "716d14b0c9fb102e",
}


def snapshot_bytes(snaps):
    return json.dumps([p.blocks for p in snaps]).encode()


def naive_digests(instance):
    part, stats, snapshots = (hashlib.sha256() for _ in range(3))
    for seed in SEEDS:
        snaps = []
        r = refine_naive(instance(seed), snapshots=snaps)
        part.update(partition_to_json(r.partition).encode())
        stats.update(json.dumps([getattr(r.stats, k) for k in NAIVE_COUNTERS]).encode())
        snapshots.update(snapshot_bytes(snaps))
    return tuple(h.hexdigest()[:16] for h in (part, stats, snapshots))


@pytest.mark.parametrize("family", sorted(INSTANCES))
def test_naive_outputs_match_pinned_digests(family):
    pinned = naive_digests(INSTANCES[family])
    assert pinned == PINNED_NAIVE[family]
    # the naive sweep ends in the same partition as the worklist run
    assert pinned[0] == PINNED[family, "card"][0]


@pytest.mark.parametrize("family", sorted(INSTANCES))
@pytest.mark.parametrize("weight", ("card", "pred", "reach"))
def test_hopcroft_snapshots_match_pinned_digests(family, weight):
    h = hashlib.sha256()
    for seed in SEEDS:
        snaps = []
        refine_hopcroft(INSTANCES[family](seed), weight, snapshots=snaps)
        h.update(snapshot_bytes(snaps))
    assert h.hexdigest()[:16] == PINNED_SNAPSHOTS[family, weight]
