"""Instance generators: determinism, validity, family structure."""

import pytest

from bisimkit.coalgebra import coalgebra_to_obj
from bisimkit.engine import refine_hopcroft, refine_naive
from bisimkit.formats import dump_coalgebra
from bisimkit.gen import FAMILIES, GenSpec, SplitMix64, generate
from bisimkit.oracle import bisim_bruteforce
from bisimkit.values import DistVal, SetVal, validate_value


def test_splitmix_known_stream():
    # first outputs for seed 0 of the reference splitmix64 constants
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_generation_is_deterministic_bytes():
    for fam in FAMILIES:
        spec = GenSpec(fam, 13, alphabet_size=2, branching=2, seed=1)
        a = dump_coalgebra(generate(spec))
        b = dump_coalgebra(generate(spec))
        assert a == b
    # a different seed changes the bytes (chain ignores the seed by design)
    assert dump_coalgebra(generate(GenSpec("dfa", 13, seed=1))) != dump_coalgebra(
        generate(GenSpec("dfa", 13, seed=2))
    )


def test_all_families_validate():
    for fam in FAMILIES:
        c = generate(GenSpec(fam, 17, alphabet_size=3, branching=3, seed=9))
        for v in c.values:
            validate_value(c.functor, v, c.n_states)


def test_mc_distributions_sum_to_one():
    for seed in range(20):
        c = generate(GenSpec("mc", 11, seed=seed))
        for v in c.values:
            assert isinstance(v, DistVal)
            assert v.total() == 1


def test_distribution_denominators_bounded():
    for seed in range(10):
        for fam in ("mc", "mdp"):
            c = generate(GenSpec(fam, 9, seed=seed))
            for v in c.values:
                dists = [v] if isinstance(v, DistVal) else list(v.members)
                for d in dists:
                    for _, p in d.entries:
                        assert p.denominator <= 2**16


def test_chain_needs_full_split_cascade():
    n = 16
    c = generate(GenSpec("chain", n, alphabet_size=1))
    assert bisim_bruteforce(c).n_blocks == n
    r = refine_naive(c)
    assert r.partition.n_blocks == n
    rh = refine_hopcroft(c, "card")
    assert rh.partition.n_blocks == n
    assert rh.stats.splits == n - 1


def test_chain_single_state():
    c = generate(GenSpec("chain", 1))
    assert refine_naive(c).partition.n_blocks == 1


def test_bad_specs_rejected():
    with pytest.raises(ValueError):
        GenSpec("tape", 5)
    with pytest.raises(ValueError):
        GenSpec("dfa", 0)
    with pytest.raises(ValueError):
        GenSpec("dfa", 5, alphabet_size=0)
    with pytest.raises(ValueError):
        GenSpec("mc", 5, branching=0)


@pytest.mark.parametrize("family", ["mc", "mdp"])
def test_distribution_support_capped_at_the_denominator(family):
    # every point gets a mass of at least 1/256, so at most 256 points fit
    with pytest.raises(ValueError, match="at most 256"):
        GenSpec(family, 50, branching=257)
    for seed in range(20):
        c = generate(GenSpec(family, 300, branching=256, seed=seed))
        for v in c.values:
            validate_value(c.functor, v, c.n_states)
    GenSpec("lts", 5, branching=300)  # the cap is only on distributions


def test_mdp_values_are_sets_of_distributions():
    c = generate(GenSpec("mdp", 8, seed=2))
    assert any(isinstance(v, SetVal) and v.members for v in c.values)
    obj = coalgebra_to_obj(c)
    assert obj["functor"] == "P D X"
