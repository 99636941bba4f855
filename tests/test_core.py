import random

import pytest

from rsl import (
    ChainType,
    MalformedChainError,
    RankSet,
    Shape,
    block_orbits,
    canonicalize,
    dualize,
    enumerate_facet_orbits,
    faces_with_support,
    full_shape,
    restrict,
)
from rsl.core import empty_chain, _faces_direct

import oracles


def test_canonicalize_relabeling_symmetry():
    a = canonicalize([[{1, 2}, {3}, {4}], [{1, 2}, {3, 4}]], full_shape(4))
    b = canonicalize([[{1, 3}, {2}, {4}], [{1, 3}, {2, 4}]], full_shape(4))
    assert a == b


def test_canonicalize_distinct_types():
    a = canonicalize([[{1, 2}, {3}, {4}], [{1, 2}, {3, 4}]], full_shape(4))
    b = canonicalize([[{1, 2}, {3}, {4}], [{1, 2, 3}, {4}]], full_shape(4))
    assert a != b


def test_canonicalize_idempotent_via_realize():
    random.seed(5)
    for n in range(3, 7):
        for facet in enumerate_facet_orbits(n, full_shape(n))[:6]:
            again = canonicalize(facet.realize(), full_shape(n))
            assert again == facet


def test_canonicalize_rejects_malformed():
    with pytest.raises(MalformedChainError):
        canonicalize([[{1, 2}, {3, 4}], [{1, 3}, {2, 4}]], full_shape(4))
    with pytest.raises(MalformedChainError):
        canonicalize([[{1, 2}, {3}]], full_shape(4))  # not a cover of 1..4
    with pytest.raises(MalformedChainError):
        canonicalize([[{1}, {2}, {3}, {4}]], full_shape(4))  # 0-hat is not proper


def test_small_facet_counts():
    assert len(enumerate_facet_orbits(3, full_shape(3))) == 1
    assert len(enumerate_facet_orbits(4, full_shape(4))) == 2
    assert len(enumerate_facet_orbits(5, full_shape(5))) == 5
    for n in range(3, 10):
        assert len(enumerate_facet_orbits(n, full_shape(n))) == oracles.euler_number(n - 1)
    for n in range(3, 9):
        assert len(enumerate_facet_orbits(n, Shape((n - 1, 1)))) == oracles.euler_number(n)


def test_facet_orbits_against_brute_force():
    for n in range(3, 7):
        expected = set()
        for chain in oracles.maximal_chains(n):
            expected.add(canonicalize(list(reversed(chain)), full_shape(n)))
        assert set(enumerate_facet_orbits(n, full_shape(n))) == expected


def test_enumeration_deterministic_order():
    a = enumerate_facet_orbits(6, full_shape(6))
    b = tuple(sorted(a, key=lambda c: (c.dual_levels, c.roots)))
    assert a == b


def test_restrict_full_and_empty():
    facet = enumerate_facet_orbits(5, full_shape(5))[0]
    assert restrict(facet, RankSet.primal(5, facet.support)) == facet
    assert restrict(facet, RankSet.primal(5, ())) == empty_chain(full_shape(5))


def test_restrict_drops_corank_one():
    # the facet through (2,2): dropping corank 1 leaves the three-block type
    facet = next(
        f
        for f in enumerate_facet_orbits(4, full_shape(4))
        if (2,) in [node[0] for node in f.roots] and len(f.roots) == 2
    )
    face = restrict(facet, RankSet.of_dual(4, {2}))
    assert face.support == (1,)
    assert [node[0] for node in face.roots] == [(1,), (1,), (2,)]


def test_restrict_requires_subset():
    facet = enumerate_facet_orbits(5, full_shape(5))[0]
    small = restrict(facet, RankSet.primal(5, {2}))
    with pytest.raises(ValueError):
        restrict(small, RankSet.primal(5, {1}))


def test_faces_with_support_examples():
    assert len(faces_with_support(4, full_shape(4), {1})) == 1
    assert len(faces_with_support(4, full_shape(4), {2})) == 2
    assert faces_with_support(6, full_shape(6), ()) == frozenset(
        [empty_chain(full_shape(6))]
    )


def test_faces_both_routes_agree_small():
    for n in range(3, 7):
        for ranks in _all_subsets(n):
            faces_with_support(n, full_shape(n), ranks, cross_check=True)


def _all_subsets(n):
    import itertools

    out = []
    for size in range(0, n - 1):
        out.extend(itertools.combinations(range(1, n - 1), size))
    return out


def test_faces_against_chain_oracle():
    # counts must equal orbit counts of explicit chains under the group
    for n in (4, 5):
        for ranks in _all_subsets(n):
            chains = oracles.chains_with_support(n, ranks)
            types = {canonicalize(c, full_shape(n)) for c in chains} if ranks else {
                empty_chain(full_shape(n))
            }
            assert faces_with_support(n, full_shape(n), ranks) == frozenset(types)


def test_direct_route_counts_unquotiented():
    # with all letters distinct the orbits are the chains themselves
    shape = Shape((1, 1, 1, 1))
    for ranks in _all_subsets(4):
        direct = _faces_direct(4, shape, tuple(sorted(3 - r for r in ranks)))
        assert len(direct) == len(oracles.chains_with_support(4, ranks)) or not ranks


def test_block_orbits_examples():
    one = canonicalize([[{1, 2}, {3, 4}, {5}]], full_shape(5))
    orbits = block_orbits(one, 2)
    contents = [node[0] for node in one.roots]
    nontrivial = [o for o in orbits if contents[o[0]] == (2,)]
    assert len(nontrivial) == 1 and len(nontrivial[0]) == 2

    two = canonicalize([[{1, 2}, {3, 4}, {5}, {6}], [{1, 2}, {3, 4, 5, 6}]], full_shape(6))
    orbits = block_orbits(two, 2)
    level = two.level_nodes(1)
    pair_orbits = [o for o in orbits if level[o[0]][0] == (2,)]
    assert len(pair_orbits) == 2  # parents of different sizes split the pair blocks

    three = canonicalize([[{1, 2, 3}, {4}, {5}]], full_shape(5))
    orbits = block_orbits(three, 2)
    contents = [node[0] for node in three.roots]
    assert sum(1 for o in orbits if contents[o[0]] == (3,)) == 1


def test_dualize_involution_and_example():
    s = RankSet.primal(10, {1, 2, 7})
    assert sorted(dualize(s).ranks) == [2, 7, 8]
    assert dualize(dualize(s)) == s
    t = RankSet.of_dual(8, {1, 4, 5})
    assert sorted(dualize(t).ranks) == [2, 3, 6]


def test_serialization_round_trip():
    for n in range(3, 7):
        shape = full_shape(n)
        for facet in enumerate_facet_orbits(n, shape):
            text = facet.serialize()
            assert ChainType.deserialize(text, shape) == facet
            small = restrict(facet, RankSet.primal(n, facet.support[:1]))
            assert ChainType.deserialize(small.serialize(), shape) == small


def test_serialization_bit_exact_equality():
    seen = {}
    for facet in enumerate_facet_orbits(6, full_shape(6)):
        text = facet.serialize()
        assert text not in seen
        seen[text] = facet


def test_hook_shape_serialization_round_trip():
    shape = Shape((4, 1))
    for facet in enumerate_facet_orbits(5, shape)[:10]:
        assert ChainType.deserialize(facet.serialize(), shape) == facet


def test_random_relabeling_invariance():
    rng = random.Random(99)
    shape = Shape((3, 2, 1))
    chains = oracles.chains_with_support(6, (2, 4))
    for chain in rng.sample(chains, 40):
        mapping = rng.choice(oracles.young_subgroup(shape))
        image = [[frozenset(mapping[e] for e in b) for b in p] for p in chain]
        assert canonicalize(chain, shape) == canonicalize(image, shape)


def test_canonical_equality_matches_permutation_search():
    rng = random.Random(7)
    shape = Shape((3, 2))
    chains = oracles.chains_with_support(5, (1, 3))
    for _ in range(150):
        a, b = rng.choice(chains), rng.choice(chains)
        assert (canonicalize(a, shape) == canonicalize(b, shape)) == oracles.chains_equivalent(
            a, b, shape
        )


def test_content_conservation_and_rank_widths():
    for facet in enumerate_facet_orbits(6, full_shape(6)):
        for depth, d in enumerate(facet.dual_levels):
            nodes = facet.level_nodes(depth)
            assert len(nodes) == d + 1
            for content, children in nodes:
                if children:
                    total = [0]
                    for ch in children:
                        total[0] += ch[0][0]
                    assert (total[0],) == content


def test_restriction_composes():
    import itertools

    for n in (5, 6):
        for facet in enumerate_facet_orbits(n, full_shape(n))[:8]:
            support = facet.support
            for s1 in itertools.combinations(support, 3):
                big = restrict(facet, RankSet.primal(n, s1))
                for s2 in itertools.combinations(s1, 2):
                    assert restrict(big, RankSet.primal(n, s2)) == restrict(
                        facet, RankSet.primal(n, s2)
                    )


def test_deserialize_rejects_malformed():
    shape = full_shape(4)
    with pytest.raises(MalformedChainError):
        ChainType.deserialize("2@2(1@1", shape)  # unbalanced
    with pytest.raises(MalformedChainError):
        ChainType.deserialize("22@2", shape)  # wrong letter count
    with pytest.raises(MalformedChainError):
        ChainType.deserialize("2@2(1@1,2@1)", shape)  # children exceed parent
