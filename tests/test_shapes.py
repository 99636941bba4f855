import itertools
import sys

import pytest

from rsl import b_prime, build_bprime, flag_h, full_table, oracles
from rsl.shapes import (
    RankSet,
    Shape,
    as_shape,
    bipartitions,
    checked_shape,
    content_size,
    content_word,
    dualize,
    full_shape,
    hook_shape,
    multiset_partitions,
    unit_contents,
)


def multiset_partition_count(c: tuple, limit: int) -> int:
    """The number of partitions of content c into any number of nonempty
    parts, or ``limit`` + 1 once it passes ``limit``; nothing is enumerated,
    so it is an oracle of ``multiset_partitions``.

    Counted for growing prefixes of the letters, largest multiplicity
    first, since a letter added as a block of its own keeps partitions
    distinct, so no prefix has more.  Each prefix m is a coin-change count
    over its sub-contents as parts, in the mixed-radix index of the
    contents below m, and takes prod (m_i + 1)(m_i + 2) / 2 steps."""
    letters = sorted((x for x in c if x), reverse=True)
    count = 1
    for j in range(1, len(letters) + 1):
        m = letters[:j]
        strides = [1] * j
        for i in range(j - 2, -1, -1):
            strides[i] = strides[i + 1] * (m[i + 1] + 1)
        ways = [0] * (strides[0] * (m[0] + 1))
        ways[0] = 1
        for part in itertools.product(*[range(x + 1) for x in m]):
            at = sum(p * s for p, s in zip(part, strides))
            if not at:
                continue
            rest = [0]  # indices of the contents u with part + u inside m, ascending
            for x, p, s in zip(m, part, strides):
                rest = [r + t * s for r in rest for t in range(x - p + 1)]
            for r in rest:
                ways[at + r] += ways[r]
        count = ways[-1]
        if count > limit:
            return limit + 1
    return count


def test_shape_validation():
    assert Shape((3, 2, 1)).n == 6
    with pytest.raises(ValueError):
        Shape((2, 3))
    with pytest.raises(ValueError):
        Shape(())
    with pytest.raises(ValueError):
        Shape((2, 0))
    with pytest.raises(ValueError, match="4.7"):
        as_shape((4.7, 1.2))  # int() would have read (4, 1)
    with pytest.raises(ValueError):
        Shape(("3",))


def test_as_shape_forms():
    assert as_shape(5) == Shape((5,))
    assert as_shape([4, 1]) == Shape((4, 1))
    assert full_shape(4).is_full()
    assert hook_shape(5) == Shape((4, 1))


def test_letters():
    shape = Shape((3, 2, 1))
    assert [shape.letter_of(e) for e in range(1, 7)] == [0, 0, 0, 1, 1, 2]
    with pytest.raises(ValueError):
        shape.letter_of(7)


def test_content_helpers():
    assert content_size((2, 1)) == 3
    assert content_word((2, 1)) == (0, 0, 1)
    assert unit_contents((2, 1)) == [(1, 0), (1, 0), (0, 1)]


def test_bipartitions_unordered_complete():
    pairs = list(bipartitions((4,)))
    assert pairs == [((1,), (3,)), ((2,), (2,))]
    pairs = set(bipartitions((2, 1)))
    assert pairs == {((1, 0), (1, 1)), ((0, 1), (2, 0))}


def test_multiset_partitions_counts():
    # partitions of a 5-set size-multiset into parts
    assert len(list(multiset_partitions((5,), 2))) == 2  # 4+1, 3+2
    assert len(list(multiset_partitions((5,), 3))) == 2  # 3+1+1, 2+2+1
    parts = list(multiset_partitions((2, 2), 2))
    # distinct splits of the multiset {a,a,b,b} into two parts
    assert len(set(parts)) == len(parts) == 4


@pytest.mark.parametrize("content", [(2, 1, 1), (2, 2, 1), (1, 1, 1, 1), (3, 2), (2, 2, 2)])
def test_multiset_partitions_match_set_partition_oracle(content):
    # label the elements by letter, partition them as a set, and read each
    # block back as its content: the distinct results are the multiset
    # partitions
    letters = [i for i, x in enumerate(content) for _ in range(x)]

    def block_content(block):
        return tuple(sum(letters[e] == i for e in block) for i in range(len(content)))

    for k in range(1, content_size(content) + 1):
        expected = {
            tuple(sorted((block_content(b) for b in p), reverse=True))
            for p in oracles.set_partitions(range(len(letters)))
            if len(p) == k
        }
        got = list(multiset_partitions(content, k))
        assert all(list(p) == sorted(p, reverse=True) for p in got)
        assert got == sorted(got)  # core._coarsenings relies on the order
        assert len(set(got)) == len(got)
        assert set(got) == expected


def test_multiset_partitions_order():
    assert list(multiset_partitions((6,), 3)) == [((2,), (2,), (2,)), ((3,), (2,), (1,)), ((4,), (1,), (1,))]
    assert list(multiset_partitions((2, 2), 2)) == [
        ((1, 1), (1, 1)), ((1, 2), (1, 0)), ((2, 0), (0, 2)), ((2, 1), (0, 1))
    ]
    assert list(multiset_partitions((2, 1, 1), 3)) == [
        ((1, 0, 0), (1, 0, 0), (0, 1, 1)),
        ((1, 0, 1), (1, 0, 0), (0, 1, 0)),
        ((1, 1, 0), (1, 0, 0), (0, 0, 1)),
        ((2, 0, 0), (0, 1, 0), (0, 0, 1)),
    ]
    assert list(multiset_partitions((0, 3), 2)) == [((0, 2), (0, 1))]


def test_multiset_partitions_past_the_recursion_limit():
    n = sys.getrecursionlimit() + 100  # one stack frame per part, none on the call stack
    assert list(multiset_partitions((n,), n - 1)) == [((2,),) + ((1,),) * (n - 2)]


@pytest.mark.parametrize("content", [(1,), (6,), (3, 1), (2, 2), (2, 1, 1), (3, 2, 1), (1,) * 6, (2, 2, 2), (0, 4, 1)])
def test_multiset_partition_count_is_the_enumeration(content):
    """The coin-change count equals the partitions enumerated into every
    number of parts; under a lower limit it stops at limit + 1."""
    want = sum(1 for k in range(1, content_size(content) + 1) for _ in multiset_partitions(content, k))
    assert multiset_partition_count(content, want) == want
    assert multiset_partition_count(content, want // 2) == want // 2 + 1


def test_multiset_partition_count_known_values():
    bell = [1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570]
    assert [multiset_partition_count((1,) * k, 10**6) for k in range(1, 12)] == bell
    assert multiset_partition_count((18,), 10**6) == 385  # p(18)
    assert multiset_partition_count((1,) * 18, 385) == 386  # Bell(18) is about 6.8e11


def test_rank_set_validation_and_views():
    rs = RankSet.primal(6, {1, 4})
    assert rs.sorted() == (1, 4)
    assert sorted(rs.as_dual().ranks) == [1, 4]
    assert dualize(rs).dual
    with pytest.raises(ValueError):
        RankSet.primal(6, {5})
    with pytest.raises(ValueError):
        RankSet.primal(6, {0})
    with pytest.raises(ValueError, match="1.9"):
        flag_h(6, (6,), {1.9})  # int() would have read rank 1
    with pytest.raises(ValueError):
        flag_h(6, (6,), "34")  # the digits are not the ranks {3, 4}


@pytest.mark.parametrize(
    "call",
    [
        lambda: RankSet.primal(6.0, {2}),
        lambda: RankSet.of_dual(6.0, {3}),
        lambda: checked_shape(6.0, (6,)),
        lambda: hook_shape(6.0),
        lambda: full_shape(6.0),
        lambda: b_prime(6.0, {2}),
        lambda: flag_h(6.0, (6,), {2}),
        lambda: full_table("6", (6,)),
        lambda: build_bprime({2}, 6.0),
    ],
)
def test_float_n_is_refused_by_name(call):
    # an n that is not an integer is named, not a shape part or rank derived from it
    with pytest.raises(ValueError, match=r"^n '?6(\.0)?'? is not an integer$"):
        call()


def test_rank_set_iteration_and_str():
    rs = RankSet.of_dual(8, {2, 5})
    assert list(rs) == [2, 5]
    assert str(rs).endswith("*")
