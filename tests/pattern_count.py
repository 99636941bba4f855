"""The pattern count of whole flag tables, kept as the tier-1 oracle of
``rsl.classes``, with which it shares no code.

Above the ground set a block is the multiset of its children, so what lies
above a level depends only on its pattern, the multiplicities of its
distinct blocks.  Grouping a level into c + 1 blocks is one multiset
partition of its pattern into c + 1 parts, and the coarser level's pattern
is the multiplicities of that partition's equal parts (the multiset
transform of Harary and Palmer, *Graphical Enumeration*, 1973, taken level
by level).  It enumerates those partitions, so a table of many letters
costs far more than one of (n): on a 2-vCPU host with Python 3.11,
(1^11) took about 9 s and (6,6,3) about 30 s.
"""

from rsl.shapes import multiset_partitions


def _run_lengths(items: tuple) -> tuple:
    """The lengths of the runs of equal entries of a sorted tuple."""
    counts = []
    prev = None
    for item in items:
        if item == prev:
            counts[-1] += 1
        else:
            counts.append(1)
            prev = item
    return tuple(counts)


def _coarser_counts(pattern: tuple, memo: dict) -> list:
    """Counts of the chains that coarsen a level of ``pattern``, as a list
    indexed by the mask of their coranks, bit c - 1 for corank c < e, where
    the level has e + 1 blocks: entry 0 is the empty chain, and entries
    2^(c-1) to 2^c - 1 are the chains whose finest level has corank c.
    Each pattern is counted once per ``memo``.  AssertionError if a
    partition repeats."""
    got = memo.get(pattern)
    if got is not None:
        return got
    got = [1]
    for c in range(1, sum(pattern) - 1):
        coarser = {}  # pattern -> number of partitions with it
        parts_list = list(multiset_partitions(pattern, c + 1))
        if len(set(parts_list)) != len(parts_list):
            raise AssertionError("pattern count met a duplicate partition")
        for parts in parts_list:
            key = tuple(sorted(_run_lengths(parts), reverse=True))
            coarser[key] = coarser.get(key, 0) + 1
        level = [0] * (1 << (c - 1))
        for key, k in coarser.items():
            level = [x + k * y for x, y in zip(level, _coarser_counts(key, memo))]
        got += level
    memo[pattern] = got
    return got


def support_counts(shape) -> dict:
    """f of every support, as {corank mask: number of orbit types}, bit
    d - 1 standing for corank d.  The finest partition has one block per
    element, and two blocks are equal when their letters are, so its
    pattern is the shape's parts."""
    return dict(enumerate(_coarser_counts(shape.root_content, {})))
