"""Brute-force reference implementations used only by the tests."""

from __future__ import annotations

import itertools
from functools import lru_cache


def set_partitions(elements):
    """All partitions of a list, as lists of frozensets."""
    elements = list(elements)
    if not elements:
        yield []
        return
    first, rest = elements[0], elements[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] | {first}] + part[i + 1 :]
        yield part + [frozenset([first])]


def maximal_chains(n):
    """All saturated chains of proper partitions of {1..n}, coarsest first."""

    def splits(block):
        block = sorted(block)
        first, rest = block[0], block[1:]
        for r in range(len(rest) + 1):
            for combo in itertools.combinations(rest, r):
                left = frozenset([first, *combo])
                right = frozenset(b for b in block if b not in left)
                if right:
                    yield left, right

    chains = []

    def rec(partition, chain):
        if all(len(b) == 1 for b in partition):
            chains.append(list(chain))
            return
        for i, b in enumerate(partition):
            if len(b) < 2:
                continue
            for left, right in splits(b):
                nxt = partition[:i] + [left, right] + partition[i + 1 :]
                if 2 <= len(nxt) <= n - 1:
                    chain.append(nxt)
                rec(nxt, chain)
                if 2 <= len(nxt) <= n - 1:
                    chain.pop()

    rec([frozenset(range(1, n + 1))], [])
    return chains


def chains_with_support(n, ranks):
    """All chains of set partitions with the given lattice ranks, finest first."""
    ranks = sorted(ranks)
    if not ranks:
        return [[]]
    by_rank = {}
    for part in set_partitions(range(1, n + 1)):
        r = n - len(part)
        if r in ranks:
            by_rank.setdefault(r, []).append([frozenset(b) for b in part])

    def refines(fine, coarse):
        return all(any(b <= big for big in coarse) for b in fine)

    out = [[p] for p in by_rank.get(ranks[0], [])]
    for r in ranks[1:]:
        nxt = []
        for chain in out:
            for p in by_rank.get(r, []):
                if refines(chain[-1], p):
                    nxt.append(chain + [p])
        out = nxt
    return out


def young_subgroup(shape):
    """All permutations of {1..n} preserving the letter classes, as dicts."""
    blocks = []
    start = 1
    for p in shape.parts:
        blocks.append(list(range(start, start + p)))
        start += p
    perms = []
    for combo in itertools.product(*[itertools.permutations(b) for b in blocks]):
        mapping = {}
        for orig, img in zip(blocks, combo):
            mapping.update(dict(zip(orig, img)))
        perms.append(mapping)
    return perms


def chains_equivalent(chain_a, chain_b, shape):
    """Exhaustive search for a Young-subgroup element mapping one chain of
    set partitions to the other (both finest first)."""
    if [len(p) for p in chain_a] != [len(p) for p in chain_b]:
        return False
    targets = [set(map(frozenset, p)) for p in chain_b]
    for mapping in young_subgroup(shape):
        if all(
            {frozenset(mapping[e] for e in b) for b in p} == t
            for p, t in zip(chain_a, targets)
        ):
            return True
    return False


@lru_cache(maxsize=None)
def stirling2(n, k):
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def classical_flag_f(n, ranks):
    """Number of chains of the full partition lattice with the given ranks:
    a Stirling product, counting bottom-up coarsenings."""
    blocks = [n - r for r in sorted(ranks)]
    out, prev = 1, n
    for b in blocks:
        out *= stirling2(prev, b)
        prev = b
    return out


def euler_number(k):
    """Up/down (Euler zigzag) number E_k, OEIS A000111, by the Seidel triangle."""
    row = [1]
    for _ in range(k):
        nxt = [0]
        for x in reversed(row):
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]
