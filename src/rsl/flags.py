"""Flag f- and h-vectors of the quotient complex, and the multiplicities
they compute.

f_S counts orbit types of support S; h is the inclusion-exclusion
transform h_S = sum_{T (subset) S} (-1)^{|S-T|} f_T, which equals the
multiplicity of the trivial character in the rank-selected homology
representation.  The one-letter shape gives b_S(n); the hook shape
(n-1, 1) gives b'_S(n).

Two builders count, and neither builds a face.  ``full_table``, over
every support S inside {1..n-2}, counts orbits by Burnside's lemma over
cycle types (``classes.orbit_counts``, loaded with the first whole
table): f_S averages, over the classes of the Young subgroup, the chains
of support S that an element fixes.  ``support_table``, over the subsets
of one S (h_S reads only the f_T with T inside S), is the pattern count
``core.support_counts``.  The two share no code but the Moebius
transform, and each is the other's oracle in the tests, with the face
sweep of ``kernel``, which serves only the partitioning, as a third.

Both builders run with the cyclic garbage collector paused
(``kernel.collector_paused``); a whole table pauses it only when it is
counted, not when ``full_table`` returns a kept one.  Their dicts and
tuples hold no reference cycles, so reference counting frees them.
"""

from __future__ import annotations

from functools import lru_cache

from .core import support_counts
from .kernel import collector_paused
from .shapes import RankSet, Record, Shape, checked_shape, full_shape, hook_shape

__all__ = [
    "FlagTable",
    "flag_f",
    "flag_h",
    "b_prime",
    "full_table",
    "support_table",
    "check_stability",
    "stability_ranks",
]


class FlagTable(Record):
    """f and h of every support, each a dict keyed by frozensets of lattice
    ranks."""

    __slots__ = ("n", "shape", "f", "h")

    def __init__(self, n: int, shape: Shape, f: dict, h: dict):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "h", h)

    def entries(self):
        """(ranks tuple, f, h) sorted by (size, ranks)."""
        keys = sorted(self.f, key=lambda s: (len(s), tuple(sorted(s))))
        return [(tuple(sorted(s)), self.f[s], self.h[s]) for s in keys]


def _flag_table(n: int, shape: Shape, dual_levels: tuple, f_by_mask: dict) -> FlagTable:
    """The FlagTable of f keyed by corank masks, bit i standing for corank
    ``dual_levels[i]``, with h from the Moebius transform."""
    h_by_mask = dict(f_by_mask)
    for bit in (1 << i for i in range(len(dual_levels))):  # one bit at a time
        for mask in h_by_mask:
            if mask & bit:
                h_by_mask[mask] -= h_by_mask[mask ^ bit]

    f, h = {}, {}
    for mask, v in f_by_mask.items():  # one key per mask, shared by f and h
        ranks = frozenset(n - 1 - d for i, d in enumerate(dual_levels) if mask >> i & 1)
        f[ranks] = v
        h[ranks] = h_by_mask[mask]
    return FlagTable(n, shape, f, h)


@collector_paused
def support_table(n: int, shape, ranks) -> FlagTable:
    """The flag table over the subsets of one support S = ``ranks``: f and
    h keyed by every T inside S, counted by ``core.support_counts``.  Not
    memoized; ``full_table`` keeps the tables of every support, counted by
    ``classes.orbit_counts``."""
    shape = checked_shape(n, shape)
    dual_levels = RankSet.primal(n, ranks).as_dual().sorted()
    return _flag_table(n, shape, dual_levels, support_counts(shape, dual_levels))


TABLE_CACHE_SIZE = 32
"""The most whole tables ``full_table`` keeps, the least recently used
evicted first.  A table of n has 2^(n-2) entries, whose f and h share
one frozenset key each: about 0.6 MB at n = 12, and about 51 MB at
n = 18 (held after the build, by tracemalloc)."""


@lru_cache(maxsize=TABLE_CACHE_SIZE)
@collector_paused  # under the cache, so a hit pauses nothing
def _table_cache(n: int, parts: tuple) -> FlagTable:
    from .classes import orbit_counts

    shape = Shape(parts)
    return _flag_table(n, shape, tuple(range(1, n - 1)), orbit_counts(shape))


def full_table(n: int, shape) -> FlagTable:
    """The complete flag table over all rank subsets, counted by Burnside's
    lemma over the cycle types of the Young subgroup
    (``classes.orbit_counts``); the last ``TABLE_CACHE_SIZE`` tables are
    kept."""
    return _table_cache(n, checked_shape(n, shape).parts)


def flag_f(n: int, shape, ranks) -> int:
    return full_table(n, shape).f[RankSet.primal(n, ranks).ranks]


def flag_h(n: int, shape, ranks) -> int:
    return full_table(n, shape).h[RankSet.primal(n, ranks).ranks]


def b_prime(n: int, ranks) -> int:
    """Trivial multiplicity for the S_{n-1} x S_1 action."""
    return flag_h(n, hook_shape(n), ranks)


def stability_ranks(ranks, n: int, m: int) -> frozenset:
    """The lattice ranks a comparison of sizes n and m reads.  Stability is
    claimed only between two sizes above twice the top rank, so ValueError
    when n == m or below that."""
    if n == m:
        raise ValueError(f"stability compares two sizes, got n = m = {n}")
    s = RankSet.primal_at_either(n, m, ranks).ranks
    top = max(s, default=0)
    if not (n > 2 * top and m > 2 * top):
        raise ValueError(f"stability needs n, m > {2 * top}")
    return s


def check_stability(ranks, n: int, m: int) -> bool:
    """Agreement of flag_h across n and m, valid only above twice the top rank."""
    s = stability_ranks(ranks, n, m)
    return flag_h(n, full_shape(n), s) == flag_h(m, full_shape(m), s)
