"""Flag f- and h-vectors of the quotient complex, and the multiplicities
they compute.

f_S counts orbit types of support S; h is the inclusion-exclusion
transform h_S = sum_{T (subset) S} (-1)^{|S-T|} f_T, which equals the
multiplicity of the trivial character in the rank-selected homology
representation.  The one-letter shape gives b_S(n); the hook shape
(n-1, 1) gives b'_S(n).

Two builders serve two kinds of call.  ``full_table``, the table over
every support S inside {1..n-2} that every question about all supports
reads, counts orbits by Burnside's lemma over cycle types
(``classes.orbit_counts``) and builds no face: f_S is the class-weighted
average of the chains of support S that each element of the Young subgroup
fixes, and that number depends only on its cycle type.  ``rsl.classes``
loads with the first whole table, so a process that builds none never
compiles it.  ``support_table``, the table over the subsets of one
support S that a question about one S reads (h_S reads only the f_T with
T inside S), is one ``kernel.sweep`` from the faces of S: they are built
bottom-up straight into a ForestStore (``core.support_root_ids``; no
ChainType is built), and the faces of each subset are the level deletions
of the faces of its canonical parent.  This is exact because every face
with support T is the restriction of some face on any superset of T, so
each subset is reached by one deletion per parent face, and memoized
deletion materializes each distinct face once.  Both end in the same
Moebius transform, and each is the other's oracle in the tests.
"""

from __future__ import annotations

from functools import lru_cache

from .core import support_root_ids
from .kernel import ForestStore, sweep
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
    "reduced_euler",
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

    def check_inversion(self) -> bool:
        """f_S = sum_{T subset S} h_T, exactly."""
        for s in self.f:
            total = sum(hv for t, hv in self.h.items() if t <= s)
            if total != self.f[s]:
                return False
        return True


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


def support_table(n: int, shape, ranks) -> FlagTable:
    """The flag table over the subsets of one support S = ``ranks``: f and
    h keyed by every T inside S, from one sweep of the faces of S.  Not
    memoized; ``full_table`` keeps the tables of every support, counted by
    ``classes.orbit_counts``."""
    shape = checked_shape(n, shape)
    dual_levels = RankSet.primal(n, ranks).as_dual().sorted()
    m = len(dual_levels)
    store = ForestStore()
    tops = support_root_ids(shape, dual_levels, store)
    f_by_mask = {mask: len(faces) for mask, faces in sweep(store, m, tops)}
    return _flag_table(n, shape, dual_levels, f_by_mask)


TABLE_CACHE_SIZE = 32
"""The most whole tables ``full_table`` keeps, the least recently used
evicted first.  A table of n has 2^(n-2) entries, whose f and h share
one frozenset key each: about 0.6 MB at n = 12, and about 51 MB at
n = 18 (held after the build, by tracemalloc)."""


@lru_cache(maxsize=TABLE_CACHE_SIZE)
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


def reduced_euler(n: int, shape, ranks) -> int:
    """Reduced Euler characteristic of the rank-selected quotient complex.

    chi~ = -1 + sum over nonempty T subset S of (-1)^(|T|-1) f_T, with the
    empty selection returning 1 by the h-vector convention.  The alternating
    sum defining h stays authoritative; the calibrated identity is
    h_S = (-1)^(|S|-1) * chi~ for nonempty S.
    """
    s = RankSet.primal(n, ranks).ranks
    if not s:
        return 1
    table = full_table(n, shape)
    acc = -1
    for t, fv in table.f.items():
        if t and t <= s:
            acc += (-1) ** (len(t) - 1) * fv
    return acc
