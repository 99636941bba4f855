"""Flag f- and h-vectors of the quotient complex, and the multiplicities
they compute.

f_S counts orbit types of support S; h is the inclusion-exclusion
transform h_S = sum_{T (subset) S} (-1)^{|S-T|} f_T, which equals the
multiplicity of the trivial character in the rank-selected homology
representation.  The one-letter shape gives b_S(n); the hook shape
(n-1, 1) gives b'_S(n).

The full table is swept once per (n, shape): every facet is interned in a
ForestStore, and the faces of each support are the level deletions of the
faces of its canonical parent (``kernel.sweep_plan``).  This is exact
because every face with support S is the restriction of some face on any
superset of S, so each support is reached by one deletion per parent face,
and memoized deletion materializes each distinct face once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import enumerate_facet_orbits
from .kernel import ForestStore, sweep_plan
from .shapes import RankSet, Shape, as_shape, full_shape, hook_shape

__all__ = [
    "FlagTable",
    "flag_f",
    "flag_h",
    "b_prime",
    "full_table",
    "check_stability",
    "reduced_euler",
]


def _as_primal_ranks(n: int, ranks) -> frozenset:
    if isinstance(ranks, RankSet):
        if ranks.n != n:
            raise ValueError("rank set is for a different n")
        return frozenset(ranks.as_primal().ranks)
    rs = RankSet.primal(n, ranks)  # validates range
    return frozenset(rs.ranks)


@dataclass(frozen=True, slots=True)
class FlagTable:
    n: int
    shape: Shape
    f: dict  # frozenset of lattice ranks -> count
    h: dict

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


@lru_cache(maxsize=None)
def _table_cache(n: int, parts: tuple) -> FlagTable:
    shape = Shape(parts)
    m = n - 2
    if m < 0:
        raise ValueError("need n >= 2")
    f_by_mask = {0: 1}
    if m > 0:
        facets = enumerate_facet_orbits(n, shape)
        store = ForestStore()
        faces = {}
        for mask, parent, depth in sweep_plan(m):
            if parent is None:
                faces[mask] = {store.intern_roots(ct.roots) for ct in facets}
            else:
                faces[mask] = {store.drop_roots(r, depth) for r in faces[parent]}
        f_by_mask = {mask: len(rows) for mask, rows in faces.items()}
    # Moebius transform over subsets
    h_by_mask = {}
    for mask in f_by_mask:
        acc = 0
        sub = mask
        bits_mask = bin(mask).count("1")
        while True:
            sign = -1 if (bits_mask - bin(sub).count("1")) % 2 else 1
            acc += sign * f_by_mask[sub]
            if sub == 0:
                break
            sub = (sub - 1) & mask
        h_by_mask[mask] = acc

    def to_primal(mask) -> frozenset:
        return frozenset(n - 1 - (i + 1) for i in range(m) if mask >> i & 1)

    f = {to_primal(mask): v for mask, v in f_by_mask.items()}
    h = {to_primal(mask): v for mask, v in h_by_mask.items()}
    return FlagTable(n, shape, f, h)


def full_table(n: int, shape) -> FlagTable:
    """The complete flag table over all rank subsets."""
    shape = as_shape(shape)
    if shape.n != n:
        raise ValueError(f"shape {shape} does not sum to n={n}")
    return _table_cache(n, shape.parts)


def flag_f(n: int, shape, ranks) -> int:
    return full_table(n, shape).f[_as_primal_ranks(n, ranks)]


def flag_h(n: int, shape, ranks) -> int:
    return full_table(n, shape).h[_as_primal_ranks(n, ranks)]


def b_prime(n: int, ranks) -> int:
    """Trivial multiplicity for the S_{n-1} x S_1 action."""
    return flag_h(n, hook_shape(n), ranks)


def check_stability(ranks, n: int, m: int) -> bool:
    """Agreement of flag_h across n and m, valid only above twice the top rank."""
    s = _as_primal_ranks(min(n, m), ranks) if ranks else frozenset()
    top = max(s) if s else 0
    if not (n > 2 * top and m > 2 * top):
        raise ValueError(f"stability needs n, m > {2 * top}")
    return flag_h(n, full_shape(n), s) == flag_h(m, full_shape(m), s)


def reduced_euler(n: int, shape, ranks) -> int:
    """Reduced Euler characteristic of the rank-selected quotient complex.

    chi~ = -1 + sum over nonempty T subset S of (-1)^(|T|-1) f_T, with the
    empty selection returning 1 by the h-vector convention.  The alternating
    sum defining h stays authoritative; the calibrated identity is
    h_S = (-1)^(|S|-1) * chi~ for nonempty S.
    """
    s = _as_primal_ranks(n, ranks)
    if not s:
        return 1
    table = full_table(n, as_shape(shape))
    acc = -1
    for t, fv in table.f.items():
        if t and t <= s:
            acc += (-1) ** (len(t) - 1) * fv
    return acc
