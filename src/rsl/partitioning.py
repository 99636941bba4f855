"""Lexicographic ordering of facets and the interval partitioning check.

Facets are sorted by their label sequences.  Sweeping them in order, the
faces of each facet that belong to no earlier facet must form a boolean
interval [G_i, F_i]; G_i is read off the codimension-one faces.  The sweep
never trusts descent sets: the minimal face is always computed from actual
membership, and the descent characterization is a statement to verify
afterwards.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .bars import InsertionFacet, enumerate_insertion_facets
from .core import restrict
from .flags import full_table
from .kernel import ForestStore, sweep_plan
from .orders import BlockOrder, default_order, verify_lengthening
from .shapes import RankSet, Shape, as_shape

__all__ = [
    "PartitionScheme",
    "PartitionFailure",
    "order_facets",
    "minimal_new_faces",
    "verify_partitioning",
]


class LengtheningError(ValueError):
    """The block order fails the lengthening condition at this (n, shape)."""


class LabelTieError(RuntimeError):
    """Two distinct facets share a label sequence."""


@dataclass(frozen=True, slots=True)
class PartitionFailure:
    facet_index: int
    reason: str
    detail: str


@dataclass(slots=True)
class PartitionScheme:
    n: int
    shape: Shape
    order: BlockOrder
    facets: tuple  # InsertionFacet, lex order
    minimal_faces: Optional[tuple] = None  # ChainType per facet
    min_dual_supports: Optional[tuple] = None  # frozenset per facet
    new_face_counts: Optional[tuple] = None
    status: str = "ordered"  # ordered | partitioned | verified | failed
    failures: tuple = ()
    h_via_partitioning: Optional[dict] = None  # frozenset of coranks -> count
    total_faces: Optional[int] = None

    def interval_size_sum(self) -> int:
        if self.new_face_counts is None:
            raise RuntimeError("run minimal_new_faces first")
        return sum(self.new_face_counts)


def order_facets(n: int, shape, order: Optional[BlockOrder] = None) -> PartitionScheme:
    """Facets sorted by componentwise-lex label comparison.

    Refuses orders that fail the lengthening condition, since the exchange
    argument behind the partitioning needs it.
    """
    shape = as_shape(shape)
    if order is None:
        order = default_order(shape)
    if not verify_lengthening(order, n, shape):
        raise LengtheningError(
            f"order {order} fails the lengthening condition for n={n}, shape={shape}"
        )
    facets = enumerate_insertion_facets(n, shape, order)
    keyed = sorted(facets, key=InsertionFacet.sort_key)
    for a, b in zip(keyed, keyed[1:]):
        if a.sort_key() == b.sort_key():
            raise LabelTieError(
                f"facets {a.positions} and {b.positions} share a label sequence"
            )
    return PartitionScheme(n=n, shape=shape, order=order, facets=tuple(keyed))


def minimal_new_faces(scheme: PartitionScheme) -> tuple:
    """Per-facet minimal new faces G_i, computed from the facet order.

    For each facet, a corank belongs to supp(G) exactly when the
    codimension-one face omitting it already occurred; the faces new to the
    facet must then be precisely the supersets of supp(G).  Violations are
    recorded as failure witnesses, not patched.
    """
    n, m = scheme.n, scheme.n - 2
    store = ForestStore()
    plan = sweep_plan(m)
    full = (1 << m) - 1
    seen = {}
    minimal_faces = []
    min_supports = []
    new_counts = []
    failures = []
    for j, facet in enumerate(scheme.facets):
        chain = facet.chain_type()
        ids = {full: store.intern_roots(chain.roots)}
        for mask, parent, depth in plan:
            if parent is not None:
                ids[mask] = store.drop_roots(ids[parent], depth)
        new_masks = [mask for mask in ids if (mask, ids[mask]) not in seen]
        d_mask = 0
        for i in range(m):
            codim = full & ~(1 << i)
            if (codim, ids[codim]) in seen:
                d_mask |= 1 << i
        supersets = 1 << (m - bin(d_mask).count("1"))
        new_set = set(new_masks)
        ok = len(new_set) == supersets and all(
            (mask & d_mask) == d_mask for mask in new_set
        )
        if not ok:
            bad = sorted(
                mask for mask in new_set if (mask & d_mask) != d_mask
            )
            failures.append(
                PartitionFailure(
                    facet_index=j,
                    reason="non-unique-minimal",
                    detail=(
                        f"facet {facet.positions}: {len(new_set)} new faces, "
                        f"expected {supersets} over corank set "
                        f"{sorted(i + 1 for i in range(m) if d_mask >> i & 1)}; "
                        f"offending masks {bad[:4]}"
                    ),
                )
            )
        for mask in new_masks:
            seen[(mask, ids[mask])] = j
        dual_support = frozenset(i + 1 for i in range(m) if d_mask >> i & 1)
        min_supports.append(dual_support)
        minimal_faces.append(restrict(chain, RankSet.of_dual(n, dual_support)))
        new_counts.append(len(new_set))
    scheme.minimal_faces = tuple(minimal_faces)
    scheme.min_dual_supports = tuple(min_supports)
    scheme.new_face_counts = tuple(new_counts)
    scheme.total_faces = len(seen)
    scheme.failures = tuple(failures)
    scheme.status = "failed" if failures else "partitioned"
    return scheme.minimal_faces


def verify_partitioning(scheme_or_n, shape=None, order: Optional[BlockOrder] = None) -> PartitionScheme:
    """Disjointness and coverage of the intervals over all face orbits.

    Accepts a prepared scheme, or (n, shape[, order]) to run the whole
    pipeline.  On success fills ``h_via_partitioning``: corank support of
    G_i -> number of intervals.
    """
    if isinstance(scheme_or_n, PartitionScheme):
        scheme = scheme_or_n
    else:
        scheme = order_facets(scheme_or_n, shape, order)
    if scheme.minimal_faces is None:
        minimal_new_faces(scheme)
    if scheme.status == "failed":
        return scheme

    # Coverage against the independent face count: intervals are disjoint by
    # construction (each face keyed by first owner), so matching totals per
    # support means every orbit is covered exactly once.
    table = full_table(scheme.n, scheme.shape)
    expected_total = sum(table.f.values())
    failures = []
    if scheme.interval_size_sum() != expected_total:
        failures.append(
            PartitionFailure(
                facet_index=-1,
                reason="coverage",
                detail=(
                    f"sum of interval sizes {scheme.interval_size_sum()} != "
                    f"total face orbits {expected_total}"
                ),
            )
        )
    if scheme.total_faces != expected_total:
        failures.append(
            PartitionFailure(
                facet_index=-1,
                reason="coverage",
                detail=f"{scheme.total_faces} distinct faces swept, expected {expected_total}",
            )
        )
    scheme.failures = scheme.failures + tuple(failures)
    if failures:
        scheme.status = "failed"
        return scheme
    scheme.h_via_partitioning = dict(Counter(scheme.min_dual_supports))
    scheme.status = "verified"
    return scheme
