"""Lexicographic ordering of facets and the interval partitioning check.

Facets are sorted by their label sequences, as keys that the facet walk
computes once per edge (``bars.enumerate_insertion_facets``); two facets
with one key sequence raise ``LabelTieError``.  In that order, the faces
of each facet that belong to no earlier facet must form a boolean
interval [G_i, F_i]; the corank support of G_i is read off the
codimension-one faces.  Each face is new to the first facet containing
it, its owner, so one ``kernel.sweep`` from the ordered facets reads off
every interval.  The sweep never trusts descent sets: the minimal
support is always computed from actual membership, and the descent
characterization is a statement to verify afterwards.  The checks read
only the supports; G_i itself, facet i restricted to its support, is
built on the first read of ``PartitionScheme.minimal_faces``, by level
deletion in one store shared by every facet.  Coverage is orbit identity
with the facet orbits of ``core.support_root_ids``.  The facet walk
(``bars``) is imported inside the functions that use it, so ``import
rsl`` does not load it.

``order_facets``, ``minimal_new_faces``, ``verify_partitioning`` and the
build of ``minimal_faces`` run with the cyclic garbage collector paused
(``kernel.collector_paused``): the facets, label keys and face dicts they
allocate hold no reference cycles, so reference counting frees them, and
a paused collector does not walk them over and over.  ``rsl
partition-verify --n 11`` took 5.0 to 5.7 s with it paused, against 5.8
to 6.5 s with it running (3 fresh processes each, 2-vCPU host).
"""

from __future__ import annotations

from collections import Counter
from operator import attrgetter

from .core import ChainType, support_root_ids
from .kernel import ForestStore, collector_paused, sweep
from .orders import BlockOrder, default_order, verify_lengthening
from .shapes import Record, Shape, as_shape

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


class PartitionFailure(Record):
    __slots__ = ("facet_index", "reason", "detail")

    def __init__(self, facet_index: int, reason: str, detail: str):
        object.__setattr__(self, "facet_index", facet_index)
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "detail", detail)


class PartitionScheme:
    """The ordered facets of (n, shape) and what the checks found; the
    checks fill in the fields after the facets."""

    __slots__ = (
        "n", "shape", "order", "facets", "_minimal_faces", "min_dual_supports", "new_face_counts",
        "status", "failures", "h_via_partitioning", "face_counts", "total_faces",
    )

    def __init__(self, n: int, shape: Shape, order: BlockOrder, facets: tuple):
        self.n = n
        self.shape = shape
        self.order = order
        self.facets = facets  # InsertionFacet, lex order
        self._minimal_faces = None  # built on first read of minimal_faces
        self.min_dual_supports: tuple | None = None  # corank set of G_i per facet, from the owner sweep
        self.new_face_counts: tuple | None = None  # faces each facet owns
        self.status = "ordered"  # ordered | partitioned | verified | failed
        self.failures = ()
        self.h_via_partitioning: dict | None = None  # frozenset of coranks -> count
        self.face_counts: dict | None = None  # frozenset of lattice ranks -> distinct faces
        self.total_faces: int | None = None

    @property
    def minimal_faces(self) -> tuple | None:
        """G_i per facet as a ChainType: facet i restricted to its minimal
        support.  None until the owner sweep has found the supports; built
        on first read, since the checks read only the supports.

        The facets are interned once into one shared store
        (``bars.facet_root_ids``), and each facet's missing coranks are
        deleted there, finest first, by ``ForestStore.drop_roots``, whose
        memo serves every facet.  A facet's own ``chain_type`` is read from
        the same store unless it was built before."""
        if self._minimal_faces is None and self.min_dual_supports is not None:
            self._minimal_faces = self._build_minimal_faces()
        return self._minimal_faces

    @collector_paused
    def _build_minimal_faces(self) -> tuple:
        from .bars import facet_root_ids

        store = ForestStore()
        m = self.n - 2
        levels = tuple(range(1, m + 1))
        faces = []
        for facet, ids, dual in zip(
            self.facets, facet_root_ids(store, self.facets), self.min_dual_supports
        ):
            if facet._chain is None:
                facet._chain = ChainType(self.shape, levels, store.nested_roots(ids))
            top = m - 1  # the roots' height; corank c sits at height m - c
            for c in reversed(levels):
                if c not in dual:  # the finer missing levels are gone, one per drop
                    ids = store.drop_roots(ids, top - (c - 1), top)
                    top -= 1
            faces.append(ChainType(self.shape, tuple(sorted(dual)), store.nested_roots(ids)))
        return tuple(faces)

    def interval_size_sum(self) -> int:
        if self.new_face_counts is None:
            raise RuntimeError("run minimal_new_faces first")
        return sum(self.new_face_counts)


_walk_key = attrgetter("_walk_key")


@collector_paused
def order_facets(n: int, shape, order: BlockOrder | None = None) -> PartitionScheme:
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
    from .bars import enumerate_insertion_facets  # the walk loads on first use

    facets = sorted(enumerate_insertion_facets(n, shape, order), key=_walk_key)
    for a, b in zip(facets, facets[1:]):
        if a._walk_key == b._walk_key:
            raise LabelTieError(
                f"facets {a.positions} and {b.positions} share a label sequence"
            )
    for facet in facets:
        facet._walk_key = None  # read once; the sweep that follows does not hold them
    return PartitionScheme(n=n, shape=shape, order=order, facets=tuple(facets))


@collector_paused
def minimal_new_faces(scheme: PartitionScheme) -> tuple:
    """Per-facet minimal new faces G_i, computed from the facet order.

    One ``kernel.sweep`` from the ordered facets, so each face's owner is
    the least facet containing it.  Corank c belongs to supp(G_i) exactly
    when facet i owns no face on the support that omits c alone: its
    codimension-one face there has an earlier owner.  The faces facet i owns
    must then be precisely the supersets of supp(G_i).  Violations are
    recorded as failure witnesses, not patched.  Also fills
    ``face_counts``, the distinct faces of each support.  Returns
    ``scheme.minimal_faces``, the G_i restricted from the facets.
    """
    _owner_sweep(scheme, ForestStore())
    return scheme.minimal_faces


def _owner_sweep(scheme: PartitionScheme, store: ForestStore) -> list:
    """The work of ``minimal_new_faces``, in ``store``; returns the facets'
    root ids there."""
    from .bars import facet_root_ids

    m = scheme.n - 2
    full = (1 << m) - 1
    tops = facet_root_ids(store, scheme.facets)
    owned = [[] for _ in tops]  # masks of the faces each facet owns
    face_counts = {}
    for mask, faces in sweep(store, m, tops):
        for owner in faces.values():
            owned[owner].append(mask)
        face_counts[frozenset(m - i for i in range(m) if mask >> i & 1)] = len(faces)
    min_supports = []
    failures = []
    for j, (facet, masks) in enumerate(zip(scheme.facets, owned)):
        d_mask = sum(1 << c for c in range(m) if full ^ (1 << c) not in masks)
        levels = [i + 1 for i in range(m) if d_mask >> i & 1]
        supersets = 1 << (m - len(levels))
        bad = sorted(mask for mask in masks if (mask & d_mask) != d_mask)
        if len(masks) != supersets or bad:
            failures.append(
                PartitionFailure(
                    facet_index=j,
                    reason="non-unique-minimal",
                    detail=(
                        f"facet {facet.positions}: {len(masks)} new faces, "
                        f"expected {supersets} over corank set {levels}; "
                        f"offending masks {bad[:4]}"
                    ),
                )
            )
        min_supports.append(frozenset(levels))
    scheme.min_dual_supports = tuple(min_supports)
    scheme.new_face_counts = tuple(map(len, owned))
    scheme.face_counts = face_counts
    scheme.total_faces = sum(face_counts.values())
    scheme.failures = tuple(failures)
    scheme.status = "failed" if failures else "partitioned"
    return tops


@collector_paused
def verify_partitioning(n: int, shape, order: BlockOrder | None = None) -> PartitionScheme:
    """Disjointness and coverage of the intervals over all face orbits: the
    whole pipeline from ``order_facets``.  On success fills
    ``h_via_partitioning``: corank support of G_i -> number of intervals.

    Each face swept has one owner, so the intervals are disjoint.  Coverage
    is orbit identity: the facet orbits that ``core.support_root_ids``
    builds without the walk, interned in the sweep's store, must be the
    facets' root ids, each once.  A sweep is a function of its top faces,
    so every support's face count then equals the flag table's f, with no
    second sweep; a walk that repeats one orbit and misses another matches
    every count but fails here.
    """
    scheme = order_facets(n, shape, order)
    store = ForestStore()
    tops = _owner_sweep(scheme, store)
    if scheme.status == "failed":
        return scheme
    built = sorted(support_root_ids(scheme.shape, tuple(range(1, n - 1)), store))
    if built != sorted(tops):
        want, have = Counter(built), Counter(tops)
        detail = f"facet orbits: {(want - have).total()} missing, {(have - want).total()} extra"
        scheme.failures = (PartitionFailure(-1, "coverage", detail),)
        scheme.status = "failed"
        return scheme
    scheme.h_via_partitioning = dict(Counter(scheme.min_dual_supports))
    scheme.status = "verified"
    return scheme
