"""The forest store against the direct nested-tuple restriction, and the
structure of the sweep plan and of the sweep that walks it."""

import ast
import gc
import glob
import os
import random
import tracemalloc
from itertools import combinations

import pytest

from rsl import RankSet, enumerate_facet_orbits, full_shape, kernel, restrict
from rsl.core import ChainType, _drop_depth, support_root_ids
from rsl.kernel import IMPL, ForestStore, sweep, sweep_plan
from rsl.shapes import Shape


def test_intern_extract_round_trip():
    store = ForestStore()
    for n in (4, 5, 6):
        for facet in enumerate_facet_orbits(n, full_shape(n)):
            rid = store.intern_roots(facet.roots)
            assert store.nested_roots(rid) == facet.roots


def test_drop_matches_direct_restriction():
    store = ForestStore()
    rng = random.Random(31)
    for n in (5, 6, 7):
        facets = enumerate_facet_orbits(n, full_shape(n))
        for facet in rng.sample(facets, min(10, len(facets))):
            rid = store.intern_roots(facet.roots)
            levels = list(facet.dual_levels)
            top = len(levels) - 1
            for depth, d in enumerate(levels):
                keep = [x for x in levels if x != d]
                direct = restrict(facet, RankSet.of_dual(n, keep))
                got = store.drop_roots(rid, top - depth, top)
                assert store.nested_roots(got) == direct.roots


def _height(store, nid):
    """Levels below a node: the length of any path down to a leaf."""
    h = 0
    children = store.nested(nid)[1]
    while children:
        children = children[0][1]
        h += 1
    return h


class _CountingStore(ForestStore):
    __slots__ = ("node_calls", "drop_node_calls")

    def __init__(self):
        super().__init__()
        self.node_calls = 0
        self.drop_node_calls = 0

    def node(self, cid, child_ids):
        self.node_calls += 1
        return super().node(cid, child_ids)

    def drop_node(self, nid, height, own):
        self.drop_node_calls += 1
        return super().drop_node(nid, height, own)


def test_drop_memo_reused_across_forests():
    """One store serves every mask of a table and every facet of a
    partitioning sweep, so a second use of the per-height memo must answer
    exactly as the first, and from the memo alone.  A hit is answered at
    the lookup: ``drop_node`` runs once per memo entry it creates, and the
    second sweep makes no call, also for hits that return node id 0, and
    also in the two-root step of ``drop_roots``."""
    n = 7
    store = _CountingStore()
    facets = support_root_ids(full_shape(n), tuple(range(1, n - 1)), store)
    forests = [(rid, n - 3) for rid in facets]
    # every interned subtree as a one-root forest too: some drop to node 0
    by_height = {}
    for nid in range(store.size()):
        by_height.setdefault(_height(store, nid), []).append(nid)
    forests += [((nid,), h) for h, nids in by_height.items() for nid in nids]
    # and every pair of subtrees of one height, so that two-root forests
    # have roots that drop to node 0, first or second
    forests += [((a, b), h) for h, nids in by_height.items() for a in nids for b in nids if a <= b]
    expected = {
        (rid, height, top): _drop_depth(store.nested_roots(rid), top - height)
        for rid, top in forests
        for height in range(top + 1)
    }
    for sweep in range(2):
        store.node_calls = store.drop_node_calls = 0
        results = {key: store.drop_roots(*key) for key in expected}
        for key, got in results.items():
            assert store.nested_roots(got) == expected[key], (sweep, key)
        if sweep:
            assert store.node_calls == 0  # every drop of the second sweep is a memo hit
            assert store.drop_node_calls == 0
        else:  # each call is a miss: it adds exactly one memo entry
            assert store.drop_node_calls == sum(map(len, store._drop_memo.values()))
    assert any(0 in got for (_, height, top), got in results.items() if height < top)
    assert any(
        0 in got for (rid, height, top), got in results.items() if len(rid) == 2 and height < top
    )


@pytest.mark.parametrize("shape", [full_shape(10), Shape((4, 4))])
def test_support_builder_interns_each_node_once(shape):
    """The builder memoizes nodes by their children (leaves by content),
    so on a fresh store it calls ``node`` once per node it creates."""
    store = _CountingStore()
    tops = support_root_ids(shape, tuple(range(1, shape.n - 1)), store)
    assert len(tops) == len(set(tops)) > 1
    assert store.node_calls == store.size()


def test_store_bytes_per_node():
    """Each node is one flat tuple (content id, *child ids), which is also
    its key in the node index, so the store holds one tuple per node.  The
    bytes freed with the store after the sweep of (9), over its node count,
    read 166 on Python 3.11; a (content id, child ids) pair holding a second
    tuple reads 214.  The bound sits between the two."""
    n = 9
    levels = tuple(range(1, n - 1))
    gc.collect()  # empties the free lists, so every tuple below is traced
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        store = ForestStore()
        tops = support_root_ids(full_shape(n), levels, store)
        for _ in sweep(store, len(levels), tops):
            pass
        del tops
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        size = store.size()
        del store
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert size == 8_703
    assert freed / size < 190, freed / size


def test_interning_shares_ids():
    store = ForestStore()
    x = store.intern_nested(((3,), (((1,), ()), ((2,), ()))))
    y = store.intern_nested(((3,), (((2,), ()), ((1,), ()))))  # child order ignored
    assert x == y


def test_selected_impl_reports():
    assert IMPL == "python"


def test_sweep_plan_structure():
    for m in range(0, 9):
        full = (1 << m) - 1
        plan = sweep_plan(m)
        assert plan[0] == (full, None, None)
        assert sorted(mask for mask, _, _ in plan) == list(range(1 << m))
        last_with_popcount = {m: full}
        last_child_height = {}
        for mask, parent, height in plan[1:]:
            bit = max(b for b in range(m) if not mask >> b & 1)
            assert parent == mask | (1 << bit)
            assert height == m - 1 - bit
            # preorder: the parent is the most recent mask with one more bit,
            # so a sweep needs one live face set per popcount
            assert last_with_popcount.get(mask.bit_count() + 1) == parent
            last_with_popcount[mask.bit_count()] = mask
            # each mask's children come in decreasing height
            assert last_child_height.get(parent, m) > height
            last_child_height[parent] = height


def _sub_support(dual_levels, mask):
    """The coranks of ``dual_levels`` a sweep mask keeps: bit c is depth c."""
    return tuple(d for c, d in enumerate(dual_levels) if mask >> c & 1)


def test_sweep_reaches_every_sub_support():
    """Started from the faces of any support S, the sweep yields every mask
    once, in plan order, with exactly the faces of that sub-support, and
    each dict's owners ascend in insertion order."""
    store = ForestStore()
    pairs = 0
    for parts in ((9,), (8, 1), (4, 4), (3, 2, 1)):
        shape = Shape(parts)
        expected = {}  # sub-support -> its faces, built once
        for k in range(5):
            for levels in combinations(range(1, shape.n - 1), k):
                tops = support_root_ids(shape, levels, store)
                masks = []
                for mask, faces in sweep(store, k, tops):
                    masks.append(mask)
                    sub = _sub_support(levels, mask)
                    if sub not in expected:
                        expected[sub] = set(support_root_ids(shape, sub, store))
                    assert set(faces) == expected[sub], (parts, levels, mask)
                    owners = list(faces.values())
                    assert owners == sorted(owners), (parts, levels, mask)
                assert masks == [mask for mask, _, _ in sweep_plan(k)]
                pairs += len(masks)
    assert pairs == 2432


@pytest.mark.parametrize("parts", [(7,), (6, 1)], ids=str)
def test_sweep_owner_is_least_top_containing_the_face(parts):
    """The owner of each face is the least top whose direct nested-tuple
    restriction (``core.restrict``, no store) gives that face."""
    shape = Shape(parts)
    n = shape.n
    store = ForestStore()
    for k in range(n - 1):
        for levels in combinations(range(1, n - 1), k):
            tops = support_root_ids(shape, levels, store)
            chains = [ChainType(shape, levels, store.nested_roots(t)) for t in tops]
            for mask, faces in sweep(store, k, tops):
                sub = RankSet.of_dual(n, _sub_support(levels, mask))
                first = {}
                for owner, chain in enumerate(chains):
                    first.setdefault(restrict(chain, sub).roots, owner)
                got = {store.nested_roots(face): owner for face, owner in faces.items()}
                assert got == first, (parts, levels, mask)


def test_only_the_kernel_walks_the_sweep_plan():
    """Flag tables and the partitioning reach their faces through
    ``kernel.sweep``; a module that named the plan or the memo release
    would be a second walk, with its own ancestor path and release rule."""
    walkers = set()
    for path in glob.glob(os.path.join(os.path.dirname(kernel.__file__), "*.py")):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if name in ("sweep_plan", "release_drops_above"):
                walkers.add(os.path.splitext(os.path.basename(path))[0])
    assert walkers == {"kernel"}
