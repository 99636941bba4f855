"""The forest store against the direct nested-tuple restriction, and the
structure of the sweep plan."""

import random

from rsl import RankSet, enumerate_facet_orbits, full_shape, restrict
from rsl.core import _drop_depth, support_root_ids
from rsl.kernel import IMPL, ForestStore, sweep_plan


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
    while store._nodes[nid][1]:
        nid = store._nodes[nid][1][0]
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
    second sweep makes no call, also for hits that return node id 0."""
    n = 7
    store = _CountingStore()
    facets = support_root_ids(full_shape(n), tuple(range(1, n - 1)), store)
    forests = [(rid, n - 3) for rid in facets]
    # every interned subtree as a one-root forest too: some drop to node 0
    forests += [((nid,), _height(store, nid)) for nid in range(store.size())]
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
