"""The forest store against the direct nested-tuple restriction, and the
structure of the sweep plan."""

import random

from rsl import RankSet, enumerate_facet_orbits, full_shape, restrict
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
            for depth, d in enumerate(levels):
                keep = [x for x in levels if x != d]
                direct = restrict(facet, RankSet.of_dual(n, keep))
                assert store.nested_roots(store.drop_roots(rid, depth)) == direct.roots


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
        position = {mask: i for i, (mask, _, _) in enumerate(plan)}
        for i, (mask, parent, depth) in enumerate(plan[1:], start=1):
            bit = next(b for b in range(m) if not mask >> b & 1)
            assert parent == mask | (1 << bit)
            assert depth == bit
            assert position[parent] < i
