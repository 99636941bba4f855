import hashlib
import itertools
import json

import pytest

from rsl import (
    RankSet,
    Shape,
    b_prime,
    build_bprime,
    build_theorem22,
    chain_condition_search,
    check_stability,
    clear_caches,
    classify_rank_set,
    enumerate_facet_orbits,
    faces_with_support,
    flag_f,
    flag_h,
    full_shape,
    full_table,
    restrict,
    theorem31_witness,
    vanishing_predicates,
)

from rsl import classes, core, flags, kernel, oracles
from rsl.kernel import ForestStore

import sweep_table


def test_full_table_n4_exact():
    table = full_table(4, (4,))
    assert table.f == {
        frozenset(): 1,
        frozenset({1}): 1,
        frozenset({2}): 2,
        frozenset({1, 2}): 2,
    }
    assert table.h == {
        frozenset(): 1,
        frozenset({1}): 0,
        frozenset({2}): 1,
        frozenset({1, 2}): 0,
    }


def test_full_table_n3_single_entry():
    table = full_table(3, (3,))
    assert table.f[frozenset({1})] == 1
    assert table.h[frozenset({1})] == 0


def test_flag_examples():
    assert flag_f(4, (4,), {2}) == 2
    assert flag_f(6, (6,), ()) == 1
    assert flag_f(4, (1, 1, 1, 1), {1}) == 6
    assert flag_h(4, (4,), {2}) == 1
    assert flag_h(7, (7,), ()) == 1


def test_inversion_invariant():
    """f_S = sum of h_T over T inside S, exactly."""
    for n in range(3, 9):
        for shape in (full_shape(n), (n - 1, 1)):
            table = full_table(n, shape)
            for s, f in table.f.items():
                assert f == sum(h for t, h in table.h.items() if t <= s), (n, shape, sorted(s))


def test_nonnegative_h_full_shape():
    for n in range(3, 9):
        table = full_table(n, full_shape(n))
        assert all(v >= 0 for v in table.h.values())
        assert all(v >= 0 for v in table.f.values())


def test_unquotiented_matches_stirling_products():
    for n in range(2, 10):
        table = full_table(n, (1,) * n)
        for s in _subsets(n):
            assert table.f[frozenset(s)] == oracles.classical_flag_f(n, s)


def _subsets(n):
    out = []
    for size in range(0, n - 1):
        out.extend(itertools.combinations(range(1, n - 1), size))
    return out


def test_one_part_shape_argument_forms_agree():
    for n in (4, 5, 6):
        assert full_table(n, (n,)) == full_table(n, Shape((n,)))
        assert full_table(n, n).f == full_table(n, (n,)).f


@pytest.mark.parametrize("n", (6, 7))
def test_table_matches_face_enumeration(n):
    # both face-enumeration routes share no code with the sweep plan
    for shape in ((n,), (n - 1, 1), (4, n - 4)):
        table = full_table(n, shape)
        for s, count in table.f.items():
            faces = faces_with_support(n, shape, s)
            assert count == len(faces)
            assert faces == oracles.faces_by_restriction(n, shape, s)


WALK_ORACLE_CASES = (
    [(n, (n,)) for n in range(3, 11)]
    + [(n, (n - 1, 1)) for n in range(3, 11)]
    + [(8, (4, 4)), (8, (3, 3, 2)), (7, (3, 2, 2)), (7, (1,) * 7)]
)


@pytest.mark.parametrize("n, shape", WALK_ORACLE_CASES, ids=str)
def test_full_table_walk_equals_the_sweep(n, shape):
    """full_table, counted over cycle types, equals the sweep of the full
    support's faces; the subsets test reads the one-S count on every S."""
    counted = full_table(n, shape)
    swept = sweep_table.support_table(n, shape, range(1, n - 1))
    assert counted.f == swept.f
    assert counted.h == swept.h


@pytest.mark.parametrize("n, shape", WALK_ORACLE_CASES, ids=str)
def test_one_support_count_is_the_table_entry(n, shape):
    """``core.support_count`` counts f of one support level by level from
    the finest, with no table; the whole table is its oracle.  Under a limit
    below f it stops at limit + 1."""
    shape = Shape(shape)
    for s, f in full_table(n, shape).f.items():
        dual_levels = RankSet.primal(n, s).as_dual().sorted()
        assert core.support_count(shape, dual_levels, f) == f, sorted(s)
        assert core.support_count(shape, dual_levels, f // 2) == f // 2 + 1, sorted(s)


def test_one_support_count_at_the_query_bound():
    """f_{1..9}(14), the largest support the one-S bound was sized on, and
    f_{1..10}(14) = E_13 restricted to ten ranks, far above it."""
    def count(top):
        dual_levels = RankSet.primal(14, range(1, top + 1)).as_dual().sorted()
        return core.support_count(Shape((14,)), dual_levels, 10**9)

    assert count(9) == 192_627
    assert count(10) == 1_397_107
    assert count(12) == oracles.euler_number(13)


def test_one_support_count_stops_past_the_limit(monkeypatch):
    """On one level of many groupings the count meets at most limit + 1
    partitions, and keeps no step it left unfinished."""
    clear_caches()
    met, real = [], core.multiset_partitions
    monkeypatch.setattr(core, "multiset_partitions", lambda c, k: (met.append(p) or p for p in real(c, k)))
    shape, dual_levels = Shape((60,)), (29,)  # p(30) = 5,604 groupings into 30 blocks
    assert core.support_count(shape, dual_levels, 1_000) == 1_001
    assert len(met) <= 1_001
    assert not core._steps
    assert core.support_count(shape, dual_levels, 10_000) == 5_604
    assert len(met) == 1_001 + 5_604
    clear_caches()


def _entries_digest(n):
    blob = json.dumps(full_table(n, (n,)).entries(), separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def test_full_table_11_digest():
    # the digest was computed by the deletion sweep, not by the count
    assert _entries_digest(11) == "e74b98802eace9c1a7998271214f342d17fc231cd44d0647fdbed95379c0d866"


def test_full_table_12_and_13_digests():
    # (12) from the deletion sweep, (13) from a walk that built each support's faces
    assert _entries_digest(12) == "12216b69325acdb17dbf7c8a04c9afdb3068e45875c2d39d5552c5b1f7982a76"
    assert _entries_digest(13) == "0150e44820fe65acaaea30972d6d0c58b3c7c1d03770edbb1d6aa51e7a74cec2"


def test_full_support_counts_are_euler_numbers():
    """The facet orbits of (n) are counted by E_(n-1) and those of the hook
    (n-1, 1) by E_n, up to the largest whole table the CLI counts."""
    for n in range(2, 19):
        full = (1 << (n - 2)) - 1
        assert classes.orbit_counts(Shape((n,)))[full] == oracles.euler_number(n - 1), n
        assert classes.orbit_counts(Shape((n - 1, 1)))[full] == oracles.euler_number(n), n


def test_table_cache_is_bounded():
    """The cache keeps the last ``TABLE_CACHE_SIZE`` tables: the least
    recently used one is counted again, the others are hits."""
    flags._table_cache.cache_clear()
    tables = [(n, parts) for n in range(2, 10) for parts in classes.cycle_types(n)]
    tables = tables[: flags.TABLE_CACHE_SIZE + 1]
    for n, parts in tables:
        full_table(n, parts)
    info = flags._table_cache.cache_info()
    assert info.maxsize == info.currsize == flags.TABLE_CACHE_SIZE
    full_table(*tables[-1])
    assert flags._table_cache.cache_info().hits == info.hits + 1
    full_table(*tables[0])
    assert flags._table_cache.cache_info().misses == info.misses + 1
    flags._table_cache.cache_clear()


SUBSET_CASES = [(7, (7,)), (8, (8,)), (8, (7, 1)), (8, (4, 4)), (7, (3, 2, 2))]


@pytest.mark.parametrize("n, shape", SUBSET_CASES + [c for c in WALK_ORACLE_CASES if c not in SUBSET_CASES])
def test_support_table_is_the_full_table_on_the_subsets(n, shape):
    """From every support S, the table over the subsets of S, counted by
    patterns, equals the whole table, counted over cycle types, read on
    those subsets."""
    for top in _subsets(n):
        _assert_read_on_subsets(flags.support_table(n, shape, top), full_table(n, shape), frozenset(top))


def _assert_read_on_subsets(got, table, top):
    assert set(got.f) == {s for s in table.f if s <= top}, sorted(top)
    assert got.f == {s: table.f[s] for s in got.f}, sorted(top)
    assert got.h == {s: table.h[s] for s in got.h}, sorted(top)


def test_support_table_builds_no_face(monkeypatch):
    """The one-S table is counted: with every face builder and the sweep
    made to raise, it still answers, and equals the whole table on the
    subsets of S."""

    def refuse(*args):
        raise AssertionError("the one-S table built a face")

    for module, name in ((core, "support_root_ids"), (core, "ForestStore"), (kernel, "ForestStore"), (kernel, "sweep")):
        monkeypatch.setattr(module, name, refuse)
    top = frozenset({1, 2, 3, 5, 8})
    got = flags.support_table(12, (12,), top)
    monkeypatch.undo()
    _assert_read_on_subsets(got, full_table(12, (12,)), top)


@pytest.mark.parametrize(
    "n, shape, top", [(6, (6,), {1, 3, 4}), (7, (7,), {2, 3, 5}), (7, (6, 1), {1, 2, 4, 5}), (7, (4, 3), {2, 4})]
)
def test_support_table_counts_the_restrictions_of_every_facet(n, shape, top):
    """f from one support's count against the facets' restrictions, an
    oracle that counts no pattern and walks no sweep plan."""
    got = flags.support_table(n, shape, top).f
    assert set(got) == {frozenset(s) for k in range(len(top) + 1) for s in itertools.combinations(top, k)}
    for s, count in got.items():
        assert count == len(oracles.faces_by_restriction(n, shape, s)), sorted(s)


def test_full_shape_equals_quotiented_chain_count():
    # quotienting explicit chains by the symmetric group reproduces f
    from rsl import canonicalize

    for n in (4, 5):
        table = full_table(n, full_shape(n))
        for s in _subsets(n):
            if not s:
                continue
            chains = oracles.chains_with_support(n, s)
            orbits = {canonicalize(c, full_shape(n)) for c in chains}
            assert table.f[frozenset(s)] == len(orbits)


def test_b_prime_values():
    for n in range(3, 8):
        for i in range(1, n - 1):
            assert b_prime(n, set(range(1, i + 1))) == 1
    assert b_prime(6, ()) == 1
    assert b_prime(8, {2, 3, 6}) >= 2


def test_initial_segment_vanishing():
    for n in range(3, 9):
        for i in range(1, n - 1):
            assert flag_h(n, full_shape(n), set(range(1, i + 1))) == 0


def test_stability_examples():
    assert check_stability({2}, 5, 6)
    assert flag_h(5, (5,), {2}) == flag_h(6, (6,), {2})
    assert check_stability({1}, 3, 4)
    assert check_stability({3}, 7, 8)
    # a RankSet is read at its own size, which may be either of the two
    assert check_stability(RankSet.primal(6, {2}), 5, 6)
    assert check_stability(RankSet.of_dual(6, {3}), 5, 6)
    assert check_stability(RankSet.primal(5, {2}), 5, 6)
    with pytest.raises(ValueError, match="is for n=7"):
        check_stability(RankSet.primal(7, {2}), 5, 6)


def test_stability_precondition():
    with pytest.raises(ValueError):
        check_stability({3}, 6, 7)  # needs both sizes above 6
    # the one range check, shared with ``rsl stability``
    with pytest.raises(ValueError, match="n, m > 6"):
        flags.stability_ranks({3}, 7, 6)
    assert flags.stability_ranks(RankSet.of_dual(6, {3}), 5, 6) == frozenset({2})
    assert flags.stability_ranks(set(), 2, 3) == frozenset()
    with pytest.raises(ValueError, match="two sizes"):
        flags.stability_ranks({3}, 9, 9)  # one size compares with nothing


# name -> (n, lattice ranks S, call on a rank argument).  Every S differs
# from its corank image, so reading a corank set as lattice ranks shows.
RANK_ARGUMENT_CASES = {
    "flag_f": (8, {1, 4}, lambda r: flag_f(8, (8,), r)),
    "flag_h": (8, {1, 4}, lambda r: flag_h(8, (8,), r)),
    "b_prime": (8, {1, 4}, lambda r: b_prime(8, r)),
    "restrict": (8, {1, 4}, lambda r: restrict(enumerate_facet_orbits(8, (8,))[0], r)),
    "faces_with_support": (8, {1, 4}, lambda r: faces_with_support(8, (8,), r)),
    "classify_rank_set": (8, {1, 4}, lambda r: classify_rank_set(r, 8)),
    "vanishing_predicates": (6, {4}, lambda r: vanishing_predicates(r, 6)),
    "chain_condition_search": (8, {1, 4}, lambda r: chain_condition_search(r, 8)),
    "theorem31_witness": (8, {1, 4}, lambda r: theorem31_witness(r, 8)),
    "build_theorem22": (8, {1, 4}, lambda r: build_theorem22(r, 8)),
    "build_bprime": (8, {1, 4}, lambda r: build_bprime(r, 8)),
}


@pytest.mark.parametrize("name", list(RANK_ARGUMENT_CASES))
def test_rank_set_argument_accepts_rank_set(name):
    n, s, call = RANK_ARGUMENT_CASES[name]
    want = call(s)
    assert call(RankSet.primal(n, s)) == want
    assert call(RankSet.of_dual(n, {n - 1 - r for r in s})) == want
    with pytest.raises(ValueError):
        call(RankSet.primal(n + 1, s))


def test_bad_shape_rejected():
    with pytest.raises(ValueError):
        full_table(5, (4,))
    with pytest.raises(ValueError):
        flag_h(5, (5,), {4})


def test_stability_sweep_through_n10():
    # stable range agreement plus the worked h_{1,2,7} value at n = 10
    import itertools as it

    table10 = full_table(10, full_shape(10))
    assert all(v >= 0 for v in table10.h.values())
    assert table10.h[frozenset({1, 2, 7})] >= 1  # the support-{2,7,8} corank witness
    for s in (set(c) for k in range(1, 4) for c in it.combinations(range(1, 4), k)):
        top = max(s)
        vals = [
            flag_h(n, full_shape(n), s) for n in range(2 * top + 1, 11) if n >= 3 and s <= set(range(1, n - 1))
        ]
        assert len(set(vals)) == 1, (s, vals)


def _sweep_support_table_8(monkeypatch, release):
    """The sweep of every support of (8), on a fresh ForestStore that counts
    ``node`` calls and records each memo release with the heights it leaves;
    with ``release`` False the release is a no-op."""
    stores = []

    class CountingStore(ForestStore):
        __slots__ = ("node_calls", "releases")

        def __init__(self):
            super().__init__()
            self.node_calls = 0
            self.releases = []
            stores.append(self)

        def node(self, cid, child_ids):
            self.node_calls += 1
            return super().node(cid, child_ids)

        def release_drops_above(self, height):
            if release:
                super().release_drops_above(height)
            self.releases.append((height, max(self._drop_memo, default=-1)))

    monkeypatch.setattr(sweep_table, "ForestStore", CountingStore)
    table = sweep_table.support_table(8, (8,), range(1, 7))
    (store,) = stores
    return table, store


def test_sweep_frees_only_dead_drop_memos(monkeypatch):
    """A freed memo could only cost work, never an answer, so the check is on
    work: releasing the heights no later lookup hits interns no extra node."""
    shipped, store = _sweep_support_table_8(monkeypatch, release=True)
    kept, kept_store = _sweep_support_table_8(monkeypatch, release=False)
    assert shipped.f == kept.f and shipped.h == kept.h
    assert store.node_calls == kept_store.node_calls
    # once per child of the full mask, coarsest level first, keeping only
    # the heights at or below the child's
    assert [h for h, _ in store.releases] == list(range(5, -1, -1))
    assert all(top <= h for h, top in store.releases)
    assert max(kept_store._drop_memo) > 0 and set(store._drop_memo) <= {0}


@pytest.mark.parametrize("n", range(6, 9))
def test_sweep_work_is_finest_parent_faces(monkeypatch, n):
    """The sweep deletes once per face of each mask's parent, and the parent
    adds the mask's finest (highest) missing bit.  The count is read from
    the table the sweep returns, and it is at most the count through the
    coarsest (lowest) missing bit."""
    m = n - 2
    full = (1 << m) - 1

    class CountingStore(ForestStore):
        __slots__ = ()
        calls = 0

        def drop_roots(self, root_ids, height, top):
            CountingStore.calls += 1
            return super().drop_roots(root_ids, height, top)

    monkeypatch.setattr(sweep_table, "ForestStore", CountingStore)
    for shape in ((n,), (n - 1, 1), (4, n - 4)):
        CountingStore.calls = 0
        table = sweep_table.support_table(n, shape, range(1, n - 1))

        def f(mask):  # coranks as bits, lowest bit = corank 1 = lattice rank n-2
            return table.f[frozenset(n - 2 - i for i in range(m) if mask >> i & 1)]

        masks = range(full)  # every mask but the full one
        finest = sum(f(mask | 1 << (full & ~mask).bit_length() - 1) for mask in masks)
        coarsest = sum(f(mask | (~mask & (mask + 1))) for mask in masks)
        assert CountingStore.calls == finest, shape
        assert finest <= coarsest, shape
