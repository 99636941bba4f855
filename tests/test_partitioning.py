import itertools
from collections import Counter

import pytest

from rsl import (
    RankSet,
    Shape,
    custom,
    distinguished,
    full_shape,
    full_table,
    hook_shape,
    length_lex,
    restrict,
    reverse_length,
)
from rsl import bars, partitioning
from rsl.bars import InsertionFacet, enumerate_insertion_facets, min_extension
from rsl.kernel import sweep_plan
from rsl.partitioning import (
    LabelTieError,
    LengtheningError,
    minimal_new_faces,
    order_facets,
    verify_partitioning,
)


def test_order_facets_n4_example():
    scheme = order_facets(4, full_shape(4))
    assert [f.positions for f in scheme.facets] == [(1, 2, 3), (2, 1, 3)]


def test_order_facets_n3_singleton():
    scheme = order_facets(3, full_shape(3))
    assert len(scheme.facets) == 1


def test_order_facets_refuses_bad_order():
    with pytest.raises(LengtheningError):
        order_facets(4, full_shape(4), reverse_length())


def test_order_facets_keys_each_facet_once(monkeypatch):
    # the facet walk records each step's label key as it pushes the step;
    # order_facets sorts by those and keys no facet again, and its order is
    # the order of the keys sort_key defines
    calls = []
    plain = InsertionFacet.sort_key
    monkeypatch.setattr(InsertionFacet, "sort_key", lambda facet: calls.append(facet) or plain(facet))
    reverse_word = custom("reverse-word", lambda c: (sum(c), tuple(-x for x in c)))
    cases = [
        (full_shape(6), None, 16),  # E_5
        (hook_shape(6), distinguished(hook_shape(6)), 61),  # E_6
        (Shape((2, 2, 2)), None, 501),
        (Shape((3, 2, 1)), reverse_word, 362),
    ]
    for shape, order, count in cases:
        scheme = order_facets(6, shape, order)
        assert not calls, shape
        walked = enumerate_insertion_facets(6, shape, scheme.order)
        assert [f._walk_key for f in walked] == [plain(f) for f in walked], shape
        want = sorted(walked, key=plain)
        assert list(scheme.facets) == want and len(want) == count, shape


def test_order_facets_refuses_label_ties(monkeypatch):
    monkeypatch.setattr(bars, "_label_key", lambda *args: ())
    with pytest.raises(LabelTieError):
        order_facets(5, full_shape(5))


def test_minimal_faces_n4_example():
    scheme = order_facets(4, full_shape(4))
    minimal_new_faces(scheme)
    assert scheme.min_dual_supports == (frozenset(), frozenset({1}))
    assert scheme.new_face_counts == (4, 2)
    assert scheme.interval_size_sum() == 6
    assert scheme.minimal_faces[0].is_empty()
    assert [node[0] for node in scheme.minimal_faces[1].roots] == [(2,), (2,)]


@pytest.mark.parametrize("parts", [(7,), (6, 1)], ids=str)
def test_minimal_faces_match_restriction(parts):
    # G_i is facet i restricted to its minimal support, and facet i is the
    # lex-least facet containing G_i: the interval [G_i, F_i] starts there
    shape = Shape(parts)
    order = distinguished(shape) if len(parts) > 1 else None
    scheme = order_facets(7, shape, order)
    minimal_new_faces(scheme)
    assert scheme.status == "partitioned"
    for facet, face, dual in zip(scheme.facets, scheme.minimal_faces, scheme.min_dual_supports):
        assert face.dual_levels == tuple(sorted(dual))
        assert min_extension(face, scheme.order) == facet


def test_verify_partitioning_n4():
    scheme = verify_partitioning(4, full_shape(4))
    assert scheme.status == "verified"
    assert scheme.h_via_partitioning == {frozenset(): 1, frozenset({1}): 1}


def test_verified_and_h_agreement_full_shape():
    for n in range(3, 8):
        scheme = verify_partitioning(n, full_shape(n))
        assert scheme.status == "verified", scheme.failures
        table = full_table(n, full_shape(n))
        for s, h in table.h.items():
            dual = frozenset(n - 1 - r for r in s)
            assert scheme.h_via_partitioning.get(dual, 0) == h


def test_verified_and_h_agreement_hook_distinguished():
    for n in range(3, 7):
        shape = hook_shape(n)
        scheme = verify_partitioning(n, shape, distinguished(shape))
        assert scheme.status == "verified", scheme.failures
        table = full_table(n, shape)
        for s, h in table.h.items():
            dual = frozenset(n - 1 - r for r in s)
            assert scheme.h_via_partitioning.get(dual, 0) == h


def test_verified_other_shapes_length_lex():
    for n, parts in [(4, (2, 2)), (5, (3, 2)), (6, (5, 1)), (6, (2, 2, 2)), (5, (1, 1, 1, 1, 1))]:
        scheme = verify_partitioning(n, Shape(parts), length_lex())
        assert scheme.status == "verified", (parts, scheme.failures)


def test_interval_sum_matches_face_count():
    for n in range(3, 8):
        scheme = verify_partitioning(n, full_shape(n))
        assert scheme.interval_size_sum() == sum(full_table(n, full_shape(n)).f.values())


def test_facet_count_n5():
    scheme = order_facets(5, full_shape(5))
    assert len(scheme.facets) == 5


def test_no_label_ties():
    for n in range(3, 8):
        scheme = order_facets(n, full_shape(n))
        keys = [f.sort_key() for f in scheme.facets]
        assert len(set(keys)) == len(keys)


def test_hook_n7_distinguished_beyond_acceptance_range():
    shape = hook_shape(7)
    scheme = verify_partitioning(7, shape, distinguished(shape))
    assert scheme.status == "verified"
    table = full_table(7, shape)
    for s, h in table.h.items():
        dual = frozenset(6 - r for r in s)
        assert scheme.h_via_partitioning.get(dual, 0) == h


def test_descent_caveat_is_real():
    # facets violating the relaxed block condition can have minimal faces
    # whose support differs from the descent set; the characterization is
    # only claimed (and only holds) under the condition
    from rsl.bars import facet_block_conditions

    scheme = verify_partitioning(6, full_shape(6))
    mismatched = [
        facet.positions
        for facet, dsup in zip(scheme.facets, scheme.min_dual_supports)
        if not facet_block_conditions(facet)[1] and facet.descent_dual_set() != dsup
    ]
    assert mismatched  # the restriction in the characterization is load-bearing


def test_full_shape_n8_boundary_of_verbatim_labels():
    # The engine answers the partitioning question empirically per n: the
    # chain labeling without equivalent-block sorting is clean through n=7
    # and first fails at n=8, on exactly three facets that interleave the
    # refinement of equal size-4 twin blocks.  The witnesses are reported,
    # never patched.
    scheme = verify_partitioning(8, full_shape(8))
    assert scheme.status == "failed"
    witnesses = [f for f in scheme.failures if f.reason == "non-unique-minimal"]
    assert {scheme.facets[w.facet_index].positions for w in witnesses} == {
        (4, 1, 2, 5, 6, 7, 3),
        (4, 1, 5, 2, 6, 7, 3),
        (4, 2, 6, 1, 5, 7, 3),
    }
    for w in witnesses:
        first = scheme.facets[w.facet_index].insertions[0]
        assert first.left == first.right == (4,)


N9_WITNESSES = {
    (1, 5, 2, 3, 6, 7, 8, 4),
    (1, 5, 2, 6, 3, 7, 8, 4),
    (1, 5, 3, 7, 2, 6, 8, 4),
    (3, 6, 1, 4, 5, 2, 7, 8),
    (3, 6, 1, 4, 5, 7, 2, 8),
    (3, 6, 1, 4, 5, 7, 8, 2),
    (3, 6, 1, 4, 7, 5, 2, 8),
    (3, 6, 1, 4, 7, 5, 8, 2),
    (3, 6, 1, 4, 7, 8, 5, 2),
}


def test_full_shape_n9_boundary_of_verbatim_labels():
    # at n=9 the full shape fails on nine facets: the three size-4 twin
    # witnesses of the hook at n=9, and six that make size-3 twins at step 2
    scheme = verify_partitioning(9, full_shape(9))
    assert scheme.status == "failed"
    assert {w.reason for w in scheme.failures} == {"non-unique-minimal"}
    assert {scheme.facets[w.facet_index].positions for w in scheme.failures} == N9_WITNESSES
    for w in scheme.failures:
        facet = scheme.facets[w.facet_index]
        second = facet.insertions[1]
        assert second.left == second.right == ((4,) if facet.positions[0] == 1 else (3,))


def test_full_shape_n10_boundary_contains_the_lifted_n9_witnesses():
    # at n=10 the full shape fails on 133 of its 7,936 facets; each n=9
    # witness, with a first bar at position 1 and its positions shifted up
    # by one, is among them
    scheme = verify_partitioning(10, full_shape(10))
    assert scheme.status == "failed"
    assert len(scheme.facets) == 7936
    assert {w.reason for w in scheme.failures} == {"non-unique-minimal"}
    witnesses = {scheme.facets[w.facet_index].positions for w in scheme.failures}
    assert len(witnesses) == len(scheme.failures) == 133
    assert {(1,) + tuple(p + 1 for p in pos) for pos in N9_WITNESSES} <= witnesses


def test_hook_n8_stays_clean():
    # two disjoint equal blocks of size four need eight identical letters,
    # which the hook shape lacks: both orders stay partitioning-clean at n=8
    shape = hook_shape(8)
    assert verify_partitioning(8, shape, distinguished(shape)).status == "verified"
    assert verify_partitioning(8, shape, length_lex()).status == "verified"


def test_hook_n9_boundary_with_distinguished_order():
    # at n=9 the first bar splits off the distinguished letter, which
    # leaves eight identical letters: the hook then fails on three facets
    # that make equal size-4 twin blocks at step 2, at the positions of the
    # size-4 twin witnesses of the full shape at n=9
    shape = hook_shape(9)
    scheme = verify_partitioning(9, shape, distinguished(shape))
    assert scheme.status == "failed"
    assert {w.reason for w in scheme.failures} == {"non-unique-minimal"}
    assert {scheme.facets[w.facet_index].positions for w in scheme.failures} == {
        (1, 5, 2, 3, 6, 7, 8, 4),
        (1, 5, 2, 6, 3, 7, 8, 4),
        (1, 5, 3, 7, 2, 6, 8, 4),
    }
    for w in scheme.failures:
        second = scheme.facets[w.facet_index].insertions[1]
        assert second.left == second.right == (4, 0)


def _dual_key(n, dual):
    """The FlagTable.f key of the support with these coranks."""
    return RankSet.of_dual(n, dual).as_primal().ranks


def _owner_oracle(scheme):
    """The first-owner partitioning by brute force: every facet restricted
    with ``core.restrict`` to every support, the first facet index winning.
    Returns (new face counts, minimal dual supports, failing facet indices,
    faces per support)."""
    n, m = scheme.n, scheme.n - 2
    coranks = range(1, m + 1)
    duals = [frozenset(d) for k in range(m + 1) for d in itertools.combinations(coranks, k)]
    owner = {}
    for j, facet in enumerate(scheme.facets):
        for dual in duals:
            owner.setdefault((dual, restrict(facet.chain_type(), RankSet.of_dual(n, dual))), j)
    owned = [set() for _ in scheme.facets]
    for (dual, _), j in owner.items():
        owned[j].add(dual)
    full = frozenset(coranks)
    supports, failing = [], set()
    for j, facet in enumerate(scheme.facets):
        d = frozenset(
            c for c in coranks
            if owner[full - {c}, restrict(facet.chain_type(), RankSet.of_dual(n, full - {c}))] < j
        )
        supports.append(d)
        if owned[j] != {dual for dual in duals if d <= dual}:
            failing.add(j)
    per_support = Counter(_dual_key(n, dual) for dual, _ in owner)
    return tuple(map(len, owned)), tuple(supports), failing, dict(per_support)


@pytest.mark.parametrize(
    "n,parts,order",
    [(8, (8,), None), (7, (6, 1), distinguished(Shape((6, 1)))), (6, (2, 2, 2), None)],
    ids=str,
)
def test_owner_sweep_matches_restriction_oracle(n, parts, order):
    scheme = order_facets(n, Shape(parts), order)
    minimal_new_faces(scheme)
    counts, supports, failing, per_support = _owner_oracle(scheme)
    assert scheme.new_face_counts == counts
    assert scheme.min_dual_supports == supports
    assert {f.facet_index for f in scheme.failures} == failing
    assert len(failing) == (3 if parts == (8,) else 0)
    assert scheme.face_counts == per_support
    assert scheme.total_faces == sum(per_support.values())


def test_coverage_is_checked_by_orbit_identity(monkeypatch):
    # a builder that drops one facet orbit and repeats another keeps the
    # count, so only a comparison of the orbits themselves can tell it from
    # the true one
    real = partitioning.support_root_ids

    def one_swapped(shape, dual_levels, store):
        orbits = real(shape, dual_levels, store)
        return orbits[:-1] + orbits[:1]

    monkeypatch.setattr(partitioning, "support_root_ids", one_swapped)
    scheme = verify_partitioning(6, full_shape(6))
    assert scheme.status == "failed"
    assert [w.reason for w in scheme.failures] == ["coverage"]
    assert scheme.failures[0].detail == "facet orbits: 1 missing, 1 extra"
    assert scheme.h_via_partitioning is None


def test_face_counts_equal_the_flag_table():
    # the sweep of the verified facets reaches exactly the faces of the
    # bottom-up flag table, support by support
    cases = [(n, full_shape(n), None) for n in range(3, 8)]
    cases += [(n, hook_shape(n), distinguished(hook_shape(n))) for n in range(3, 9)]
    cases.append((6, Shape((2, 2, 2)), None))
    for n, shape, order in cases:
        scheme = verify_partitioning(n, shape, order)
        assert scheme.status == "verified", (n, shape)
        assert scheme.face_counts == full_table(n, shape).f, (n, shape)


@pytest.mark.parametrize("n,parts", [(8, (8,)), (7, (6, 1))], ids=str)
def test_minimal_new_faces_drops_once_per_parent_face(monkeypatch, n, parts):
    # one deletion per distinct face of each support's parent, and none for
    # the G_i, which the sweep reads off as supports; restricting every
    # facet to every support would make facets * (2^m - 1)
    calls = []

    class CountingStore(partitioning.ForestStore):
        def drop_roots(self, *args):
            calls.append(args)
            return super().drop_roots(*args)

    monkeypatch.setattr(partitioning, "ForestStore", CountingStore)
    scheme = order_facets(n, Shape(parts))
    minimal_new_faces(scheme)
    m = n - 2

    def faces(mask):
        return scheme.face_counts[_dual_key(n, {i + 1 for i in range(m) if mask >> i & 1})]

    sweep = sum(faces(parent) for _, parent, _ in sweep_plan(m) if parent is not None)
    assert len(calls) == sweep
