import itertools

import pytest

from rsl import (
    RankSet,
    Shape,
    b_prime,
    check_stability,
    faces_with_support,
    flag_f,
    flag_h,
    full_shape,
    full_table,
    reduced_euler,
)

import oracles


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
    for n in range(3, 9):
        assert full_table(n, full_shape(n)).check_inversion()
        assert full_table(n, (n - 1, 1)).check_inversion()


def test_nonnegative_h_full_shape():
    for n in range(3, 9):
        table = full_table(n, full_shape(n))
        assert all(v >= 0 for v in table.h.values())
        assert all(v >= 0 for v in table.f.values())


def test_unquotiented_matches_stirling_products():
    for n in (4, 5, 6):
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
    # both face-enumeration routes of core share no code with the sweep plan
    for shape in ((n,), (n - 1, 1), (4, n - 4)):
        table = full_table(n, shape)
        for s, count in table.f.items():
            assert count == len(faces_with_support(n, shape, s, cross_check=True))


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


def test_stability_precondition():
    with pytest.raises(ValueError):
        check_stability({3}, 6, 7)  # needs both sizes above 6


def test_reduced_euler_identity():
    for n in (4, 5, 6):
        table = full_table(n, full_shape(n))
        for s, h in table.h.items():
            if not s:
                assert reduced_euler(n, (n,), s) == 1
                continue
            chi = reduced_euler(n, (n,), s)
            assert (-1) ** (len(s) - 1) * chi == h


def test_reduced_euler_known_values():
    assert reduced_euler(4, (4,), {1, 2}) == 0
    assert reduced_euler(4, (4,), {2}) == 1


def test_rank_set_argument_accepts_rank_set():
    rs = RankSet.primal(5, {2})
    assert flag_h(5, (5,), rs) == flag_h(5, (5,), {2})
    dual = rs.as_dual()
    assert flag_h(5, (5,), dual) == flag_h(5, (5,), {2})


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
