import itertools
import time

import pytest

from rsl import (
    canonicalize,
    chain_condition_search,
    classify_rank_set,
    delta_beta_nonvanishing,
    flag_h,
    full_shape,
    theorem31_witness,
    vanishing_predicates,
)
from rsl import bars, core


def test_classification():
    assert classify_rank_set({1, 2, 3}, 6).kind == "initial-segment"
    shape = classify_rank_set({1, 2, 5, 6}, 8)
    assert shape.kind == "initial-plus-tail" and shape.i == 2 and shape.js == (5, 6)
    assert classify_rank_set({3, 4}, 6).kind == "no-1"
    assert classify_rank_set((), 6).kind == "no-1"
    # i is the whole initial run, so the tail starts past i + 1
    for n in range(3, 11):
        for size in range(0, n - 1):
            for s in itertools.combinations(range(1, n - 1), size):
                shape = classify_rank_set(set(s), n)
                if shape.kind == "initial-plus-tail":
                    assert shape.js[0] >= shape.i + 2, (n, s)


def test_predicate_examples():
    assert "halfset" in vanishing_predicates({1, 2, 3, 4}, 8)
    assert "single-a" in vanishing_predicates({1, 2}, 6)
    assert "initial" in vanishing_predicates({1, 2}, 6)
    # hole strictly past the midpoint: [1,6] minus {4}
    assert "gap" in vanishing_predicates({1, 2, 3, 5, 6}, 9)
    # boundary hole k = (r+1)/2 is excluded: these sets have positive h
    assert "gap" not in vanishing_predicates({1, 3}, 5)
    assert "gap" not in vanishing_predicates({1, 2, 4, 5}, 8)
    assert flag_h(5, full_shape(5), {1, 3}) == 1
    assert flag_h(8, full_shape(8), {1, 2, 4, 5}) == 2


def test_predicates_sound():
    for n in range(3, 10):
        for size in range(0, n - 1):
            for s in itertools.combinations(range(1, n - 1), size):
                if vanishing_predicates(set(s), n):
                    assert flag_h(n, full_shape(n), set(s)) == 0, (n, s)


def test_chain_condition_examples():
    # S = {1,2} is an initial segment: vacuously no witness chain
    for n in (5, 6, 7):
        assert chain_condition_search({1, 2}, n) is None
    witness = chain_condition_search({1, 3}, 6)
    assert witness is not None
    assert witness.orbit_count >= 2
    assert tuple(sorted(witness.chain.support)) == (1, 3)


def test_chain_condition_necessity():
    for n in range(4, 9):
        for size in range(1, n - 1):
            for s in itertools.combinations(range(1, n - 1), size):
                shape = classify_rank_set(set(s), n)
                if shape.kind != "initial-plus-tail":
                    continue
                if flag_h(n, full_shape(n), set(s)) > 0:
                    assert chain_condition_search(set(s), n) is not None, (n, s)


def test_witness_searches_reach_n16(monkeypatch):
    """The searches build only the faces of the tail support, never a facet
    (E_15 of them at n = 16), and answer in milliseconds."""
    real = core.support_root_ids

    def no_facets(*args):
        raise AssertionError("a witness search enumerated facets")

    def tail_only(shape, dual_levels, store):
        if dual_levels == tuple(range(1, shape.n - 1)):
            no_facets()
        return real(shape, dual_levels, store)

    monkeypatch.setattr(bars, "enumerate_insertion_facets", no_facets)
    monkeypatch.setattr(core, "support_root_ids", tail_only)
    t0 = time.perf_counter()
    found = chain_condition_search({1, 2, 5, 7}, 16)
    strong = theorem31_witness({1, 4, 7}, 12)
    assert time.perf_counter() - t0 < 10
    assert found.chain.support == (1, 2, 5, 7)
    assert found.orbit_count >= 3  # i + 1 with i = 2
    assert strong.support == (1, 4, 7)


def test_theorem31_examples():
    assert theorem31_witness({1, 2, 7}, 10) is not None
    assert theorem31_witness({1, 2}, 6) is None
    assert theorem31_witness({1, 3}, 6) is not None


def test_theorem31_sufficiency_and_monotone():
    for n in range(4, 9):
        for size in range(1, n - 1):
            for s in itertools.combinations(range(1, n - 1), size):
                shape = classify_rank_set(set(s), n)
                if shape.kind != "initial-plus-tail":
                    continue
                strong = theorem31_witness(set(s), n)
                if strong is not None:
                    assert flag_h(n, full_shape(n), set(s)) > 0, (n, s)
                    assert chain_condition_search(set(s), n) is not None, (n, s)


def test_delta_beta_examples():
    one_orbit = canonicalize([[{1, 2}, {3, 4}, {5}]], full_shape(5))
    assert not delta_beta_nonvanishing(one_orbit, 1)
    two_orbits = canonicalize([[{1, 2, 3}, {4, 5}, {6}]], full_shape(6))
    assert delta_beta_nonvanishing(two_orbits, 1)
    assert delta_beta_nonvanishing(two_orbits, 0)


def test_search_precondition():
    with pytest.raises(ValueError):
        chain_condition_search({2, 4}, 7)  # missing rank 1
    with pytest.raises(ValueError):
        theorem31_witness({3}, 6)
