import hashlib
import itertools
import random
import sys

import pytest

from rsl import (
    WordUnsupportedError,
    b_prime,
    build_bprime,
    build_descending_run,
    build_theorem22,
    build_word,
    descent_set,
    descent_word,
    flag_h,
    full_shape,
    min_extension,
)
from rsl import construct
from rsl.core import empty_chain
from rsl.vanishing import classify_rank_set


def test_descending_run_ten_exact():
    facet = build_descending_run(10)
    assert facet.positions == (2, 4, 6, 8, 7, 5, 3, 1, 9)
    assert str(descent_word(facet)) == "D" * 7 + "A"


def test_descending_run_eleven_exact():
    facet = build_descending_run(11)
    assert facet.positions == (2, 4, 6, 8, 9, 7, 5, 3, 1, 10)
    assert str(descent_word(facet)) == "D" * 8 + "A"


def test_concatenated_run_word_verifies():
    facet = build_word("DDDADDDDA", 11)
    assert str(descent_word(facet)) == "DDDADDDDA"


def test_descending_run_small():
    assert str(descent_word(build_descending_run(4))) == "DA"
    with pytest.raises(ValueError):
        build_descending_run(3)


def test_all_ascents_is_min_extension_of_empty():
    for n in (4, 6):
        facet = build_word("A" * (n - 2))
        assert facet == min_extension(empty_chain(full_shape(n)))


def test_build_word_exhaustive():
    for length in range(1, 8):
        for bits in itertools.product("AD", repeat=length - 1):
            word = "".join(bits) + "A"
            assert str(descent_word(build_word(word))) == word


def test_build_word_positions_pinned():
    """The positions build_word returns for the 1,023 words ending in an
    ascent at n = 3..12, digested as repr((word, positions))."""
    digest = hashlib.sha256()
    count = 0
    for n in range(3, 13):
        for bits in itertools.product("AD", repeat=n - 3):
            word = "".join(bits) + "A"
            digest.update(repr((word, build_word(word).positions)).encode())
            count += 1
    assert count == 1023
    assert digest.hexdigest() == "54658aaf4f2074afc7d5c6ff27fa6f1d4160a6e23e75e764a7134c17cf298e24"


def test_build_word_past_the_recursion_limit():
    n = sys.getrecursionlimit() + 100  # one suspended step per bar, none on the call stack
    assert build_word("A" * (n - 2)).positions == tuple(range(1, n))


def test_build_word_joins_letters():
    assert build_word(["A", "A"]) == build_word("AA")
    with pytest.raises(ValueError, match="'Ax'"):
        build_word(["A", "x"])


def test_build_word_rejects_trailing_descent():
    with pytest.raises(WordUnsupportedError):
        build_word("AD")
    with pytest.raises(WordUnsupportedError):
        build_word("DDD")


def test_theorem22_worked_examples():
    facet = build_theorem22({1, 3}, 6)
    assert sorted(descent_set(facet).ranks) == [2, 4]  # word ADAD
    facet = build_theorem22({1, 2, 4, 6}, 8)
    assert str(descent_word(facet)) == "DADADD"
    # i = 0 delegates to the word builder
    facet = build_theorem22({3, 4}, 6)
    assert sorted(descent_set(facet).ranks) == [1, 2]


def _feasible(s, n):
    """Whether S = {1..i, j_1..j_l} has i >= 1 and i <= l."""
    shape = classify_rank_set(set(s), n)
    return shape.kind == "initial-plus-tail" and shape.i <= shape.l


def _theorem22_sets(n_max):
    """(n, S, i) for every S with i >= 1 and i <= l, n = 4..n_max, in
    order of n, then size, then ``itertools.combinations``."""
    for n in range(4, n_max + 1):
        for size in range(1, n - 1):
            for s in itertools.combinations(range(1, n - 1), size):
                if _feasible(s, n):
                    yield n, s, classify_rank_set(set(s), n).i


def test_theorem22_exhaustive_feasible():
    for n, s, _ in _theorem22_sets(9):
        facet = build_theorem22(set(s), n)
        dual = frozenset(n - 1 - r for r in s)
        assert facet.descent_dual_set() == dual
        assert flag_h(n, full_shape(n), set(s)) >= 1


def test_peel_search_rebuilds_no_facet(monkeypatch):
    """The peel search keeps the facet its walk built; no one-letter
    builder turns positions into a facet.  The sets with i = 0 (every S
    without rank 1, n = 3..9) go through build_word."""

    def rebuild(*args, **kwargs):
        raise AssertionError("a one-letter builder rebuilt a facet from positions")

    monkeypatch.setattr(construct, "facet_from_positions", rebuild)
    sets = [(n, s) for n, s, _ in _theorem22_sets(9)]
    for n in range(3, 10):
        sets += [(n, s) for k in range(n - 2) for s in itertools.combinations(range(2, n - 1), k)]
    for n, s in sets:
        build_theorem22(set(s), n)


def test_peel_search_positions_pinned():
    """The positions the peel search returns for the 168 sets with i >= 1
    at n = 4..10, digested as repr((n, S, positions))."""
    digest = hashlib.sha256()
    count = 0
    for n, s, i in _theorem22_sets(10):
        if i >= 1:
            digest.update(repr((n, s, build_theorem22(set(s), n).positions)).encode())
            count += 1
    assert count == 168
    assert digest.hexdigest() == "66face1c0dfb17f8c475c9b9fdf5cb332f914154132a21f2fe6b334872e4d02b"


def _random_theorem22_sets():
    """25 distinct feasible S with i >= 1 at each of n = 16, 18, 20, drawn
    from a seeded generator."""
    rng = random.Random(20)
    for n in (16, 18, 20):
        seen = set()
        while len(seen) < 25:
            s = tuple(sorted(rng.sample(range(1, n - 1), rng.randint(2, n - 3))))
            if _feasible(s, n) and s not in seen:
                seen.add(s)
                yield n, s


def test_peel_search_positions_pinned_past_n10():
    """The peel search's positions for 75 random sets at n = 16..20,
    digested as repr((n, S, positions))."""
    digest = hashlib.sha256()
    for n, s in _random_theorem22_sets():
        digest.update(repr((n, s, build_theorem22(set(s), n).positions)).encode())
    assert digest.hexdigest() == "9caa6bcb71eb0e39792c585bc2559f5489d0b97d49b10681c82d8d016a1cef17"


def test_theorem22_preconditions():
    with pytest.raises(ValueError):
        build_theorem22({1, 2}, 6)  # initial segment: i=2, l=0
    with pytest.raises(ValueError):
        build_theorem22({1, 2, 5}, 7)  # i=2 > l=1


def test_bprime_worked_example():
    facets = build_bprime({2, 3, 6}, 8)  # corank set {1,4,5}
    assert len(facets) == 2
    assert facets[0].positions == (7, 4, 5, 6, 3, 1, 2)
    for f in facets:
        assert sorted(descent_set(f).ranks) == [1, 4, 5]
    assert facets[0].chain_type() != facets[1].chain_type()


def test_bprime_initial_segments_single():
    for n in range(3, 8):
        for i in range(0, n - 1):
            s = set(range(1, i + 1))
            facets = build_bprime(s, n)
            assert len(facets) == 1
            assert b_prime(n, s) == 1


def test_bprime_exhaustive_small():
    for n in range(3, 8):
        for size in range(0, n - 1):
            for s in itertools.combinations(range(1, n - 1), size):
                facets = build_bprime(set(s), n)
                dual = frozenset(n - 1 - r for r in s)
                for f in facets:
                    assert f.descent_dual_set() == dual
                initial = list(s) == list(range(1, len(s) + 1))
                assert len(facets) == (1 if initial else 2)


def test_bprime_positions_pinned():
    """The positions build_bprime returns for all 2,046 rank sets at
    n = 3..12, digested as repr((n, S, positions of each facet))."""
    digest = hashlib.sha256()
    count = 0
    for n in range(3, 13):
        for size in range(0, n - 1):
            for s in itertools.combinations(range(1, n - 1), size):
                positions = tuple(f.positions for f in build_bprime(set(s), n))
                digest.update(repr((n, s, positions)).encode())
                count += 1
    assert count == 2046
    assert digest.hexdigest() == "c61198667576d183cafb31d45c1303021bbdd133ea516109eaa83db9284b11c9"


def test_builders_consistent_with_counting():
    # a verified facet witnesses positivity whenever 1 is not selected
    for n in range(3, 9):
        for size in range(0, n - 2):
            for s in itertools.combinations(range(2, n - 1), size):
                assert flag_h(n, full_shape(n), set(s)) >= 1
