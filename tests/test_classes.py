"""Whole flag tables by Burnside's lemma over cycle types (``rsl.classes``),
against the pattern count (``core.support_counts``) and against brute
force, neither of which shares its code."""

from collections import Counter
from math import factorial

import pytest

from rsl import classes, core, oracles
from rsl.shapes import Shape

import stirling_transitions


def _cycle_type(perm: dict) -> tuple:
    seen, lengths = set(), []
    for start in perm:
        length = 0
        while start not in seen:
            seen.add(start)
            start = perm[start]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def _permutation(mu: tuple) -> dict:
    """A permutation of {0..|mu|-1} of cycle type mu, its cycles consecutive."""
    perm, start = {}, 0
    for length in mu:
        for i in range(length):
            perm[start + i] = start + (i + 1) % length
        start += length
    return perm


def test_cycle_types_are_the_partitions():
    assert classes.cycle_types(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert [len(classes.cycle_types(n)) for n in range(1, 13)] == [1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]


@pytest.mark.parametrize("parts", [(5,), (4, 2), (3, 2, 1), (2, 2, 2), (1,) * 5, (3, 3)])
def test_class_weights_count_the_young_subgroup(parts):
    """|S_lambda meet C_mu| against the cycle types of every element."""
    shape = Shape(parts)
    want = Counter(_cycle_type(g) for g in oracles.young_subgroup(shape))
    assert classes.class_weights(parts) == dict(want)


@pytest.mark.parametrize("n", range(1, 8))
def test_transitions_count_the_invariant_partitions(n):
    """For g of each cycle type of n points, every set partition that g
    maps to itself, grouped by the cycle type of g on its blocks."""
    chains = classes.FixedChains()
    for mu in classes.cycle_types(n):
        g = _permutation(mu)
        want = Counter()
        for blocks in oracles.set_partitions(range(n)):
            index = {frozenset(b): i for i, b in enumerate(blocks)}
            images = {i: index.get(frozenset(g[x] for x in b)) for b, i in index.items()}
            if None not in images.values():
                want[_cycle_type(images)] += 1
        assert chains.transitions(mu) == dict(want), mu


def test_transitions_are_the_stirling_count():
    """Every cycle type of n <= 12, 271 in all, against multinomial splits
    of the cycles among orbit lengths and Stirling rows."""
    chains = classes.FixedChains()
    for n in range(1, 13):
        for mu in classes.cycle_types(n):
            assert chains.transitions(mu) == stirling_transitions.transitions(mu), mu


def _pattern_count(shape: Shape) -> dict:
    """f of every support by ``core.support_counts`` on the full support."""
    return core.support_counts(shape, tuple(range(1, shape.n - 1)))


@pytest.mark.parametrize("n", range(2, 10))
def test_burnside_is_the_pattern_count(n):
    """Every shape of n <= 9, 95 in all."""
    for parts in classes.cycle_types(n):
        shape = Shape(parts)
        assert classes.orbit_counts(shape) == _pattern_count(shape), parts


def _moebius(d: int) -> int:
    sign, p = 1, 2
    while d > 1:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            sign = -sign
        p += 1
    return sign


def _lie_character(mu: tuple) -> int:
    """chi of Lie_n at cycle type mu: mu(d) (n/d - 1)! d^(n/d - 1) on d^(n/d),
    and 0 elsewhere."""
    d, k = mu[0], len(mu)
    if set(mu) != {d}:
        return 0
    return _moebius(d) * factorial(k - 1) * d ** (k - 1)


@pytest.mark.parametrize("n", range(3, 10))
def test_full_support_character_is_signed_lie(n):
    """By the Hopf trace formula the alternating sum of F_T(mu) over the
    subsets T of the full support is the character of the top homology of
    Pi_n at mu, which is sgn tensor Lie_n (Stanley, JCTA 32, 1982)."""
    chains = classes.FixedChains()
    for mu in classes.cycle_types(n):
        fixed = chains.sums({mu: 1}, n)
        top = n - 2
        alternating = sum((-1) ** (top - bin(mask).count("1")) * f for mask, f in enumerate(fixed))
        assert alternating == (-1) ** (n - len(mu)) * _lie_character(mu), mu


def test_inexact_class_sum_raises(monkeypatch):
    """One transition weight off by one makes a class-weighted sum that
    |S_lambda| does not divide."""
    real = classes.FixedChains.transitions

    def corrupted(self, mu):
        got = real(self, mu)
        if mu == (1,) * 6:
            got[(1, 1)] += 1
        return got

    monkeypatch.setattr(classes.FixedChains, "transitions", corrupted)
    with pytest.raises(ArithmeticError, match="not divisible by"):
        classes.orbit_counts(Shape((6,)))
    with pytest.raises(ValueError, match="n >= 2"):
        classes.orbit_counts(Shape((1,)))


def test_fresh_chains_are_exact_after_corruption(monkeypatch):
    """A corrupted transition lives only in the object that computed it:
    once the patch is undone, a fresh ``FixedChains`` counts exactly."""
    real = classes.FixedChains.transitions

    def corrupted(self, mu):
        got = real(self, mu)
        if mu == (1,) * 6:
            got[(1, 1)] += 1  # the object's own kept table
        return got

    shape = Shape((6,))
    with monkeypatch.context() as patch:
        patch.setattr(classes.FixedChains, "transitions", corrupted)
        with pytest.raises(ArithmeticError, match="not divisible by"):
            classes.orbit_counts(shape)
    assert classes.orbit_counts(shape) == _pattern_count(shape)
