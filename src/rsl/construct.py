"""Explicit facet builders for the positivity results.

Two families:

* one peel search (``_search_peel_facet``) builds every facet of the
  one-letter shape: words ending in an ascent (the 1-not-in-S case) and
  the words of S = {1..i, j_1..j_l} with i <= l.  It searches one
  ``bars._Walk`` depth first, each split leaving one or two balls in the
  left child, and cuts a branch as soon as a letter decided by
  ``bars._descent`` disagrees with the word;
* the hook-shape pair: one fill gives each run A^a D of the word, from
  corank 1, the a+1 highest vacant gaps, and the trailing ascents the
  lowest; whenever the word has a D followed by an A (S is not an
  initial segment), rotating the gaps of the first such run one gap
  down gives the second facet.  Both are bar positions that
  ``facet_from_positions`` turns into facets.

Every builder verifies its output against the descent conditions before
returning; a mismatch raises instead of returning a wrong facet.
"""

from __future__ import annotations

import re

from .bars import (
    DescentWord,
    InsertionFacet,
    _descent,
    _splittable,
    _Walk,
    descent_word,
)
from .orders import default_order, distinguished
from .shapes import RankSet, checked_shape, hook_shape
from .vanishing import classify_rank_set

__all__ = [
    "ConstructionError",
    "WordUnsupportedError",
    "build_descending_run",
    "build_word",
    "build_theorem22",
    "build_bprime",
]


class ConstructionError(RuntimeError):
    pass


class WordUnsupportedError(ValueError):
    """The target word ends in a descent; no construction is claimed there."""


def _word_of(word) -> str:
    """The letters of a DescentWord, a string or any iterable of letters."""
    if not isinstance(word, DescentWord):
        word = DescentWord("".join(word))
    return word.letters


def facet_from_positions(n: int, positions, shape=None, order=None) -> InsertionFacet:
    """Rebuild a facet of ``shape`` (default (n)) from bare gap positions.

    Bar t takes the one normalized split of a splittable block whose bar
    falls at the t-th position (``bars._Walk.splits_at``), pushed on one
    walk, whose record the facet keeps; ValueError when no split or more
    than one fits.
    """
    shape = checked_shape(n, n if shape is None else shape)
    positions = tuple(positions)
    if len(positions) != shape.n - 1:
        raise ValueError("a facet of the order complex needs n-1 insertions")
    walk = _Walk(shape, order or default_order(shape))
    for t, p in enumerate(positions, start=1):
        fits = walk.splits_at(p)
        if len(fits) != 1:
            raise ValueError(f"{len(fits)} normalized splits put bar {t} at {p}, not one")
        walk.push(*fits[0])
    return InsertionFacet._walked(shape, walk)


def _verified(facet: InsertionFacet, word: str, what: str) -> InsertionFacet:
    got = str(descent_word(facet))
    if got != word:
        raise ConstructionError(
            f"{what}: built {list(facet.positions)} with word {got}, wanted {word}"
        )
    return facet


# -- one-letter words ---------------------------------------------------------


def _search_peel_facet(word: str) -> InsertionFacet:
    """A facet of the shape (n) achieving ``word`` whose every split leaves
    one or two balls in its left child.

    Depth first on one ``_Walk``: at each step every splittable block (the
    remainder, of three or more balls, and the pair blocks) peeled by one,
    then by two balls, the blocks taken left to right when the word ends
    in an ascent and right to left when it ends in a descent.  After each
    push, ``bars._descent`` reads the letters the push can decide: corank
    t-1, and coranks c-1 and c when it splits the left child of step c
    (the children condition 3 compares).  A decided letter that disagrees
    with ``word`` cuts the branch, so the first leaf is the facet.
    """
    n = len(word) + 2
    shape = checked_shape(n, n)
    walk = _Walk(shape, default_order(shape))
    key = walk.order.key
    wanted = (None, *(ch == "D" for ch in word))  # wanted[r]: is corank r a descent
    leftmost_first = word.endswith("A")

    def agrees(t: int, created: int) -> bool:
        split_left = created and walk.left_split[created - 1] == t
        for r in (t - 1, created - 1, created) if split_left else (t - 1,):
            if r >= 1:
                got = _descent(walk.insertions, walk.splits, walk.left_split, key, r)
                if got is not None and got != wanted[r]:
                    return False
        return True

    def steps(t: int):
        """Push each split of step t that agrees, in turn; pop it on resume."""
        row = walk.rows[-1]
        blocks = list(_splittable(row))
        for idx in blocks if leftmost_first else reversed(blocks):
            ((width,), created, _, _, _) = row[idx]
            for k in (1, 2):
                if 2 * k > width:
                    break
                # push puts the smaller child, of k balls, left
                walk.push(idx, (k,), (width - k,))
                if agrees(t, created):
                    yield True
                walk.pop()

    # one suspended ``steps`` per bar pushed: a loop, not recursion, so the
    # depth is not bounded by the interpreter's recursion limit
    levels = [steps(1)]
    while levels:
        if not next(levels[-1], False):
            levels.pop()  # step exhausted: resuming its parent pops the parent's bar
        elif len(levels) == n - 1:
            return InsertionFacet._walked(shape, walk)
        else:
            levels.append(steps(len(levels) + 1))
    raise ConstructionError(f"no peel facet achieves word {word}")


def build_word(word, n: int = None) -> InsertionFacet:
    """A facet of the one-letter shape achieving the given corank word.

    The word must end in an ascent (equivalently, rank 1 is not selected);
    words ending in a descent raise WordUnsupportedError, which is not a
    claim that no facet exists.
    """
    word = _word_of(word)
    if n is not None and n != len(word) + 2:
        raise ValueError(f"word of length {len(word)} needs n={len(word) + 2}")
    if not word:
        raise ValueError("empty word (n=2) has no proper ranks")
    if word.endswith("D"):
        raise WordUnsupportedError(f"word {word} ends in a descent")
    return _verified(_search_peel_facet(word), word, "build_word")


def build_descending_run(n: int) -> InsertionFacet:
    """The facet achieving D^(n-3) A: pair blocks left to right at even
    gaps, then refined right to left, closing with one ascent."""
    if n < 4:
        raise ValueError("descending run needs n >= 4")
    return build_word("D" * (n - 3) + "A")


def build_theorem22(ranks, n: int) -> InsertionFacet:
    """A facet whose descent set is the corank image of S = {1..i, j_1..j_l},
    requiring i <= l.  The run 1..i is the whole initial run of S, so
    j_1 >= i + 2 always holds."""
    rs = RankSet.primal(n, ranks)
    split = classify_rank_set(rs, n)
    if split.i > split.l:
        raise ValueError(f"needs i <= l, got i={split.i}, l={split.l}")
    word = str(DescentWord.from_dual_set(n, rs.as_dual().ranks))
    if split.i == 0:
        return build_word(word)
    return _verified(_search_peel_facet(word), word, "build_theorem22")


# -- hook shape ------------------------------------------------------------


def _bprime_fill(n: int, word: str) -> list:
    """Each run A^a D of ``word``, read from corank 1, takes the a+1
    highest vacant gaps in ascending order; the trailing ascents take
    gaps 1 up to the last one."""
    fill, top = [], n - 1
    for run in re.findall("A*D", word):
        fill += range(top - len(run) + 1, top + 1)
        top -= len(run)
    return fill + list(range(1, top + 1))


def _bprime_rotate(fill: list, word: str) -> list:
    """The run A^a D ending at the first D followed by an A holds the gaps
    (lo, hi] of the fill; each of them moves one gap down, and the bar at
    gap lo takes hi."""
    k = word.index("DA")
    hi = fill[k]
    lo = hi - (k - word.rfind("D", 0, k))  # hi - a - 1
    return [hi if p == lo else p - 1 if lo < p <= hi else p for p in fill]


def build_bprime(ranks, n: int) -> tuple:
    """Facets of the hook-shape quotient achieving the corank image of S.

    Returns one facet when S is an initial segment 1..i (where the
    multiplicity is exactly one) and two distinct verified facets
    otherwise: the fill (``_bprime_fill``), and its rotation at the first
    D followed by an A (``_bprime_rotate``), which exists exactly when S
    is not an initial segment.
    """
    rs = RankSet.primal(n, ranks)
    word = str(DescentWord.from_dual_set(n, rs.as_dual().ranks))
    shape = hook_shape(n)
    order = distinguished(shape)
    fill = _bprime_fill(n, word)
    greedy = _verified(facet_from_positions(n, fill, shape, order), word, "build_bprime")
    if "DA" not in word:  # the word is A^a D^d: S is the initial segment 1..d
        return (greedy,)
    alt = _verified(
        facet_from_positions(n, _bprime_rotate(fill, word), shape, order),
        word,
        "build_bprime alternative",
    )
    if alt.chain_type() == greedy.chain_type():  # pragma: no cover - distinctness guard
        raise ConstructionError("alternative facet coincides with the greedy one")
    return (greedy, alt)
