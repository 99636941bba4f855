"""Block orders on contents, and the lengthening condition.

The lengthening condition (LC) B <= B' => B <= BB' is what makes a block
order usable for ordering facets of the quotient complex: it guarantees the
two exchange moves that turn right-to-left or out-of-order refinements into
lexicographically earlier chains.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable

from .shapes import Content, Record, Shape, add_contents, as_shape, checked_shape, content_size, content_word


class BlockOrderDomainError(ValueError):
    """Raised when a comparison is outside the order's domain."""


# The named orders' keys are pure functions of the content, and label keys
# ask for the same few hundred contents many times, so they are cached.
@functools.cache
def _length_lex_key(c: Content) -> tuple:
    return (content_size(c), content_word(c))


class BlockOrder(Record):
    """Total order on realizable block contents.

    ``key`` must map a content to a sortable tuple.  The distinguished
    order never needs to compare two coexisting blocks containing the
    multiplicity-one letter s; ``compare`` enforces that, while ``key`` stays
    total (ties between two s-blocks fall back to length-lex) so that label
    sequences of distinct facets remain comparable.  ``s`` is the 0-based
    letter index of the distinguished order, else None.  Equality and hash
    leave out ``key``.
    """

    __slots__ = ("kind", "key", "s")
    _compared = ("kind", "s")

    def __init__(self, kind: str, key: Callable[[Content], tuple], s: int | None = None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "s", s)

    def compare(self, b1: Content, b2: Content) -> int:
        if self.kind == "distinguished" and b1[self.s] and b2[self.s]:
            raise BlockOrderDomainError(
                "distinguished order cannot compare two blocks containing s"
            )
        k1, k2 = self.key(b1), self.key(b2)
        return -1 if k1 < k2 else (0 if k1 == k2 else 1)

    def __str__(self):
        return self.kind


def length_lex() -> BlockOrder:
    """Smaller size first; ties by lex order of the sorted letter word."""
    return BlockOrder("length-lex", _length_lex_key)


def distinguished(shape) -> BlockOrder:
    """Blocks containing the multiplicity-one letter s come first.

    Requires the last part of the shape to be 1; s is that letter.
    """
    shape = as_shape(shape)
    if shape.parts[-1] != 1:
        raise ValueError("distinguished order needs a shape with last part 1")
    s = shape.k - 1

    @functools.cache
    def key(c: Content) -> tuple:
        return (0 if c[s] else 1,) + _length_lex_key(c)

    return BlockOrder("distinguished", key, s=s)


def reverse_length() -> BlockOrder:
    """Larger size first.  Violates the lengthening condition; kept as the
    standard counterexample."""

    def key(c: Content) -> tuple:
        return (-content_size(c), content_word(c))

    return BlockOrder("reverse-length", key)


def custom(name: str, key: Callable[[Content], tuple]) -> BlockOrder:
    return BlockOrder(name, key)


def default_order(shape) -> BlockOrder:
    return length_lex()


def _realizable_contents(shape: Shape):
    ranges = [range(p + 1) for p in shape.parts]
    for combo in itertools.product(*ranges):
        if any(combo):
            yield combo


def verify_lengthening(order: BlockOrder, n: int, shape) -> bool:
    """Exhaustively check B <= B' => B <= BB' over pairs realizable in shape.

    Realizable means B and B' can coexist as disjoint blocks, i.e. B + B'
    fits under the shape componentwise.  The conclusion compares B against
    its own extension BB', which shares every letter of B, so it uses the
    order's total key rather than ``compare``.
    """
    shape = checked_shape(n, shape)
    contents = list(_realizable_contents(shape))
    for b1 in contents:
        k1 = order.key(b1)
        for b2 in contents:
            both = add_contents(b1, b2)
            if any(x > p for x, p in zip(both, shape.parts)):
                continue
            if k1 <= order.key(b2) and k1 > order.key(both):
                return False
    return True
