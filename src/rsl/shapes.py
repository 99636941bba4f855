"""Composition shapes, block contents and rank sets.

A shape (n), for the full symmetric group, makes every block content a bare
size.  A general shape lam = (lam_1 >= ... >= lam_k) partitions the ground
multiset {1^lam_1, ..., k^lam_k}; block contents are then count vectors of
length k.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterable, Iterator

Content = tuple  # count vector, one entry per letter


class MalformedChainError(ValueError):
    pass


def _integer(value, what: str) -> int:
    """``value`` as an int; ValueError for a float, a string or anything
    else that is not an integer, where ``int()`` would round or parse it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} {value!r} is not an integer") from None


class Record:
    """A frozen record: a slotted class whose fields are its ``__slots__``,
    each set once, by its ``__init__``, with ``object.__setattr__``.
    Assigning or deleting a field raises AttributeError.  Equality, hash
    and repr read the fields in order, and records of two classes are never
    equal.  A class may name in ``_compared`` the fields that equality and
    hash read (all of them by default).  ``__init__`` takes the fields in
    order."""

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        names = cls.__dict__.get("_compared", cls.__slots__)
        get = operator.attrgetter(*names)
        # the compared values as one tuple, even for one field
        cls._values = property(get if len(names) > 1 else lambda record: (get(record),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild a record through its __init__
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)


class Shape(Record):
    """Weakly decreasing positive parts; quotient group is the Young subgroup."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(_integer(p, "shape part") for p in parts)
        object.__setattr__(self, "parts", parts)
        if not parts:
            raise ValueError("shape needs at least one part")
        if any(p <= 0 for p in parts):
            raise ValueError("shape parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("shape parts must be weakly decreasing")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def k(self) -> int:
        return len(self.parts)

    @property
    def root_content(self) -> Content:
        return tuple(self.parts)

    def is_full(self) -> bool:
        return len(self.parts) == 1

    def letter_of(self, element: int) -> int:
        """0-based letter index of ground element (1-based)."""
        if not 1 <= element <= self.n:
            raise ValueError(f"element {element} out of range 1..{self.n}")
        acc = 0
        for i, p in enumerate(self.parts):
            acc += p
            if element <= acc:
                return i
        raise AssertionError

    def __str__(self):
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def as_shape(shape) -> Shape:
    if isinstance(shape, Shape):
        return shape
    if isinstance(shape, int):
        return Shape((shape,))
    return Shape(tuple(shape))


def checked_shape(n: int, shape) -> Shape:
    """``as_shape(shape)``, which must be a shape of n."""
    n = _integer(n, "n")
    shape = as_shape(shape)
    if shape.n != n:
        raise ValueError(f"shape {shape} does not sum to n={n}")
    return shape


def full_shape(n: int) -> Shape:
    return Shape((_integer(n, "n"),))


def hook_shape(n: int) -> Shape:
    """The (n-1,1) shape used for the S_{n-1} x S_1 quotient."""
    n = _integer(n, "n")
    if n < 2:
        raise ValueError("hook shape needs n >= 2")
    return Shape((n - 1, 1))


def content_size(c: Content) -> int:
    return sum(c)


def content_word(c: Content) -> tuple:
    """Letters of the block in increasing order (0-based letters)."""
    out = []
    for letter, count in enumerate(c):
        out.extend([letter] * count)
    return tuple(out)


def add_contents(a: Content, b: Content) -> Content:
    return tuple(x + y for x, y in zip(a, b))


def sub_contents(a: Content, b: Content) -> Content:
    out = tuple(x - y for x, y in zip(a, b))
    if any(x < 0 for x in out):
        raise ValueError("content subtraction went negative")
    return out


def unit_contents(c: Content) -> list:
    """The singleton contents of a block, one per element, letters ascending."""
    k = len(c)
    out = []
    for letter, count in enumerate(c):
        unit = tuple(1 if i == letter else 0 for i in range(k))
        out.extend([unit] * count)
    return out


def sub_contents_iter(c: Content) -> Iterator[Content]:
    """All nonzero proper sub-contents of c."""
    ranges = [range(x + 1) for x in c]
    for combo in itertools.product(*ranges):
        if any(combo) and combo != c:
            yield combo


def bipartitions(c: Content) -> Iterator[tuple]:
    """Unordered splits of a block content into two nonempty parts.

    Each pair is emitted once, with the lexicographically smaller part first.
    """
    for a in sub_contents_iter(c):
        b = sub_contents(c, a)
        if a <= b:
            yield (a, b)


def multiset_partitions(c: Content, num_parts: int) -> Iterator[tuple]:
    """Partitions of content c into exactly num_parts nonempty parts.

    Parts are emitted as a weakly decreasing tuple (no permuted duplicates),
    and the partitions in increasing lexicographic order, which
    ``core._coarsenings`` relies on to catch a repeat.  They are chosen on
    an explicit stack, one frame per part, so the recursion limit does not
    bound num_parts.
    """
    size = content_size(c)
    if num_parts < 1 or num_parts > size:
        return
    if num_parts == 1:
        yield (c,)
        return

    chosen = []  # the parts above the top frame, largest first
    # a frame: what is left to split, its size, the largest part allowed, its
    # first letter (a part without it lies below the part holding it), and
    # the candidate parts not yet tried
    first = next(i for i, x in enumerate(c) if x)
    stack = [(c, size, c, first, sub_contents_iter(c))]
    while stack:
        remaining, rem_size, max_part, first, options = stack[-1]
        parts_left = num_parts - len(stack)  # after the next part
        for part in options:
            if part > max_part or not part[first]:
                continue
            part_size = content_size(part)
            if rem_size - part_size < parts_left:  # each later part has size >= 1
                continue
            rest = sub_contents(remaining, part)
            if parts_left == 1:
                if rest <= part:
                    yield (*chosen, part, rest)
                continue
            chosen.append(part)
            first = next(i for i, x in enumerate(rest) if x)
            stack.append((rest, rem_size - part_size, part, first, sub_contents_iter(rest)))
            break
        else:
            stack.pop()
            if chosen:
                chosen.pop()


class RankSet(Record):
    """A set of proper ranks of the partition lattice on n elements.

    Ranks live in [1, n-2].  ``dual=False`` means ranks of the lattice itself
    (rank = n - number of blocks); ``dual=True`` means coranks.
    """

    __slots__ = ("n", "ranks", "dual")

    def __init__(self, n: int, ranks: frozenset, dual: bool = False):
        object.__setattr__(self, "n", _integer(n, "n"))
        object.__setattr__(self, "ranks", frozenset(_integer(r, "rank") for r in ranks))
        object.__setattr__(self, "dual", dual)
        if self.n < 2:
            raise ValueError("need n >= 2")
        bad = [r for r in self.ranks if not 1 <= r <= self.n - 2]
        if bad:
            raise ValueError(f"ranks {sorted(bad)} outside [1, {self.n - 2}]")

    @classmethod
    def primal(cls, n: int, ranks: Iterable) -> "RankSet":
        """The lattice-rank view of a rank argument for n: a RankSet in
        either basis, or an iterable of lattice ranks.  Every function that
        takes ranks reads them here."""
        if isinstance(ranks, RankSet):
            return ranks._for(n).as_primal()
        return cls(n, frozenset(ranks), dual=False)

    @classmethod
    def of_dual(cls, n: int, ranks: Iterable) -> "RankSet":
        """The corank view: a RankSet in either basis, or an iterable of
        coranks."""
        if isinstance(ranks, RankSet):
            return ranks._for(n).as_dual()
        return cls(n, frozenset(ranks), dual=True)

    @classmethod
    def primal_at_either(cls, n: int, m: int, ranks: Iterable) -> "RankSet":
        """``primal`` for an argument that holds at two sizes: a RankSet is
        read at its own size, which must be n or m; an iterable of lattice
        ranks at min(n, m)."""
        own = ranks.n if isinstance(ranks, RankSet) else None
        return cls.primal(own if own in (n, m) else min(n, m), ranks)

    def _for(self, n: int) -> "RankSet":
        if self.n != n:
            raise ValueError(f"rank set {self} is for n={self.n}, not n={n}")
        return self

    def sorted(self) -> tuple:
        return tuple(sorted(self.ranks))

    def dualize(self) -> "RankSet":
        return RankSet(self.n, frozenset(self.n - 1 - r for r in self.ranks), not self.dual)

    def as_primal(self) -> "RankSet":
        return self.dualize() if self.dual else self

    def as_dual(self) -> "RankSet":
        return self if self.dual else self.dualize()

    def __contains__(self, r) -> bool:
        return r in self.ranks

    def __len__(self) -> int:
        return len(self.ranks)

    def __iter__(self):
        return iter(self.sorted())

    def __str__(self):
        basis = "*" if self.dual else ""
        return "{" + ",".join(str(r) for r in self.sorted()) + "}" + basis


def dualize(s: RankSet) -> RankSet:
    """Swap between rank sets of the lattice and its order dual."""
    return s.dualize()
