"""Bar-insertion diagrams for orbits of saturated chains.

A facet of the quotient complex is drawn as a row of n balls refined by
n-1 bar insertions, the t-th at corank t.  Two conventions make each orbit
appear once: when a block splits, the child that is smaller in the active
block order goes left (ties broken by content), and of two equal blocks
created together the left one is refined first.  Both live in one
bar-insertion step, ``_Walk.push``: it splits a block its caller chose
from ``_splittable`` into two contents, orients them (``_oriented``), and
records and returns the normalized insertion.  Every facet builder steps
on a ``_Walk`` and its facets keep a copy of the walk's record
(``InsertionFacet._walked``).  The facet walk
(``enumerate_insertion_facets``) takes the step once per edge and undoes it
on backtrack; ``construct.facet_from_positions`` pushes the one split a
walk offers at each position (``_Walk.splits_at``) for the hook-shape
builders; the peel search of ``construct``, which builds every facet of
the one-letter shape for a word, pushes and pops the splits its word
allows; ``min_extension``
pushes the splits with the least label key that its face allows.  Only the
public ``InsertionFacet`` constructor checks proposed insertions, against
the ones the step makes at their gaps (``_block_at``).  The step itself
checks, on every push, that the block is not an unsplit right twin.  Once
per walk for each distinct split (content, a, b), it checks that the
children are non-empty, non-negative and sum to the block, and orients
them; the walk keeps the result in its memo (``_Walk.oriented``), so a
walk's later pushes of that split reuse it.

Covering relation t carries a label: (position, word-of-positions, r) for
the one-letter shape, and (bars-to-the-left, left-child word, prefix word,
r) in general, where r is the corank at which the split block was created.
Lexicographic comparison of label sequences orders the facets.  The labels
(``CoverLabel``, ``cover_labels``) are the definition; the sort keys come
from ``_label_key``, which reads the same data without building a label:
``InsertionFacet.sort_key`` from a facet's record, and the facet walk and
``min_extension`` from a walk's row as they push each step.  The facet
walk computes each step's key once per edge, so its facets reach
``partitioning.order_facets`` already keyed (``InsertionFacet._walk_key``);
``sort_key`` stays the definition their keys must equal.

The walk and the labels serve the interval partitioning; flag tables
build their faces bottom-up in ``core`` instead.  A facet's
canonical forest is assembled bottom-up from its row history straight into
a ``ForestStore`` (``facet_root_ids``, sharing the levels that facets
have in common); a nested ``ChainType`` is built from those ids only when
one is asked for.

Corank t is a topological descent of a facet when any of:
  1. insertion t lands strictly right of insertion t+1;
  2. t+1 splits the right child of t and t's left child is strictly larger
     (in the block order) than t+1's;
  3. t+1 splits the right child of t, both left children have size two, and
     the latter is refined before the former.
The conditions are evaluated in one place, ``_descent``, which reads a
facet's record (``InsertionFacet.descent_dual_set``) or a walk in progress
(the peel search of ``construct``); on a walk, condition 3 stays open until
one of the two left children it compares is split.
"""

from __future__ import annotations

from .core import ChainType
from .kernel import ForestStore
from .orders import BlockOrder, default_order
from .shapes import (
    Content,
    RankSet,
    Record,
    add_contents,
    as_shape,
    bipartitions,
    checked_shape,
    content_size,
    multiset_partitions,
    unit_contents,
)

__all__ = [
    "BarInsertion",
    "CoverLabel",
    "DescentWord",
    "InsertionFacet",
    "enumerate_insertion_facets",
    "facet_root_ids",
    "facet_to_insertions",
    "cover_labels",
    "descent_set",
    "descent_word",
    "min_extension",
    "block_conditions",
]


class NotMaximalError(ValueError):
    pass


class ExtensionTieError(RuntimeError):
    """Two distinct facets produced identical label sequences."""


class BarInsertion(Record):
    """A bar at ball gap ``position`` (1..n-1) that splits a block into
    ``left`` and ``right``; ``parent_rank`` is the corank at which the split
    block was created (0 = root)."""

    __slots__ = ("position", "left", "right", "parent_rank")

    def __init__(self, position: int, left: Content, right: Content, parent_rank: int):
        # one statement per field: facet walks build one insertion per step
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "parent_rank", parent_rank)


class CoverLabel(Record):
    """The label of covering relation t: ``w`` holds the sorted bar
    positions present after the step, ``w_b`` the word of the block left of
    the new bar (the left child), and ``prefix`` the contents of all blocks
    left of the new bar, left child last."""

    __slots__ = ("position", "bars_left", "w", "w_b", "prefix", "r")

    def __init__(self, position: int, bars_left: int, w: tuple, w_b: Content, prefix: tuple, r: int):
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "bars_left", bars_left)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "w_b", w_b)
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "r", r)


class DescentWord(Record):
    __slots__ = ("letters",)

    def __init__(self, letters: str):
        if any(ch not in "AD" for ch in letters):
            raise ValueError(f"descent word must be over {{A, D}}, not {letters!r}")
        object.__setattr__(self, "letters", letters)

    @classmethod
    def from_dual_set(cls, n: int, dual_ranks) -> "DescentWord":
        dual_ranks = set(dual_ranks)
        return cls("".join("D" if p in dual_ranks else "A" for p in range(1, n - 1)))

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        return self.letters


def _cover_label(earlier, position: int, left: Content, prefix: tuple, r: int) -> CoverLabel:
    """The label of a bar at ``position`` that splits off ``left`` to the
    right of the blocks ``prefix``, after the bars at ``earlier``."""
    return CoverLabel(
        position=position,
        bars_left=sum(1 for p in earlier if p < position),
        w=tuple(sorted((*earlier, position))),
        w_b=left,
        prefix=prefix + (left,),
        r=r,
    )


def _label_key(earlier, position: int, left: Content, prefix: tuple, r: int, order: BlockOrder):
    """The sort key of ``_cover_label(earlier, position, left, prefix, r)``,
    built without the label: (position, w, r) for one-letter contents (the
    shape (n)), else (bars_left, key of w_b, keys of the prefix, r)."""
    if len(left) == 1:
        return (position, tuple(sorted((*earlier, position))), r)
    key = order.key
    left_key = key(left)
    return (
        sum(1 for p in earlier if p < position),
        left_key,
        (*map(key, prefix), left_key),
        r,
    )


class _Steps(Record):
    """What the bar-insertion steps of a facet leave: the contents of the
    final, fully refined ``row``, and per insertion t, as entry t-1 of each
    tuple, the (row index, content) of the block it ``splits``, the
    contents of the blocks left of that block (``prefixes``), and the step
    at which its left child is split (``left_split``).  Every view of the
    facet (labels, sort key, forest, descents, diagram) reads it."""

    __slots__ = ("row", "splits", "prefixes", "left_split")

    def __init__(self, row: tuple, splits: tuple, prefixes: tuple, left_split: tuple):
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "splits", splits)
        object.__setattr__(self, "prefixes", prefixes)
        object.__setattr__(self, "left_split", left_split)


# -- the one bar-insertion step ----------------------------------------------------
#
# A row is a list of blocks (content, step that created it, twin id, balls left
# of it, balls in it); the twin id is the creating step when the two children
# are equal, else None.


def _splittable(row):
    """Row index of each block the next bar may split: one of at least two
    balls that is not the right one of two equal unsplit twins (the left
    twin is refined first).  A bar in a block with ``start`` balls left of
    it and ``w`` balls falls at gap start+1 to start+w-1."""
    prev = None
    for idx, (_, _, gid, _, size) in enumerate(row):
        if size > 1 and (gid is None or gid != prev):
            yield idx
        prev = gid


def _block_at(row, position: int) -> int | None:
    """Row index of the splittable block whose gaps hold ``position``, or
    None: the lookup for builders that start from a bar's position."""
    for idx in _splittable(row):
        _, _, _, start, size = row[idx]
        if start < position < start + size:
            return idx
    return None


def _oriented(order: BlockOrder, a: Content, b: Content) -> tuple:
    """(left, right) children of a split into a and b: the smaller child
    under (order key, content) goes left."""
    return (a, b) if (order.key(a), a) <= (order.key(b), b) else (b, a)


def _split_row(row, idx: int, left: Content, right: Content, size: int, t: int) -> list:
    """``row`` with block ``idx`` replaced by the children of insertion t,
    the left one of ``size`` balls."""
    _, _, _, start, whole = row[idx]
    gid = t if left == right else None
    children = [(left, t, gid, start, size), (right, t, gid, start + size, whole - size)]
    return row[:idx] + children + row[idx + 1 :]


def _descent(insertions, splits, left_split, key, t: int) -> bool | None:
    """Whether corank t is a topological descent, read from the record of
    a facet or of a walk past step t+1: the three conditions of the module
    docstring.  None while condition 3 is open, that is while both size-two
    left children it compares are still unsplit."""
    ins_t, ins_u = insertions[t - 1], insertions[t]
    if ins_t.position > ins_u.position:
        return True
    if splits[t][0] != splits[t - 1][0] + 1:  # t+1 does not split t's right child
        return False
    if key(ins_t.left) > key(ins_u.left):
        return True
    # equal contents are required: only interchangeable blocks admit the
    # order-swapping exchange behind condition 3
    if ins_t.left != ins_u.left or content_size(ins_t.left) != 2:
        return False
    later, earlier = left_split[t], left_split[t - 1]
    if later is None:
        return None if earlier is None else False
    return earlier is None or later < earlier


class _Walk:
    """A row refined by bar insertions, one step at a time.

    ``push`` is the one bar-insertion step: it splits the block its caller
    chose into two contents, orients them, and records and returns the
    normalized insertion.  It checks only what needs no scan of the row.
    On every step: the block is not an unsplit right twin.  Once per walk
    for each distinct split (content, a, b): the children are non-empty,
    non-negative and sum to the block, and their orientation
    (``_oriented``); the walk's memo ``oriented`` keeps (left, right, size
    of left) for each split it has checked, so the 4,340 edges of the
    facet walk of (9) check and orient its 20 distinct splits once each.
    A malformed split is never memoized, so it raises on every push.  The
    memo lives and dies with the walk and its forks, never the process.
    ``pop`` undoes the last step, so the facet walk backtracks on a single
    walk; ``fork`` copies a walk whose next step branches; ``record``
    copies the record of a finished facet.  ``splits_at`` lists the splits
    the next step could make at one gap, for builders that choose bars by
    position.
    """

    __slots__ = ("order", "oriented", "rows", "contents", "insertions", "splits", "prefixes", "left_split")

    def __init__(self, shape, order: BlockOrder):
        self.order = order
        self.oriented = {}  # (content, a, b) -> (left, right, size of left), checked splits
        self.rows = [[(shape.root_content, 0, None, 0, shape.n)]]  # rows[t]: the row after t steps
        self.contents = [(shape.root_content,)]  # contents[t]: the block contents of rows[t]
        self.insertions = []
        self.splits = []
        self.prefixes = []
        self.left_split = [None] * (shape.n - 1)

    def push(self, idx: int, a: Content, b: Content) -> BarInsertion:
        row = self.rows[-1]
        t = len(self.insertions) + 1
        content, created, gid, start, _ = row[idx]
        if idx and gid is not None and row[idx - 1][2] == gid:
            raise ValueError(f"insertion {t} splits a right twin before its left twin")
        split = self.oriented.get((content, a, b))
        if split is None:
            sums = len(a) == len(b) and add_contents(a, b) == content  # zip alone drops extra letters
            if not sums or min(a + b) < 0 or not any(a) or not any(b):
                raise ValueError(f"insertion {t} children do not sum to the block")
            left, right = _oriented(self.order, a, b)
            split = self.oriented[content, a, b] = (left, right, content_size(left))
        left, right, size = split
        ins = BarInsertion(start + size, left, right, created)
        if created and start != self.insertions[created - 1].position:
            self.left_split[created - 1] = t  # a right child starts at its parent's bar
        self.insertions.append(ins)
        self.splits.append((idx, content))
        contents = self.contents[-1]
        prefix = contents[:idx]
        self.prefixes.append(prefix)
        self.contents.append(prefix + (left, right) + contents[idx + 1 :])
        self.rows.append(_split_row(row, idx, left, right, size, t))
        return ins

    def splits_at(self, position: int) -> list:
        """(row index, left, right) of each normalized split whose bar falls
        at ``position``: the oriented splits, at that gap, of the
        splittable block holding it."""
        row = self.rows[-1]
        idx = _block_at(row, position)
        if idx is None:
            return []
        content, _, _, start, _ = row[idx]
        return [
            (idx, left, right)
            for left, right in (_oriented(self.order, a, b) for a, b in bipartitions(content))
            if start + content_size(left) == position
        ]

    def pop(self) -> None:
        t = len(self.insertions)
        self.insertions.pop()
        self.prefixes.pop()
        self.contents.pop()
        self.rows.pop()
        idx, _ = self.splits.pop()
        created = self.rows[-1][idx][1]
        if created and self.left_split[created - 1] == t:
            self.left_split[created - 1] = None

    def fork(self) -> "_Walk":
        """A second walk with this one's steps, to push a different next step."""
        twin = _Walk.__new__(_Walk)
        twin.order = self.order
        twin.oriented = self.oriented  # a fork checks no split its walk has checked
        for name in ("rows", "contents", "insertions", "splits", "prefixes", "left_split"):
            setattr(twin, name, getattr(self, name)[:])  # a push adds a new row, changes none
        return twin

    def record(self) -> _Steps:
        return _Steps(
            self.contents[-1],
            tuple(self.splits),
            tuple(self.prefixes),
            tuple(self.left_split),
        )


class InsertionFacet:
    """A maximal chain orbit as a normalized bar-insertion sequence.

    The constructor, for callers outside this package, replays the
    insertions from the root: each one must be the insertion the
    bar-insertion step makes in the block at its gap, else ValueError.
    Every builder in the package (the facet walk,
    ``construct.facet_from_positions``, the peel search and
    ``min_extension``) uses ``_walked`` instead: its walk made every
    insertion, so each facet takes a copy of the walk's record and is not
    replayed.
    """

    __slots__ = ("shape", "order", "insertions", "_record", "_chain", "_descents", "_walk_key")

    def __init__(self, shape, order: BlockOrder, insertions):
        shape = as_shape(shape)
        insertions = tuple(insertions)
        if len(insertions) != shape.n - 1:
            raise ValueError("a facet of the order complex needs n-1 insertions")
        walk = _Walk(shape, order)
        for t, ins in enumerate(insertions, start=1):
            idx = _block_at(walk.rows[-1], ins.position)
            if idx is None:
                raise ValueError(f"insertion {t} at {ins.position} hits no splittable gap")
            made = walk.push(idx, ins.left, ins.right)
            if ins != made:
                raise ValueError(f"insertion {t} is {ins}, not the normalized split {made}")
        self._adopt(shape, walk)

    @classmethod
    def _walked(cls, shape, walk: _Walk, walk_key: tuple | None = None) -> "InsertionFacet":
        """The facet a walk of n-1 steps has built, from a copy of its
        record; the facet walk passes the label keys of its steps."""
        self = cls.__new__(cls)
        self._adopt(shape, walk)
        self._walk_key = walk_key
        return self

    def _adopt(self, shape, walk: _Walk) -> None:
        self.shape = shape
        self.order = walk.order
        self.insertions = tuple(walk.insertions)
        self._record = walk.record()
        self._chain = None
        self._descents = None
        self._walk_key = None

    @property
    def n(self) -> int:
        return self.shape.n

    @property
    def positions(self) -> tuple:
        return tuple(ins.position for ins in self.insertions)

    def __eq__(self, other):
        return (
            isinstance(other, InsertionFacet)
            and self.shape == other.shape
            and self.order == other.order
            and self.insertions == other.insertions
        )

    def __hash__(self):
        return hash((self.shape, self.order, self.insertions))

    def __repr__(self):
        return f"InsertionFacet({self.shape}, {self.order}, positions={list(self.positions)})"

    def root_ids(self, store: ForestStore) -> tuple:
        """The facet's canonical forest interned in ``store``: sorted root ids."""
        return facet_root_ids(store, [self])[0]

    def chain_type(self) -> ChainType:
        if self._chain is None:
            store = ForestStore()
            roots = store.nested_roots(self.root_ids(store))
            self._chain = ChainType(self.shape, tuple(range(1, self.n - 1)), roots)
        return self._chain

    def labels(self) -> tuple:
        positions = self.positions
        return tuple(
            _cover_label(positions[:t], ins.position, ins.left, prefix, ins.parent_rank)
            for t, (ins, prefix) in enumerate(zip(self.insertions, self._record.prefixes))
        )

    def sort_key(self):
        """The facet's label sequence as sort keys, read from the record."""
        positions, order = self.positions, self.order
        return tuple(
            _label_key(positions[:t], ins.position, ins.left, prefix, ins.parent_rank, order)
            for t, (ins, prefix) in enumerate(zip(self.insertions, self._record.prefixes))
        )

    # -- descents --------------------------------------------------------------

    def descent_dual_set(self) -> frozenset:
        if self._descents is None:
            insertions, key = self.insertions, self.order.key
            splits, left_split = self._record.splits, self._record.left_split
            self._descents = frozenset(
                [t for t in range(1, self.n - 1) if _descent(insertions, splits, left_split, key, t)]
            )
        return self._descents

    def render(self) -> str:
        """ASCII diagram: balls with each bar annotated by its corank."""
        rank_of_pos = {ins.position: t for t, ins in enumerate(self.insertions, start=1)}
        if self.shape.is_full():
            letters = ["o"] * self.n
        elif self.shape.k > 26:
            raise ValueError(f"render names at most 26 letters, not {self.shape.k}")
        else:
            from string import ascii_lowercase  # here, so importing rsl does not import it
            letters = [ascii_lowercase[content.index(1)] for content in self._record.row]
        out = []
        for i, ch in enumerate(letters, start=1):
            out.append(ch)
            if i < self.n:
                out.append(f"|{rank_of_pos[i]}")
        return "".join(out)


# -- enumeration ----------------------------------------------------------------


def facet_root_ids(store: ForestStore, facets) -> list:
    """Each facet's canonical forest, interned bottom-up from its row
    history: its sorted root ids in ``store``, in the order of ``facets``.

    Undoing the last insertion gives the finest level, whose blocks are
    leaves.  Going up one level, an unsplit block becomes a node with its
    one child and the block split at that step a node with the sorted pair.
    A level's node ids fix the merged block's content, so one memo per call,
    from (level ids, split index) to the next level's (content ids, ids),
    answers the levels that facets share (the leaves are keyed by the final
    row).  A miss interns its level in row order, so nodes are created in
    the order one call per facet would create them: 10,649 ``store.node``
    calls on the 1,385 facets of (9), against 48,475.
    """
    cid = store.content_id
    node = store.node
    memo = {}  # (level ids or final row, split index) -> (content ids, ids) one level up
    out = []
    for facet in facets:
        row, splits = facet._record.row, facet._record.splits
        if len(splits) < 2:
            out.append(())
            continue
        idx, content = splits[-1]
        level = memo.get((row, idx))
        if level is None:
            cids = [cid(c) for c in row]
            cids[idx : idx + 2] = [cid(content)]
            level = memo[row, idx] = (tuple(cids), tuple([node(c, ()) for c in cids]))
        cids, ids = level
        for idx, content in reversed(splits[1:-1]):
            above = memo.get((ids, idx))
            if above is None:
                a, b = ids[idx], ids[idx + 1]
                merged = cid(content)
                up = [node(c, (i,)) for c, i in zip(cids[:idx], ids[:idx])]
                up.append(node(merged, (a, b) if a <= b else (b, a)))
                up += [node(c, (i,)) for c, i in zip(cids[idx + 2 :], ids[idx + 2 :])]
                above = memo[ids, idx] = (cids[:idx] + (merged,) + cids[idx + 2 :], tuple(up))
            cids, ids = above
        out.append(tuple(sorted(ids)))
    return out


def enumerate_insertion_facets(n: int, shape, order: BlockOrder | None = None):
    """All normalized facets as InsertionFacets, one per orbit, depth first
    over every splittable block and every split of it, oriented.

    Each edge of the walk is one bar-insertion step (``_Walk.push``),
    undone on backtrack; each leaf's facet takes a copy of the walk's
    record, so no facet is replayed and facets share the walk's prefix
    tuples.  Each edge also computes its step's label key once, and each
    leaf's facet keeps the tuple of its keys (``_walk_key``, equal to its
    ``sort_key``), which ``partitioning.order_facets`` sorts by.  A block
    content is split many times over, so each walk keeps two per-walk
    memos, gone when the walk ends: ``halves``, content -> its
    bipartitions, and the step's ``oriented``, which checks and orients
    each split once.
    """
    shape = checked_shape(n, shape)
    order = default_order(shape) if order is None else order
    results = []
    walk = _Walk(shape, order)
    halves = {}
    positions = []  # the bars of the steps so far
    keys = []  # their label keys

    def rec(t):
        if t == n:
            results.append(InsertionFacet._walked(shape, walk, tuple(keys)))
            return
        row = walk.rows[-1]
        for idx in _splittable(row):
            content = row[idx][0]
            pairs = halves.get(content)
            if pairs is None:
                pairs = halves[content] = tuple(bipartitions(content))
            for a, b in pairs:
                ins = walk.push(idx, a, b)
                keys.append(
                    _label_key(positions, ins.position, ins.left, walk.prefixes[-1], ins.parent_rank, order)
                )
                positions.append(ins.position)
                rec(t + 1)
                positions.pop()
                keys.pop()
                walk.pop()

    rec(1)
    return results


# -- the lex-least extension -----------------------------------------------------


def _target_bipartitions(targets):
    """Unordered splits of a target multiset into two nonempty parts, each
    sorted, the smaller part first."""
    distinct = sorted(set(targets))
    counts = tuple(targets.count(tgt) for tgt in distinct)
    for groups in multiset_partitions(counts, 2):
        t1, t2 = (tuple(d for d, m in zip(distinct, g) for _ in range(m)) for g in groups)
        yield (t1, t2) if t1 <= t2 else (t2, t1)


def min_extension(c: ChainType, order: BlockOrder | None = None) -> InsertionFacet:
    """Lexicographically least facet containing the face, under the label order.

    A greedy search over coranks on ``_Walk``s.  Each walk carries target
    rows: for each block, the face's subtrees it must still split into.
    Every step pushes the least-keyed splits of those targets over the
    ``_splittable`` blocks; tied placements of equal children stay rows of
    one walk, and a walk forks only when distinct insertions tie.  More
    than one walk at the end raises ``ExtensionTieError``.
    """
    shape = c.shape
    order = default_order(shape) if order is None else order

    balls = {}  # content -> its balls, the targets below the face's last level

    def below(node):  # the targets of a block anchored at a node of the face
        content, kids = node
        if kids:
            return kids
        if content not in balls:
            balls[content] = tuple((u, ()) for u in unit_contents(content))
        return balls[content]

    support = set(c.dual_levels)
    branches = [(_Walk(shape, order), [(below((shape.root_content, c.roots)),)])]
    for t in range(1, shape.n):
        best, chosen = None, []
        for walk, target_rows in branches:
            row = walk.rows[-1]
            earlier = [ins.position for ins in walk.insertions]
            blocks = list(_splittable(row))
            for targets in target_rows:
                for idx in blocks:
                    if len(targets[idx]) < 2:
                        continue
                    content, created, _, start, _ = row[idx]
                    prefix = tuple(b[0] for b in row[:idx])
                    for t1, t2 in _target_bipartitions(targets[idx]):
                        s1 = tuple(map(sum, zip(*[tgt[0] for tgt in t1])))
                        s2 = tuple(map(int.__sub__, content, s1))
                        left, right = _oriented(order, s1, s2)
                        position = start + content_size(left)
                        key = _label_key(earlier, position, left, prefix, created, order)
                        if best is None or key < best:
                            best, chosen = key, []
                        if key == best:
                            if left != right:
                                placed = [(t1, t2) if left == s1 else (t2, t1)]
                            else:  # equal contents: either subtree may go left
                                placed = [(t1, t2), (t2, t1)]
                            chosen += [
                                (walk, (idx, left, right), targets[:idx] + p + targets[idx + 1 :])
                                for p in placed
                            ]
        if not chosen:
            raise AssertionError("extension search stalled")
        moves = {}  # walk -> {(row index, left, right): {target row: None}}
        for walk, split, targets in chosen:
            if t in support:
                targets = tuple(below(node) for (node,) in targets)
            moves.setdefault(walk, {}).setdefault(split, {})[targets] = None
        branches = []
        for walk, by_split in moves.items():
            walks = [walk] + [walk.fork() for _ in range(len(by_split) - 1)]
            for w, (split, target_rows) in zip(walks, by_split.items()):
                w.push(*split)
                branches.append((w, list(target_rows)))

    if len(branches) != 1:
        raise ExtensionTieError(
            "distinct facets share a full label sequence; orbit uniqueness violated"
        )
    return InsertionFacet._walked(shape, branches[0][0])


def facet_to_insertions(c: ChainType, order: BlockOrder | None = None) -> InsertionFacet:
    """The normalized insertion sequence of a maximal chain orbit."""
    if not c.is_maximal():
        raise NotMaximalError(f"chain with support {c.support} is not maximal")
    return min_extension(c, order)


# -- public wrappers ---------------------------------------------------------------


def cover_labels(f: InsertionFacet) -> tuple:
    return f.labels()


def descent_set(f: InsertionFacet) -> RankSet:
    """Topological descents, as a corank set."""
    return RankSet.of_dual(f.n, f.descent_dual_set())


def descent_word(f: InsertionFacet) -> DescentWord:
    return DescentWord.from_dual_set(f.n, f.descent_dual_set())


def facet_block_conditions(facet: InsertionFacet) -> tuple:
    """(non-equal, nontrivial non-equal) for a facet itself: no equal blocks
    created from one parent in a single step or in consecutive steps, of
    size >= 2 (strict) resp. >= 3 (relaxed)."""
    splits = facet._record.splits
    worst = 0  # largest size of an offending equal pair
    for t, ins in enumerate(facet.insertions):
        if ins.left == ins.right:
            worst = max(worst, content_size(ins.left))
        if t + 1 < len(splits):
            offset = splits[t + 1][0] - splits[t][0]  # 0: left child, 1: right child
            if offset in (0, 1):
                sibling = ins.right if offset == 0 else ins.left
                nxt = facet.insertions[t + 1]
                for child in (nxt.left, nxt.right):
                    if sibling == child:
                        worst = max(worst, content_size(child))
    return (worst < 2, worst < 3)


def block_conditions(c: ChainType, order: BlockOrder | None = None) -> tuple:
    """The block conditions evaluated on the lex-least extension of a face."""
    return facet_block_conditions(min_extension(c, order))
