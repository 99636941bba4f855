"""Bar-insertion diagrams for orbits of saturated chains.

A facet of the quotient complex is drawn as a row of n balls refined by
n-1 bar insertions, the t-th at corank t.  Two conventions normalize the
diagram: when a block splits, the child that is smaller in the active block
order goes left (equal children are interchangeable), and of two equal
blocks created together the left one must be refined first.

Covering relation t carries a label: (position, word-of-positions, r) for
the one-letter shape, and (bars-to-the-left, left-child word, prefix word,
r) in general, where r is the corank at which the split block was created.
Lexicographic comparison of label sequences orders the facets.

A facet's canonical forest is assembled bottom-up from its row history
straight into a ``ForestStore`` (``facet_root_ids``, ``InsertionFacet.
root_ids``); a nested ``ChainType`` is built from those ids only when one
is asked for.

Corank t is a topological descent of a facet when any of:
  1. insertion t lands strictly right of insertion t+1;
  2. t+1 splits the right child of t and t's left child is strictly larger
     (in the block order) than t+1's;
  3. t+1 splits the right child of t, both left children have size two, and
     the latter is refined before the former.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .core import ChainType
from .kernel import ForestStore
from .orders import BlockOrder, default_order
from .shapes import (
    Content,
    RankSet,
    add_contents,
    as_shape,
    bipartitions,
    checked_shape,
    content_size,
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


@dataclass(frozen=True, slots=True)
class BarInsertion:
    position: int  # ball gap, 1..n-1
    left: Content
    right: Content
    parent_rank: int  # corank at which the split block was created (0 = root)


@dataclass(frozen=True, slots=True)
class CoverLabel:
    position: int
    bars_left: int
    w: tuple  # sorted bar positions present after the step
    w_b: Content  # word of the block left of the new bar (the left child)
    prefix: tuple  # contents of all blocks left of the new bar, left child last
    r: int


@dataclass(frozen=True, slots=True)
class DescentWord:
    letters: str

    def __post_init__(self):
        if any(ch not in "AD" for ch in self.letters):
            raise ValueError("descent word must be over {A, D}")

    @classmethod
    def from_dual_set(cls, n: int, dual_ranks) -> "DescentWord":
        dual_ranks = set(dual_ranks)
        return cls("".join("D" if p in dual_ranks else "A" for p in range(1, n - 1)))

    def dual_set(self) -> frozenset:
        return frozenset(i + 1 for i, ch in enumerate(self.letters) if ch == "D")

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


def _label_key(label: CoverLabel, order: BlockOrder, general: bool):
    if general:
        return (
            label.bars_left,
            order.key(label.w_b),
            tuple(order.key(b) for b in label.prefix),
            label.r,
        )
    return (label.position, label.w, label.r)


class _Live:
    """One block of the evolving row."""

    __slots__ = ("content", "created", "twin_gid", "split_at")

    def __init__(self, content, created, twin_gid=None):
        self.content = content
        self.created = created
        self.twin_gid = twin_gid
        self.split_at = None


class _Replay(NamedTuple):
    """One replay of a facet's insertions; entry t-1 of each list is insertion t."""

    events: list  # (split block, left child, right child), as _Live blocks
    row: list  # the final, fully refined row of _Live blocks
    splits: list  # (row index, content) of the split block
    prefixes: list  # contents of the blocks left of the split block


class InsertionFacet:
    """A maximal chain orbit as a normalized bar-insertion sequence."""

    __slots__ = ("shape", "order", "insertions", "_sim", "_chain", "_labels", "_descents")

    def __init__(self, shape, order: BlockOrder, insertions):
        self.shape = as_shape(shape)
        self.order = order
        self.insertions = tuple(insertions)
        if len(self.insertions) != self.n - 1:
            raise ValueError("a facet of the order complex needs n-1 insertions")
        self._sim = None
        self._chain = None
        self._labels = None
        self._descents = None

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

    # -- simulation ----------------------------------------------------------

    def _simulate(self):
        """Replay the insertions once, checking each; every other view of
        the facet (labels, forest, descents, diagram) reads this record."""
        if self._sim is not None:
            return self._sim
        root = _Live(self.shape.root_content, 0)
        row = [root]
        events = []
        splits = []
        prefixes = []
        for t, ins in enumerate(self.insertions, start=1):
            start = 0
            for idx, blk in enumerate(row):
                width = content_size(blk.content)
                if start < ins.position <= start + width - 1:
                    break
                start += width
            else:
                raise ValueError(f"insertion {t} at {ins.position} hits no splittable gap")
            if add_contents(ins.left, ins.right) != blk.content:
                raise ValueError(f"insertion {t} children do not sum to the block")
            if start + content_size(ins.left) != ins.position:
                raise ValueError(f"insertion {t} position inconsistent with left child")
            if ins.parent_rank != blk.created:
                raise ValueError(f"insertion {t} has wrong parent rank")
            if self.order.key(ins.left) > self.order.key(ins.right):
                raise ValueError(f"insertion {t} puts the larger child on the left")
            if blk.twin_gid is not None and any(
                other is not blk and other.twin_gid == blk.twin_gid
                for other in row[:idx]
            ):
                raise ValueError(f"insertion {t} splits a twin before its left partner")
            gid = t if ins.left == ins.right else None
            left = _Live(ins.left, t, gid)
            right = _Live(ins.right, t, gid)
            blk.split_at = t
            events.append((blk, left, right))
            splits.append((idx, blk.content))
            prefixes.append(tuple(b.content for b in row[:idx]))
            row[idx : idx + 1] = [left, right]
        if any(content_size(b.content) != 1 for b in row):
            raise ValueError("row not fully refined after n-1 insertions")
        self._sim = _Replay(events, row, splits, prefixes)
        return self._sim

    def root_ids(self, store: ForestStore) -> tuple:
        """The facet's canonical forest interned in ``store``: sorted root ids."""
        replay = self._simulate()
        return _assemble_root_ids(store, [b.content for b in replay.row], replay.splits)

    def chain_type(self) -> ChainType:
        if self._chain is None:
            store = ForestStore()
            roots = store.nested_roots(self.root_ids(store))
            self._chain = ChainType(self.shape, tuple(range(1, self.n - 1)), roots)
        return self._chain

    def labels(self) -> tuple:
        if self._labels is None:
            replay = self._simulate()
            positions = self.positions
            self._labels = tuple(
                _cover_label(positions[:t], ins.position, ins.left, prefix, blk.created)
                for t, (ins, (blk, _, _), prefix) in enumerate(
                    zip(self.insertions, replay.events, replay.prefixes)
                )
            )
        return self._labels

    def sort_key(self):
        general = not self.shape.is_full()
        return tuple(_label_key(lb, self.order, general) for lb in self.labels())

    # -- descents --------------------------------------------------------------

    def _descent_data(self):
        if self._descents is not None:
            return self._descents
        events = self._simulate().events
        n = self.n
        out = set()
        for t in range(1, n - 1):
            blk_t, left_t, right_t = events[t - 1]
            blk_u, left_u, right_u = events[t]
            if self.insertions[t - 1].position > self.insertions[t].position:
                out.add(t)
                continue
            if blk_u is right_t:
                if self.order.key(left_t.content) > self.order.key(left_u.content):
                    out.add(t)
                    continue
                # equal contents are required: only interchangeable blocks
                # admit the order-swapping exchange behind condition 3
                if (
                    content_size(left_t.content) == 2
                    and left_t.content == left_u.content
                    and left_u.split_at < left_t.split_at
                ):
                    out.add(t)
        self._descents = frozenset(out)
        return self._descents

    def descent_dual_set(self) -> frozenset:
        return self._descent_data()

    def render(self) -> str:
        """ASCII diagram: balls with each bar annotated by its corank."""
        rank_of_pos = {ins.position: t for t, ins in enumerate(self.insertions, start=1)}
        row = self._simulate().row
        if self.shape.is_full():
            letters = ["o"] * self.n
        else:
            symbols = "abcdefghij"
            letters = [symbols[b.content.index(1)] for b in row]
        out = []
        for i, ch in enumerate(letters, start=1):
            out.append(ch)
            if i < self.n:
                out.append(f"|{rank_of_pos[i]}")
        return "".join(out)


# -- enumeration ----------------------------------------------------------------


def _assemble_root_ids(store: ForestStore, row, splits) -> tuple:
    """Intern a facet's canonical forest bottom-up from its row history.

    ``row`` holds the contents of the fully refined row, left to right;
    ``splits[t-1]`` is the row index and content of the block that insertion
    t split.  Undoing the last insertion gives the finest level of the
    chain, whose blocks are leaves.  Going up one level, an unsplit block
    becomes a node with its one child and the block split at that step a
    node with the sorted pair.  Returns the sorted root ids.
    """
    if len(splits) < 2:
        return ()
    node, cid = store.node, store.content_id
    cids = [cid(c) for c in row]
    idx, content = splits[-1]
    cids[idx : idx + 2] = [cid(content)]
    ids = [node(c, ()) for c in cids]
    for idx, content in reversed(splits[1:-1]):
        a, b = ids[idx], ids[idx + 1]
        kids = [(i,) for i in ids]
        kids[idx : idx + 2] = [(a, b) if a <= b else (b, a)]
        cids[idx : idx + 2] = [cid(content)]
        ids = [node(c, k) for c, k in zip(cids, kids)]
    return tuple(sorted(ids))


def _checked(n: int, shape, order: Optional[BlockOrder]):
    shape = checked_shape(n, shape)
    return shape, default_order(shape) if order is None else order


def _walk_facets(n: int, shape, order: BlockOrder, leaf) -> None:
    """Depth-first over the normalized facets, one per orbit: the only
    ambiguous choices (which of two equal unsplit twins to refine, which
    equal child goes left) are fixed by the normalization.

    Calls ``leaf(insertions, splits, row)`` at every facet: its BarInsertion
    list, the (row index, content) of the block each insertion split, and
    the final row of (content, created, twin id) blocks.  The lists are
    reused; copy what is kept.
    """
    acc = []
    splits = []

    def rec(blocks, t):
        if t == n:
            leaf(acc, splits, blocks)
            return
        start = 0
        for idx, (content, created, gid) in enumerate(blocks):
            width = content_size(content)
            if width < 2:
                start += width
                continue
            if gid is not None and idx > 0 and blocks[idx - 1][2] == gid:
                start += width  # right twin: left twin must be refined first
                continue
            splits.append((idx, content))
            for a, b in bipartitions(content):
                ka, kb = (order.key(a), a), (order.key(b), b)
                left, right = (a, b) if ka <= kb else (b, a)
                new_gid = t if left == right else None
                acc.append(
                    BarInsertion(start + content_size(left), left, right, created)
                )
                rec(
                    blocks[:idx]
                    + [(left, t, new_gid), (right, t, new_gid)]
                    + blocks[idx + 1 :],
                    t + 1,
                )
                acc.pop()
            splits.pop()
            start += width

    rec([(shape.root_content, 0, None)], 1)


def enumerate_insertion_facets(n: int, shape, order: Optional[BlockOrder] = None):
    """All normalized facets as InsertionFacets, depth first."""
    shape, order = _checked(n, shape, order)
    results = []

    def leaf(acc, splits, row):
        results.append(InsertionFacet(shape, order, tuple(acc)))

    _walk_facets(n, shape, order, leaf)
    return results


def facet_root_ids(n: int, shape, store: ForestStore, order: Optional[BlockOrder] = None) -> list:
    """Every facet orbit as its sorted root ids in ``store``, in the order of
    ``enumerate_insertion_facets``; no ChainType is built.

    Raises AssertionError if two facets intern to the same forest, which
    would mean the normalization let one orbit through twice.
    """
    shape, order = _checked(n, shape, order)
    ids = []

    def leaf(acc, splits, row):
        ids.append(_assemble_root_ids(store, [b[0] for b in row], splits))

    _walk_facets(n, shape, order, leaf)
    if len(set(ids)) != len(ids):
        raise AssertionError("facet enumeration produced a duplicate orbit")
    return ids


# -- the lex-least extension -----------------------------------------------------


def _target_bipartitions(targets):
    """Unordered splits of a target multiset into two nonempty parts."""
    distinct = []
    mult = []
    for tgt in targets:
        if distinct and distinct[-1] == tgt:
            mult[-1] += 1
        else:
            distinct.append(tgt)
            mult.append(1)
    seen = set()
    for combo in itertools.product(*[range(m + 1) for m in mult]):
        if not any(combo) or all(c == m for c, m in zip(combo, mult)):
            continue
        t1 = tuple(
            itertools.chain.from_iterable([d] * c for d, c in zip(distinct, combo))
        )
        t2 = tuple(
            itertools.chain.from_iterable(
                [d] * (m - c) for d, c, m in zip(distinct, combo, mult)
            )
        )
        pair = (t1, t2) if t1 <= t2 else (t2, t1)
        if pair not in seen:
            seen.add(pair)
            yield pair


def _content_sum(targets, k) -> Content:
    total = [0] * k
    for tgt in targets:
        for i, x in enumerate(tgt[0]):
            total[i] += x
    return tuple(total)


def min_extension(c: ChainType, order: Optional[BlockOrder] = None) -> InsertionFacet:
    """Lexicographically least facet containing the face, under the label order.

    Greedy over coranks: at each step every slot may split its pinned
    subtrees in any way; the move with the least label wins.  Ties (same
    label, different subtree matchings) are kept as parallel branches until
    later labels separate them.
    """
    shape = c.shape
    n = shape.n
    if order is None:
        order = default_order(shape)
    general = not shape.is_full()

    def leaf_targets(content):
        return tuple((u, ()) for u in unit_contents(content))

    if c.is_empty():
        init_targets = leaf_targets(shape.root_content)
    else:
        init_targets = tuple(sorted(c.roots))
    support = set(c.dual_levels)

    # state: (row, insertions); row slot = (content, created, sorted targets)
    states = [(((shape.root_content, 0, init_targets),), ())]

    for t in range(1, n):
        best_key = None
        chosen = []
        for state in states:
            row, done = state
            positions = [ins.position for ins in done]
            start = 0
            for idx, (content, created, targets) in enumerate(row):
                width = content_size(content)
                if len(targets) >= 2:
                    for t1, t2 in _target_bipartitions(targets):
                        s1, s2 = _content_sum(t1, shape.k), _content_sum(t2, shape.k)
                        k1, k2 = order.key(s1), order.key(s2)
                        layouts = []
                        if k1 <= k2:
                            layouts.append((t1, s1, t2, s2))
                        if k2 < k1 or (k1 == k2 and t1 != t2):
                            layouts.append((t2, s2, t1, s1))
                        for lt, ls, rt, rs in layouts:
                            pos = start + content_size(ls)
                            prefix = tuple(r[0] for r in row[:idx])
                            label = _cover_label(positions, pos, ls, prefix, created)
                            key = _label_key(label, order, general)
                            if best_key is None or key < best_key:
                                best_key = key
                                chosen = [(state, idx, lt, ls, rt, rs, pos)]
                            elif key == best_key:
                                chosen.append((state, idx, lt, ls, rt, rs, pos))
                start += width
        if not chosen:
            raise AssertionError("extension search stalled")
        new_states = {}
        for state, idx, lt, ls, rt, rs, pos in chosen:
            row, done = state
            content, created, _ = row[idx]
            left_slot = (ls, t, tuple(sorted(lt)))
            right_slot = (rs, t, tuple(sorted(rt)))
            new_row = row[:idx] + (left_slot, right_slot) + row[idx + 1 :]
            ins = BarInsertion(pos, ls, rs, created)
            if t in support:
                reanchored = []
                ok = True
                for content2, created2, targets2 in new_row:
                    if len(targets2) != 1 or targets2[0][0] != content2:
                        ok = False
                        break
                    kids = targets2[0][1]
                    new_targets = tuple(sorted(kids)) if kids else leaf_targets(content2)
                    reanchored.append((content2, created2, new_targets))
                if not ok:  # pragma: no cover - step counting forbids this
                    continue
                new_row = tuple(reanchored)
            new_states[(new_row, done + (ins,))] = None
        states = list(new_states)

    sequences = {st[1] for st in states}
    if len(sequences) != 1:
        raise ExtensionTieError(
            "distinct facets share a full label sequence; orbit uniqueness violated"
        )
    return InsertionFacet(shape, order, sequences.pop())


def facet_to_insertions(c: ChainType, order: Optional[BlockOrder] = None) -> InsertionFacet:
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
    events = facet._simulate().events
    worst = 0  # largest size of an offending equal pair
    for t, (blk, left, right) in enumerate(events):
        if left.content == right.content:
            worst = max(worst, content_size(left.content))
        if t + 1 < len(events):
            nxt_blk, nxt_left, nxt_right = events[t + 1]
            if nxt_blk is left or nxt_blk is right:
                sibling = right if nxt_blk is left else left
                for child in (nxt_left, nxt_right):
                    if sibling.content == child.content:
                        worst = max(worst, content_size(child.content))
    return (worst < 2, worst < 3)


def block_conditions(c: ChainType, order: Optional[BlockOrder] = None) -> tuple:
    """The block conditions evaluated on the lex-least extension of a face."""
    return facet_block_conditions(min_extension(c, order))
