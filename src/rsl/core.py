"""Chain orbits of the partition lattice under a Young subgroup.

An orbit of a chain is recorded as a canonical leveled forest: nodes at
level m are the blocks of the m-th partition (coarsest level first, in
corank order), each node carries the letter-count content of its block, and
a node's parent is the containing block one level up.  Two chains lie in
the same orbit exactly when their canonical forests coincide: a forest
isomorphism assembles a letter-preserving permutation block by block, and
conversely any such permutation induces an isomorphism.

Canonical form is AHU-style: children are sorted recursively by their
(content, children) encoding, so equality and hashing are plain tuple
operations.

The faces of one support are built bottom-up as store ids
(``support_root_ids``), and counted with none built, alone
(``support_count``) or with every support inside it (``support_counts``),
each coarser level a multiset partition of the level below.  Whole tables
are counted elsewhere, by Burnside's lemma over cycle types
(``rsl.classes``).
"""

from __future__ import annotations

from collections import Counter, OrderedDict, defaultdict
from operator import itemgetter

from .kernel import ForestStore
from .shapes import (
    Content,
    MalformedChainError,
    RankSet,
    Record,
    Shape,
    as_shape,
    checked_shape,
    content_size,
    dualize,
    multiset_partitions,
)

__all__ = [
    "ChainType",
    "canonicalize",
    "restrict",
    "enumerate_facet_orbits",
    "faces_with_support",
    "support_root_ids",
    "support_count",
    "support_counts",
    "block_orbits",
    "dualize",
]

Node = tuple  # (content, sorted tuple of child Nodes)


def _sorted_nodes(nodes) -> tuple:
    return tuple(sorted(nodes))


class ChainType(Record):
    """Canonical form of one orbit of a chain strictly between 0-hat and 1-hat.

    ``dual_levels`` are strictly increasing coranks, depth j <-> dual_levels[j];
    ``roots`` are the canonical nested nodes at the coarsest level."""

    __slots__ = ("shape", "dual_levels", "roots")

    def __init__(self, shape: Shape, dual_levels: tuple, roots: tuple):
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "dual_levels", dual_levels)
        object.__setattr__(self, "roots", roots)

    @property
    def n(self) -> int:
        return self.shape.n

    @property
    def support(self) -> tuple:
        """Ranks of the lattice (not the dual), ascending."""
        return tuple(sorted(self.n - 1 - d for d in self.dual_levels))

    def rank_set(self) -> RankSet:
        return RankSet.primal(self.n, self.support)

    def is_empty(self) -> bool:
        return not self.dual_levels

    def is_maximal(self) -> bool:
        return self.dual_levels == tuple(range(1, self.n - 1))

    def depth_of_dual(self, d: int) -> int:
        return self.dual_levels.index(d)

    # -- structure accessors ------------------------------------------------

    def level_nodes(self, depth: int) -> tuple:
        """Nodes at forest depth, in canonical DFS order."""
        nodes = self.roots
        for _ in range(depth):
            nodes = tuple(c for node in nodes for c in node[1])
        return nodes

    # -- operations ----------------------------------------------------------

    def restrict(self, sub) -> "ChainType":
        return restrict(self, sub)

    def realize(self) -> list:
        """An explicit representative chain, finest partition first.

        Blocks come out in canonical node order per level, so indices align
        with ``level_nodes``/``block_orbits``.
        """
        n = self.n
        k = self.shape.k
        offsets = [0]
        for p in self.shape.parts:
            offsets.append(offsets[-1] + p)
        pools = [list(range(offsets[i] + 1, offsets[i + 1] + 1)) for i in range(k)]

        def take(pool_like, content):
            got = []
            for letter, count in enumerate(content):
                got.extend(pool_like[letter][:count])
                del pool_like[letter][:count]
            return got

        levels = [[] for _ in self.dual_levels]

        def assign(node, depth, elements):
            content, children = node
            mine = sorted(elements)
            levels[depth].append(frozenset(mine))
            pool = [[e for e in mine if self.shape.letter_of(e) == i] for i in range(k)]
            for child in children:
                assign(child, depth + 1, take(pool, child[0]))

        for root in self.roots:
            assign(root, 0, take(pools, root[0]))
        # coarsest level is depth 0; chains are returned finest first
        return [list(lv) for lv in reversed(levels)]

    # -- serialization -------------------------------------------------------

    def serialize(self) -> str:
        """Canonical grammar: node := content "@" level ["(" node ("," node)* ")"].

        Levels are lattice ranks.  Contents are digit strings of letter
        multiplicities (dot-separated only if a count ever exceeds 9).
        """

        def content_str(c: Content) -> str:
            if all(x <= 9 for x in c):
                return "".join(str(x) for x in c)
            return ".".join(str(x) for x in c)

        ranks = [self.n - 1 - d for d in self.dual_levels]

        def node_str(node: Node, depth: int) -> str:
            content, children = node
            out = f"{content_str(content)}@{ranks[depth]}"
            if children:
                out += "(" + ",".join(node_str(c, depth + 1) for c in children) + ")"
            return out

        return ",".join(node_str(r, 0) for r in self.roots)

    @classmethod
    def deserialize(cls, text: str, shape) -> "ChainType":
        shape = as_shape(shape)
        if not text:
            return empty_chain(shape)
        nodes, pos = _parse_node_list(text, 0, shape)
        if pos != len(text):
            raise MalformedChainError(f"trailing input at {pos}: {text[pos:]!r}")
        levels = set()

        def strip(parsed, depth):
            content, rank, children = parsed
            levels.add((depth, rank))
            return (content, _sorted_nodes(strip(c, depth + 1) for c in children))

        roots = _sorted_nodes(strip(p, 0) for p in nodes)
        by_depth = {}
        for depth, rank in levels:
            by_depth.setdefault(depth, set()).add(rank)
        ranks = []
        for depth in sorted(by_depth):
            if len(by_depth[depth]) != 1:
                raise MalformedChainError("inconsistent levels at one depth")
            ranks.append(by_depth[depth].pop())
        dual_levels = tuple(shape.n - 1 - r for r in ranks)
        ct = cls(shape, dual_levels, roots)
        _validate_forest(ct)
        return ct

    def __str__(self):
        return self.serialize() or "<empty chain>"


def _parse_node_list(text: str, pos: int, shape: Shape):
    nodes = []
    while True:
        node, pos = _parse_node(text, pos, shape)
        nodes.append(node)
        if pos < len(text) and text[pos] == ",":
            pos += 1
            continue
        return nodes, pos


def _parse_node(text: str, pos: int, shape: Shape):
    start = pos
    while pos < len(text) and text[pos] != "@":
        pos += 1
    if pos >= len(text):
        raise MalformedChainError(f"missing '@' after position {start}")
    raw = text[start:pos]
    if "." in raw:
        content = tuple(_count(x) for x in raw.split("."))
    elif shape.k == 1:
        content = (_count(raw),)  # one letter: its count, whatever its digits
    else:
        content = tuple(_count(ch) for ch in raw)
    if len(content) != shape.k:
        raise MalformedChainError(f"content {raw!r} has wrong letter count")
    pos += 1
    num_start = pos
    while pos < len(text) and text[pos].isdigit():
        pos += 1
    rank = _count(text[num_start:pos])
    children = []
    if pos < len(text) and text[pos] == "(":
        children, pos = _parse_node_list(text, pos + 1, shape)
        if pos >= len(text) or text[pos] != ")":
            raise MalformedChainError("unbalanced parentheses")
        pos += 1
    return (content, rank, children), pos


def _count(digits: str) -> int:
    if not (digits.isascii() and digits.isdigit()):
        raise MalformedChainError(f"expected a number, got {digits!r}")
    return int(digits)


def empty_chain(shape) -> ChainType:
    return ChainType(as_shape(shape), (), ())


def _validate_forest(c: ChainType) -> None:
    n = c.n
    if any(a >= b for a, b in zip(c.dual_levels, c.dual_levels[1:])):
        raise MalformedChainError("levels not increasing")
    if any(not 1 <= d <= n - 2 for d in c.dual_levels):
        raise MalformedChainError("level out of range")
    for depth, d in enumerate(c.dual_levels):
        nodes = c.level_nodes(depth)
        if len(nodes) != d + 1:
            raise MalformedChainError(
                f"corank {d} level has {len(nodes)} blocks, expected {d + 1}"
            )
        total = [0] * c.shape.k
        for node in nodes:
            content, children = node
            if content_size(content) < 1:
                raise MalformedChainError("empty block")
            for i, x in enumerate(content):
                total[i] += x
            if children:
                child_sum = [0] * c.shape.k
                for ch in children:
                    for i, x in enumerate(ch[0]):
                        child_sum[i] += x
                if tuple(child_sum) != content:
                    raise MalformedChainError("children do not sum to parent content")
        if tuple(total) != c.shape.root_content:
            raise MalformedChainError("level does not partition the ground multiset")


# -- canonicalization of explicit chains -------------------------------------


def canonicalize(raw_chain, shape) -> ChainType:
    """Canonical orbit of an explicit chain of set partitions.

    ``raw_chain`` lists partitions of {1..n} finest first (strictly ordered
    by refinement); each partition is an iterable of blocks, each block an
    iterable of elements.  Letters are read off the shape: the first lam_1
    elements are letter 1, the next lam_2 are letter 2, and so on.
    """
    shape = as_shape(shape)
    n = shape.n
    ground = frozenset(range(1, n + 1))
    partitions = []
    for part in raw_chain:
        blocks = [frozenset(b) for b in part]
        if not blocks:
            raise MalformedChainError("empty partition")
        seen = set()
        for b in blocks:
            if not b or (b & seen):
                raise MalformedChainError("blocks must be disjoint and nonempty")
            seen |= b
        if seen != ground:
            raise MalformedChainError(f"partition does not cover 1..{n}")
        if not 2 <= len(blocks) <= n - 1:
            raise MalformedChainError("chain elements must be proper (not 0-hat or 1-hat)")
        partitions.append(blocks)

    num_blocks = [len(p) for p in partitions]
    if any(num_blocks[i] <= num_blocks[i + 1] for i in range(len(partitions) - 1)):
        raise MalformedChainError("partitions must be strictly ordered by refinement")
    for fine, coarse in zip(partitions, partitions[1:]):
        for b in fine:
            if not any(b <= big for big in coarse):
                raise MalformedChainError("not a refinement chain")

    def content_of(block) -> Content:
        counts = [0] * shape.k
        for e in block:
            counts[shape.letter_of(e)] += 1
        return tuple(counts)

    coarse_first = list(reversed(partitions))

    def build(block, depth) -> Node:
        if depth + 1 < len(coarse_first):
            children = [b for b in coarse_first[depth + 1] if b <= block]
            kids = _sorted_nodes(build(b, depth + 1) for b in children)
        else:
            kids = ()
        return (content_of(block), kids)

    roots = _sorted_nodes(build(b, 0) for b in coarse_first[0]) if partitions else ()
    dual_levels = tuple(n - 1 - (n - nb) for nb in reversed(num_blocks))  # = nb - 1
    ct = ChainType(shape, dual_levels, roots)
    _validate_forest(ct)
    return ct


# -- restriction --------------------------------------------------------------


def _drop_depth(nodes: tuple, depth: int) -> tuple:
    """Delete one forest level (depth 0 = the root level), splicing upward."""
    if depth == 0:
        return _sorted_nodes(c for node in nodes for c in node[1])

    def rec(node: Node, left: int) -> Node:
        content, children = node
        if left == 1:
            merged = tuple(g for ch in children for g in ch[1])
            return (content, _sorted_nodes(merged))
        return (content, _sorted_nodes(rec(c, left - 1) for c in children))

    return _sorted_nodes(rec(r, depth) for r in nodes)


def restrict(c: ChainType, sub) -> ChainType:
    """The unique face of c with the given support, canonicalized.

    ``sub`` is a RankSet (interpreted in its own basis) or an iterable of
    lattice ranks.
    """
    dual_target = RankSet.primal(c.n, sub).as_dual().ranks
    if not dual_target <= set(c.dual_levels):
        missing = sorted(dual_target - set(c.dual_levels))
        raise ValueError(f"coranks {missing} not in the support of the chain")
    roots = c.roots
    levels = list(c.dual_levels)
    for d in [d for d in reversed(levels) if d not in dual_target]:
        roots = _drop_depth(roots, levels.index(d))
        levels.remove(d)
    return ChainType(c.shape, tuple(levels), roots)


# -- block orbits --------------------------------------------------------------


def block_orbits(c: ChainType, level: int) -> tuple:
    """Stabilizer orbits of the blocks at one level of the chain.

    Two blocks are equivalent when a level-preserving automorphism of the
    canonical forest maps one node to the other: same subtree and
    equivalent parents.  Returns a tuple of orbits, each a tuple of block
    indices in canonical node order (matching ``realize``).
    """
    d = c.n - 1 - level
    if d not in c.dual_levels:
        raise ValueError(f"level {level} not in support")
    target = c.depth_of_dual(d)

    classes = [(r,) for r in c.roots]  # class key per node at current depth
    nodes = c.roots
    for _ in range(target):
        next_nodes = []
        next_classes = []
        for node, cls in zip(nodes, classes):
            for child in node[1]:
                next_nodes.append(child)
                next_classes.append((cls, child))
        nodes, classes = next_nodes, next_classes

    orbit_of = {}
    orbits = []
    for idx, cls in enumerate(classes):
        if cls in orbit_of:
            orbits[orbit_of[cls]].append(idx)
        else:
            orbit_of[cls] = len(orbits)
            orbits.append([idx])
    return tuple(tuple(o) for o in orbits)


# -- enumeration ----------------------------------------------------------------


def enumerate_facet_orbits(n: int, shape) -> tuple:
    """All orbits of maximal chains, one canonical form each, sorted by roots:
    the faces of the full support, computed afresh on every call."""
    if n < 2:
        raise ValueError("need n >= 2")
    return tuple(sorted(faces_with_support(n, shape, range(1, n - 1)), key=lambda ct: ct.roots))


def _position_groupings(counts: tuple, num_groups: int) -> tuple:
    """Every multiset partition of ``counts`` into ``num_groups`` groups,
    each group a getter of its entries from a sorted tuple whose runs of
    equal entries have the lengths ``counts``: a run's first position, once
    per copy the group takes.  A getter returns a tuple, one entry or many."""
    starts = [0]
    for c in counts[:-1]:
        starts.append(starts[-1] + c)
    out = []
    for groups in multiset_partitions(counts, num_groups):
        getters = []
        for group in groups:
            positions = [s for s, m in zip(starts, group) for _ in range(m)]
            p = positions[0]
            getters.append(itemgetter(*positions) if len(positions) > 1 else itemgetter(slice(p, p + 1)))
        out.append(tuple(getters))
    return tuple(out)


def _run_lengths(ids: tuple) -> tuple:
    """The lengths of the runs of equal entries of a sorted tuple."""
    counts = []
    prev = None
    for i in ids:
        if i == prev:
            counts[-1] += 1
        else:
            counts.append(1)
            prev = i
    return tuple(counts)


def _distinct(forests: list) -> list:
    if len(set(forests)) != len(forests):
        raise AssertionError("support enumeration produced a duplicate orbit")
    return forests


def support_root_ids(shape: Shape, dual_levels: tuple, store: ForestStore) -> list:
    """Every orbit type on the strictly increasing coranks ``dual_levels``
    as its sorted root ids in ``store``, built bottom-up without any facet.

    The finest level is every multiset partition of the ground content, as
    leaves.  Each coarser level takes every multiset partition of each
    forest's sorted ids into one group per node, and a node is the sorted
    tuple of its children's ids.  The lengths of the runs of a forest's ids
    are the count vector that fixes its partitions, so the partitions are
    computed once per count vector and number of groups, as getters of each
    group's ids from the forest.  A node's content is summed and interned
    once, so ``store.node`` is called once per node created.  A coarser
    forest's ids fix its grouping, so distinct forests give distinct coarser
    ones, each once; AssertionError if an orbit repeats anyway.  No levels
    gives the one empty forest."""
    if not dual_levels:
        return [()]
    content_of = {}  # node id -> content
    leaf_of = {}  # content -> leaf id

    def leaf(content):
        nid = leaf_of.get(content)
        if nid is None:
            nid = leaf_of[content] = store.node(store.content_id(content), ())
            content_of[nid] = content
        return nid

    finest = multiset_partitions(shape.root_content, dual_levels[-1] + 1)
    forests = [tuple(sorted(map(leaf, parts))) for parts in finest]
    node_of = {}  # sorted children ids -> node id, over every level
    groupings = {}  # (count vector, number of groups) -> getters
    for d in reversed(dual_levels[:-1]):
        coarser = []
        for ids in forests:
            key = (_run_lengths(ids), d + 1)
            grouping = groupings.get(key)
            if grouping is None:
                grouping = groupings[key] = _position_groupings(*key)
            for groups in grouping:
                roots = []
                for take in groups:
                    children = take(ids)
                    nid = node_of.get(children)
                    if nid is None:
                        content = tuple(map(sum, zip(*[content_of[i] for i in children])))
                        nid = node_of[children] = store.node(store.content_id(content), children)
                        content_of[nid] = content
                    roots.append(nid)
                roots.sort()
                coarser.append(tuple(roots))
        forests = coarser
    return _distinct(forests)


COARSENING_CACHE_SIZE = 4096
"""The most (pattern, corank) steps ``_coarsenings`` keeps across calls,
so that the pre-count of S and its table enumerate each partition once:
512 kept after acceptance criterion 14, under 1 MB (tracemalloc)."""

_steps = OrderedDict()  # (pattern, d) -> the step, least recently used first


def _coarsenings(pattern: tuple, d: int, budget: float = float("inf")):
    """The patterns of the levels of d + 1 blocks that group a level of
    ``pattern``, as (pattern, ways) pairs, one grouping per multiset
    partition; None past ``budget`` partitions, kept only when finished.
    AssertionError for a partition not above the one before it (a repeat:
    ``multiset_partitions`` yields them in increasing order)."""
    key = (pattern, d)
    step = _steps.get(key)
    if step is not None:
        _steps.move_to_end(key)
        return step
    coarser = {}
    prev = ()
    for met, parts in enumerate(multiset_partitions(pattern, d + 1), 1):
        if met > budget:
            return None
        if parts <= prev:
            raise AssertionError("pattern count met a repeated partition")
        prev = parts
        found = tuple(sorted(_run_lengths(parts), reverse=True))
        coarser[found] = coarser.get(found, 0) + 1
    step = _steps[key] = tuple(coarser.items())
    if len(_steps) > COARSENING_CACHE_SIZE:
        _steps.popitem(last=False)
    return step


def support_count(shape: Shape, dual_levels: tuple, limit: int) -> int:
    """f of the one support on the strictly increasing coranks
    ``dual_levels``, or ``limit`` + 1 once it passes ``limit``, with no
    forest built.

    Above the ground set a block is the multiset of the blocks it joins, so
    what lies above a level depends only on its pattern: how many times
    each of its distinct blocks repeats (the ground set's is the shape's
    parts).  Grouping a level into d + 1 blocks is one multiset partition
    of its pattern into d + 1 parts, and the coarser pattern is the
    multiplicities of its equal parts (the multiset transform of Harary
    and Palmer, *Graphical Enumeration*, 1973; ``_coarsenings``).  Level by
    level from the finest, each pattern keeps the number of chain prefixes
    that end in it, which extend to distinct orbits, so the running total
    never exceeds f; each partition adds at least 1, so the count meets at
    most ``limit`` + 1 partitions a level."""
    level = {shape.root_content: 1}
    for d in reversed(dual_levels):
        coarser = {}
        total = 0
        for pattern, k in level.items():
            step = _coarsenings(pattern, d, (limit - total) // k)
            if step is None:
                return limit + 1
            for key, ways in step:
                coarser[key] = coarser.get(key, 0) + ways * k
                total += ways * k
            if total > limit:
                return limit + 1
        level = coarser
    return sum(level.values())


def support_counts(shape: Shape, dual_levels: tuple) -> dict:
    """f of every support T inside the strictly increasing coranks
    ``dual_levels``, as {corank mask: number of orbit types}, bit i standing
    for corank ``dual_levels[i]``; no forest is built.

    The count of ``support_count`` on every subset at once: level by level
    from the finest, each pattern keeps the number of chain prefixes that
    end in it, per mask of the levels they took.  At each corank of S a
    prefix either skips the level or groups its last level into one of the
    coarser patterns (``_coarsenings``, kept across calls)."""
    level = {shape.root_content: Counter({0: 1})}
    for i in reversed(range(len(dual_levels))):
        bit = 1 << i
        coarser = defaultdict(Counter)
        for pattern, by_mask in level.items():
            coarser[pattern].update(by_mask)  # the prefixes that skip the level
            for key, ways in _coarsenings(pattern, dual_levels[i]):
                into = coarser[key]
                for mask, k in by_mask.items():
                    into[mask | bit] += ways * k
        level = coarser
    f = Counter()
    for by_mask in level.values():
        f.update(by_mask)
    return f


def faces_with_support(n: int, shape, ranks) -> frozenset:
    """All orbit types with support exactly ``ranks``, from
    ``support_root_ids`` on a fresh store.  ``oracles.faces_by_restriction``
    is the oracle."""
    shape = checked_shape(n, shape)
    dual_levels = RankSet.primal(n, ranks).as_dual().sorted()
    store = ForestStore()
    return frozenset(
        ChainType(shape, dual_levels, store.nested_roots(ids))
        for ids in support_root_ids(shape, dual_levels, store)
    )
