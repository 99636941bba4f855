"""The kernel: interned canonical leveled forests and the face-sweep plan.

Every distinct subtree gets a small integer id; a node is one flat tuple
(content id, *sorted child ids), which is both its entry in the node list
and its key in the node index, so a node costs one tuple; its children are
``node[1:]``.  Equal subtrees share ids, so orbit equality is id equality
and level deletion memoizes across the whole enumeration.  A
forest is leveled, so every node has one height (levels between it and the
leaves, leaves at 0) and a level is named by its height, whatever forest
holds it.  The deletion memo holds one dict per deleted height, keyed by
node id, so a lookup builds no key and the whole recursion of one deletion
reads one dict.  The memo lives as long as its store, which may serve many
masks and facets, unless ``sweep`` frees the heights it will not reach
again.  A memo hit is answered at the lookup, in the loop over a forest's
roots or a node's children, with no call; only a miss calls
``drop_node``.  Below the roots each root maps to one new root, so a
two-root forest, most faces of a sweep (127,824 of the 165,874 of (10)),
is answered with two lookups and one comparison, with no list or sort.
This is the hot core of the package.

``sweep_plan`` fixes the order in which faces are reached from a facet:
each support is the restriction of its canonical parent, the support plus
its finest missing level, so one level deletion per face suffices.  The
plan is a depth-first preorder of the canonical-parent tree.  ``sweep``
walks it: one-support flag tables (``flags.support_table``) and the
partitioning both reach their faces through it, and nothing else walks the
plan.

The builders that allocate the most (the partitioning, one-support and
whole flag tables) run with CPython's cyclic garbage collector paused
(``collector_paused``).  A build allocates millions of tuples, dicts and
slotted records; with the collector running, every few hundred of them
start a collection, and the rarer collections of the older generations
walk most of what the build holds.  The pause is safe because the
builds make no reference cycles (a recursive closure is deleted once its
outer call returns), so reference counting frees everything they drop; the
package is single-threaded; and the collector is enabled again when the
call returns or raises, only by the call that paused it.
"""

from __future__ import annotations

import gc
from collections import defaultdict
from functools import wraps

__all__ = ["ForestStore", "IMPL", "collector_paused", "sweep", "sweep_plan"]

# The kernel implementation's name, recorded with every benchmark run.
IMPL = "python"


def collector_paused(build):
    """``build`` with the cyclic garbage collector paused for the call.

    The call that finds the collector enabled disables it and enables it
    again on return or exception; a nested call, or a caller that paused it
    already, finds it disabled and leaves it so.  Decorate functions that
    return, not generators: a generator's body runs after the call."""

    @wraps(build)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return build(*args, **kwargs)
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            gc.enable()

    return paused


class ForestStore:
    __slots__ = (
        "_content_ids",
        "_contents",
        "_node_ids",
        "_nodes",
        "_drop_memo",
        "_nested_memo",
    )

    def __init__(self):
        self._content_ids = {}
        self._contents = []
        self._node_ids = {}
        self._nodes = []
        self._drop_memo = defaultdict(dict)  # height -> {node id: new node id}
        self._nested_memo = {}

    # -- interning ---------------------------------------------------------

    def content_id(self, content):
        cid = self._content_ids.get(content)
        if cid is None:
            cid = len(self._contents)
            self._content_ids[content] = cid
            self._contents.append(tuple(content))
        return cid

    def node(self, cid, child_ids):
        """The id of the node with content id ``cid`` and the sorted
        sequence ``child_ids``, interned as one flat tuple."""
        key = (cid, *child_ids)
        nid = self._node_ids.get(key)
        if nid is None:
            nid = len(self._nodes)
            self._node_ids[key] = nid
            self._nodes.append(key)
        return nid

    def intern_nested(self, nested):
        """Intern a (content, children) nested tuple; children in any order."""
        content, children = nested
        ids = sorted(self.intern_nested(ch) for ch in children)
        return self.node(self.content_id(content), ids)

    def intern_roots(self, roots):
        return tuple(sorted(self.intern_nested(r) for r in roots))

    # -- extraction --------------------------------------------------------

    def nested(self, nid):
        """Canonical (content, children) form, children sorted by tuple order."""
        out = self._nested_memo.get(nid)
        if out is None:
            node = self._nodes[nid]
            out = (
                self._contents[node[0]],
                tuple(sorted(self.nested(c) for c in node[1:])),
            )
            self._nested_memo[nid] = out
        return out

    def nested_roots(self, root_ids):
        return tuple(sorted(self.nested(r) for r in root_ids))

    # -- level deletion ----------------------------------------------------

    def drop_node(self, nid, height, own):
        """Delete the level at ``height`` below this node of height ``own``
        (height < own), splicing grandchildren up; returns the new node id.
        Called on a memo miss: the caller has already looked ``nid`` up at
        ``height``.  The loop over the children repeats ``drop_roots``
        instead of calling it, so ``drop_roots`` stays one call per forest a
        caller deletes."""
        node = self._nodes[nid]
        memo = self._drop_memo[height]
        merged = []
        if own - 1 == height:
            nodes = self._nodes
            for c in node[1:]:
                merged.extend(nodes[c][1:])
        else:
            get = memo.get
            for c in node[1:]:
                out = get(c)
                if out is None:  # node id 0 is a valid result
                    out = self.drop_node(c, height, own - 1)
                merged.append(out)
        merged.sort()
        out = memo[nid] = self.node(node[0], merged)
        return out

    def release_drops_above(self, height):
        """Free the deletion memo of every height above ``height``.  A sweep
        calls this once no later lookup can hit there; a freed memo only
        makes a later deletion recompute, never answer differently."""
        for h in [h for h in self._drop_memo if h > height]:
            del self._drop_memo[h]

    def drop_roots(self, root_ids, height, top):
        """Delete the level at ``height`` from a forest whose roots have
        height ``top`` (height <= top; height == top deletes the roots).
        Below the roots each root maps to one new root, so a two-root
        forest, the common case, is two lookups and one comparison."""
        if height == top:
            nodes = self._nodes
            merged = []
            for r in root_ids:
                merged.extend(nodes[r][1:])
        else:
            get = self._drop_memo[height].get
            if len(root_ids) == 2:
                a, b = root_ids
                a2 = get(a)
                if a2 is None:  # node id 0 is a valid result
                    a2 = self.drop_node(a, height, top)
                b2 = get(b)
                if b2 is None:
                    b2 = self.drop_node(b, height, top)
                return (a2, b2) if a2 <= b2 else (b2, a2)
            merged = []
            for r in root_ids:
                out = get(r)
                if out is None:  # node id 0 is a valid result
                    out = self.drop_node(r, height, top)
                merged.append(out)
        merged.sort()
        return tuple(merged)

    def size(self):
        return len(self._nodes)


def sweep_plan(m: int) -> list:
    """Every mask over m coranks as (mask, parent, height), in depth-first
    preorder of the canonical-parent tree.

    The full mask comes first with no parent.  Every other mask's canonical
    parent is the mask plus its highest missing bit b, its finest missing
    level.  Parents that add a fine level have fewer faces than those that
    add a coarse one: the sweep of (10) makes 297,781 deletions, against
    403,856 through the lowest missing bit, and is within 1% of the best
    parent chosen mask by mask.  Every bit above b is set, so the level to
    delete from the parent's faces has m-1-b levels below it; that is its
    height, fixed by b alone.  So the children of P are P minus bit c, for
    each c above P's highest missing bit, and they come in decreasing
    height.  In preorder each parent precedes its children, and a mask's
    parent is the last earlier mask with one more bit, so a sweep keeps at
    most one face set per popcount alive.
    """
    full = (1 << m) - 1
    plan = []
    stack = [(full, None, None)]
    while stack:
        mask, parent, height = stack.pop()
        plan.append((mask, parent, height))
        high = (full & ~mask).bit_length()  # one above the highest missing bit
        stack.extend((mask & ~(1 << c), mask, m - 1 - c) for c in range(m - 1, high - 1, -1))
    return plan


def sweep(store: ForestStore, m: int, tops):
    """Yield (mask, faces) for every mask of ``sweep_plan(m)``, in plan order.

    ``tops`` are the root ids in ``store`` of the faces on the full mask.
    ``faces`` is a {root ids: owner} dict of the distinct faces on the mask;
    the owner is the least index in ``tops`` of a top face containing the
    face.  A mask's dict is filled with ``setdefault``, one deletion per
    face of its parent's dict, whose owners ascend in insertion order, so
    the first owner to reach a face is the least.  Only the dicts of the
    current mask and its ancestors stay alive, one per popcount, so at most
    m + 1 instead of all 2^m; a caller reads them and must not change them.

    The drop memo, keyed by the height of the deleted level, is freed as the
    sweep goes.  The children of the full mask come at heights m-1, ..., 0.
    A mask in the subtree of the child at height h lacks the level at h and
    only levels finer than it beyond that, so every deletion in the subtree
    is at a height <= h, and so is every deletion in the later children's
    subtrees.  On reaching that child no lookup can hit the memo above h
    again, and the memo of every height above h is freed.  The memo at h
    itself is kept: the child's own deletion walks the top faces' nodes,
    which earlier subtrees met at height h too.
    """
    full = (1 << m) - 1
    path = []  # face dicts of the current mask and its ancestors, full first
    for mask, parent, height in sweep_plan(m):
        faces = {}
        if parent is None:
            for owner, face in enumerate(tops):
                faces.setdefault(face, owner)
        else:
            if parent == full:
                store.release_drops_above(height)
            del path[m - mask.bit_count() :]  # keep the ancestors; the parent is last
            top = parent.bit_count() - 1
            drop, add = store.drop_roots, faces.setdefault
            for face, owner in path[-1].items():
                add(drop(face, height, top), owner)
        path.append(faces)
        yield mask, faces
