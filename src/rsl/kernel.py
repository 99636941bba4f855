"""The kernel: interned canonical leveled forests and the face-sweep plan.

Every distinct subtree gets a small integer id; a node is (content id,
sorted child ids).  Equal subtrees share ids, so orbit equality is id
equality and level deletion memoizes across the whole enumeration.  The
deletion memo holds one dict per depth, keyed by node id, so a lookup
builds no key; it lives as long as its store, which may serve many masks
and facets, unless the caller frees the depths it will not reach again
(``release_drops_from``).  A memo hit is answered at the lookup, in the
loop over a forest's roots or a node's children, with no call; only a
miss calls ``drop_node``.  This is the hot core of the package.

``sweep_plan`` fixes the order in which faces are reached from a facet:
each support is the restriction of its canonical parent, so one level
deletion per face suffices.  The plan is a depth-first preorder of the
canonical-parent tree, so a caller needs only the face sets of the current
mask's ancestors.
"""

from __future__ import annotations

from collections import defaultdict

__all__ = ["ForestStore", "IMPL", "sweep_plan"]

# The kernel implementation's name, recorded with every benchmark run.
IMPL = "python"


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
        self._drop_memo = defaultdict(dict)  # depth -> {node id: new node id}
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
        key = (cid, child_ids)
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
        return self.node(self.content_id(content), tuple(ids))

    def intern_roots(self, roots):
        return tuple(sorted(self.intern_nested(r) for r in roots))

    # -- extraction --------------------------------------------------------

    def nested(self, nid):
        """Canonical (content, children) form, children sorted by tuple order."""
        out = self._nested_memo.get(nid)
        if out is None:
            cid, child_ids = self._nodes[nid]
            out = (
                self._contents[cid],
                tuple(sorted(self.nested(c) for c in child_ids)),
            )
            self._nested_memo[nid] = out
        return out

    def nested_roots(self, root_ids):
        return tuple(sorted(self.nested(r) for r in root_ids))

    # -- level deletion ----------------------------------------------------

    def drop_node(self, nid, depth):
        """Delete the level ``depth`` generations below this node (depth >= 1),
        splicing grandchildren up; returns the new node id.  Called on a
        memo miss: the caller has already looked ``nid`` up at ``depth``.
        The loop over the children repeats ``drop_roots`` instead of calling
        it, so ``drop_roots`` stays one call per forest a caller deletes."""
        cid, child_ids = self._nodes[nid]
        merged = []
        if depth == 1:
            for c in child_ids:
                merged.extend(self._nodes[c][1])
        else:
            get = self._drop_memo[depth - 1].get
            for c in child_ids:
                out = get(c)
                if out is None:  # node id 0 is a valid result
                    out = self.drop_node(c, depth - 1)
                merged.append(out)
        merged.sort()
        out = self._drop_memo[depth][nid] = self.node(cid, tuple(merged))
        return out

    def release_drops_from(self, depth):
        """Free the deletion memo of ``depth`` and of every depth above it.
        A sweep calls this once no later lookup can hit there; a freed memo
        only makes a later deletion recompute, never answer differently."""
        for d in [d for d in self._drop_memo if d >= depth]:
            del self._drop_memo[d]

    def drop_roots(self, root_ids, depth):
        """Delete level ``depth`` (0 = the root level itself) from a forest."""
        merged = []
        if depth == 0:
            for r in root_ids:
                merged.extend(self._nodes[r][1])
        else:
            get = self._drop_memo[depth].get
            for r in root_ids:
                out = get(r)
                if out is None:  # node id 0 is a valid result
                    out = self.drop_node(r, depth)
                merged.append(out)
        merged.sort()
        return tuple(merged)

    def size(self):
        return len(self._nodes)


def sweep_plan(m: int) -> list:
    """Every mask over m coranks as (mask, parent, depth), in depth-first
    preorder of the canonical-parent tree.

    The full mask comes first with no parent.  Every other mask's canonical
    parent is the mask plus its lowest missing bit; that bit is also the
    level to delete from the parent's faces, since every lower bit is set.
    So the children of P are P minus bit b, for each b below P's lowest
    missing bit.  In preorder each parent precedes its children, and a
    mask's parent is the last earlier mask with one more bit, so a sweep
    keeps at most one face set per popcount alive.
    """
    full = (1 << m) - 1
    plan = []
    stack = [(full, None, None)]
    while stack:
        mask, parent, depth = stack.pop()
        plan.append((mask, parent, depth))
        low = (~mask & (mask + 1)).bit_length() - 1  # lowest missing bit
        stack.extend((mask & ~(1 << b), mask, b) for b in range(low))
    return plan
