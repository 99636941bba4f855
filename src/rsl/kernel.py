"""The kernel: interned canonical leveled forests and the face-sweep plan.

Every distinct subtree gets a small integer id; a node is (content id,
sorted child ids).  Equal subtrees share ids, so orbit equality is id
equality and level deletion memoizes across the whole enumeration.  This is
the hot core of the package.

``sweep_plan`` fixes the order in which faces are reached from a facet:
each support is the restriction of its canonical parent, so one level
deletion per face suffices.
"""

from __future__ import annotations

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
        self._drop_memo = {}
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
        splicing grandchildren up; returns the new node id."""
        key = (nid, depth)
        out = self._drop_memo.get(key)
        if out is not None:
            return out
        cid, child_ids = self._nodes[nid]
        if depth == 1:
            merged = []
            for c in child_ids:
                merged.extend(self._nodes[c][1])
            merged.sort()
            out = self.node(cid, tuple(merged))
        else:
            new_children = sorted(self.drop_node(c, depth - 1) for c in child_ids)
            out = self.node(cid, tuple(new_children))
        self._drop_memo[key] = out
        return out

    def drop_roots(self, root_ids, depth):
        """Delete level ``depth`` (0 = the root level itself) from a forest."""
        if depth == 0:
            merged = []
            for r in root_ids:
                merged.extend(self._nodes[r][1])
            merged.sort()
            return tuple(merged)
        return tuple(sorted(self.drop_node(r, depth) for r in root_ids))

    def size(self):
        return len(self._nodes)


def sweep_plan(m: int) -> list:
    """Every mask over m coranks as (mask, parent, depth), parents first.

    The full mask comes first with no parent.  Every other mask's canonical
    parent is the mask plus its lowest missing bit; that bit is also the
    level to delete from the parent's faces, since every lower bit is set.
    Masks run in descending popcount, so each parent precedes its children.
    """
    full = (1 << m) - 1
    plan = [(full, None, None)]
    for mask in sorted(range(full), key=lambda x: -bin(x).count("1")):
        missing = ~mask & full
        bit = (missing & -missing).bit_length() - 1
        plan.append((mask, mask | 1 << bit, bit))
    return plan
