"""Non-clustered B+-tree index.

The paper's indexed range selection rebuilds the sequential selection after
"constructing a non-clustered index on R.a2".  A non-clustered index stores
``(key, record-id)`` pairs in its leaves; a range probe descends from the
root, then walks the leaf chain, and fetches each qualifying record from the
heap file by its record id.  Because heap placement is unrelated to key
order, those fetches have far less spatial locality than the sequential scan
-- which is the paper's explanation for the indexed selection's larger memory
stall component despite touching fewer records (Section 5.1).

The tree here is a textbook B+-tree with:

* internal nodes holding separator keys and child pointers,
* leaf nodes holding sorted ``(key, rid)`` pairs and a next-leaf link,
* duplicate keys supported (the indexed attribute ``a2`` is non-unique),
* point insertion with node splits, point deletion (lazy, no rebalancing --
  sufficient for the workloads here and clearly documented), bulk loading
  from sorted input, exact and range probes.

Every node is assigned a virtual address in the ``index`` region of the
simulated address space so index traversals generate realistic data accesses
for the cache model.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..storage.address_space import AddressSpace
from ..storage.page import RecordId


class BTreeError(RuntimeError):
    """Raised on invalid index operations."""


#: Default fan-out values sized so that a node occupies roughly half a page,
#: giving realistic tree heights for the scaled-down relations.
DEFAULT_LEAF_CAPACITY = 64
DEFAULT_INTERNAL_CAPACITY = 64

#: Bytes charged per leaf/internal entry when sizing nodes in the simulated
#: address space (key + pointer + overhead).
_ENTRY_BYTES = 16
_NODE_HEADER_BYTES = 32


class _Node:
    """Common bookkeeping for internal and leaf nodes."""

    __slots__ = ("address", "keys")

    def __init__(self, address: int) -> None:
        self.address = address
        self.keys: List = []

    def entry_address(self, position: int) -> int:
        """Simulated address of the ``position``-th entry in this node."""
        return self.address + _NODE_HEADER_BYTES + position * _ENTRY_BYTES


class _LeafNode(_Node):
    __slots__ = ("rids", "next_leaf")

    def __init__(self, address: int) -> None:
        super().__init__(address)
        self.rids: List[RecordId] = []
        self.next_leaf: Optional["_LeafNode"] = None

    @property
    def is_leaf(self) -> bool:
        return True


class _InternalNode(_Node):
    __slots__ = ("children",)

    def __init__(self, address: int) -> None:
        super().__init__(address)
        self.children: List[_Node] = []

    @property
    def is_leaf(self) -> bool:
        return False


@dataclass(frozen=True)
class IndexProbeStep:
    """One node visit during a probe, for trace generation.

    ``address`` is the address of the entry that the search examined last in
    the node (binary search touches a handful of entries; the executor
    charges the node header plus this entry, a good model of the 1--2 cache
    lines a real node search touches).
    """

    node_address: int
    entry_address: int
    is_leaf: bool


@dataclass(frozen=True)
class IndexMatch:
    """One qualifying ``(key, rid)`` pair returned by a range probe."""

    key: object
    rid: RecordId
    entry_address: int


class BTreeIndex:
    """A non-clustered B+-tree mapping keys to heap record ids."""

    def __init__(self,
                 name: str,
                 address_space: AddressSpace,
                 leaf_capacity: int = DEFAULT_LEAF_CAPACITY,
                 internal_capacity: int = DEFAULT_INTERNAL_CAPACITY,
                 unique: bool = False) -> None:
        if leaf_capacity < 2 or internal_capacity < 3:
            raise BTreeError("node capacities are too small")
        self.name = name
        self.address_space = address_space
        self.leaf_capacity = leaf_capacity
        self.internal_capacity = internal_capacity
        self.unique = unique
        self._height = 1
        self._entry_count = 0
        self._node_count = 0
        self._root: _Node = self._new_leaf()

    # --------------------------------------------------------- construction
    def _allocate_node_address(self, capacity: int) -> int:
        size = _NODE_HEADER_BYTES + capacity * _ENTRY_BYTES
        return self.address_space.allocate("index", size, alignment=64)

    def _new_leaf(self) -> _LeafNode:
        self._node_count += 1
        return _LeafNode(self._allocate_node_address(self.leaf_capacity))

    def _new_internal(self) -> _InternalNode:
        self._node_count += 1
        return _InternalNode(self._allocate_node_address(self.internal_capacity))

    # -------------------------------------------------------------- metrics
    @property
    def height(self) -> int:
        return self._height

    @property
    def entry_count(self) -> int:
        return self._entry_count

    @property
    def node_count(self) -> int:
        return self._node_count

    # ---------------------------------------------------------- bulk loading
    def bulk_load(self, entries: Iterable[Tuple[object, RecordId]]) -> None:
        """Build the tree bottom-up from (key, rid) pairs.

        The input is sorted internally; bulk loading an already-populated
        index raises, matching the create-index-then-query usage of the
        paper's experiments.
        """
        if self._entry_count:
            raise BTreeError("bulk_load requires an empty index")
        pairs = sorted(entries, key=lambda kv: kv[0])
        if self.unique:
            for i in range(1, len(pairs)):
                if pairs[i][0] == pairs[i - 1][0]:
                    raise BTreeError(f"duplicate key {pairs[i][0]!r} in unique index {self.name!r}")
        if not pairs:
            return

        # Fill leaves to ~90% so subsequent inserts do not immediately split.
        fill = max(int(self.leaf_capacity * 0.9), 2)
        leaves: List[_LeafNode] = []
        for start in range(0, len(pairs), fill):
            leaf = self._new_leaf()
            chunk = pairs[start:start + fill]
            leaf.keys = [key for key, _ in chunk]
            leaf.rids = [rid for _, rid in chunk]
            if leaves:
                leaves[-1].next_leaf = leaf
            leaves.append(leaf)
        self._entry_count = len(pairs)

        # Build internal levels until a single root remains.
        level: List[_Node] = list(leaves)
        height = 1
        internal_fill = max(int(self.internal_capacity * 0.9), 3)
        while len(level) > 1:
            parents: List[_Node] = []
            for start in range(0, len(level), internal_fill):
                children = level[start:start + internal_fill]
                node = self._new_internal()
                node.children = list(children)
                node.keys = [self._smallest_key(child) for child in children[1:]]
                parents.append(node)
            level = parents
            height += 1
        self._root = level[0]
        self._height = height

    @staticmethod
    def _smallest_key(node: _Node):
        while not node.is_leaf:
            node = node.children[0]  # type: ignore[union-attr]
        return node.keys[0]

    # -------------------------------------------------------------- insert
    def insert(self, key, rid: RecordId) -> None:
        """Insert one entry, splitting nodes as needed."""
        result = self._insert_into(self._root, key, rid)
        if result is not None:
            separator, new_node = result
            new_root = self._new_internal()
            new_root.keys = [separator]
            new_root.children = [self._root, new_node]
            self._root = new_root
            self._height += 1
        self._entry_count += 1

    def _insert_into(self, node: _Node, key, rid: RecordId):
        if node.is_leaf:
            return self._insert_into_leaf(node, key, rid)  # type: ignore[arg-type]
        assert isinstance(node, _InternalNode)
        child_index = bisect.bisect_right(node.keys, key)
        result = self._insert_into(node.children[child_index], key, rid)
        if result is None:
            return None
        separator, new_child = result
        node.keys.insert(child_index, separator)
        node.children.insert(child_index + 1, new_child)
        if len(node.children) <= self.internal_capacity:
            return None
        # Split the internal node.
        mid = len(node.keys) // 2
        up_key = node.keys[mid]
        sibling = self._new_internal()
        sibling.keys = node.keys[mid + 1:]
        sibling.children = node.children[mid + 1:]
        node.keys = node.keys[:mid]
        node.children = node.children[:mid + 1]
        return up_key, sibling

    def _insert_into_leaf(self, leaf: _LeafNode, key, rid: RecordId):
        position = bisect.bisect_right(leaf.keys, key)
        if self.unique and position > 0 and leaf.keys[position - 1] == key:
            raise BTreeError(f"duplicate key {key!r} in unique index {self.name!r}")
        leaf.keys.insert(position, key)
        leaf.rids.insert(position, rid)
        if len(leaf.keys) <= self.leaf_capacity:
            return None
        # Split the leaf.
        mid = len(leaf.keys) // 2
        sibling = self._new_leaf()
        sibling.keys = leaf.keys[mid:]
        sibling.rids = leaf.rids[mid:]
        sibling.next_leaf = leaf.next_leaf
        leaf.keys = leaf.keys[:mid]
        leaf.rids = leaf.rids[:mid]
        leaf.next_leaf = sibling
        return sibling.keys[0], sibling

    # -------------------------------------------------------------- delete
    def delete(self, key, rid: Optional[RecordId] = None) -> int:
        """Delete entries with ``key`` (optionally only a specific rid).

        Returns the number of entries removed.  Underfull nodes are not
        rebalanced (lazy deletion); the tree stays correct for searches.
        """
        leaf, position = self._find_leaf(key)
        removed = 0
        while leaf is not None:
            while position < len(leaf.keys) and leaf.keys[position] == key:
                if rid is None or leaf.rids[position] == rid:
                    del leaf.keys[position]
                    del leaf.rids[position]
                    removed += 1
                    if rid is not None:
                        self._entry_count -= removed
                        return removed
                else:
                    position += 1
            if position < len(leaf.keys):
                break
            leaf = leaf.next_leaf
            position = 0
        self._entry_count -= removed
        return removed

    # -------------------------------------------------------------- search
    def _find_leaf(self, key) -> Tuple[_LeafNode, int]:
        node = self._root
        while not node.is_leaf:
            assert isinstance(node, _InternalNode)
            child_index = bisect.bisect_left(node.keys, key)
            node = node.children[child_index]
        assert isinstance(node, _LeafNode)
        return node, bisect.bisect_left(node.keys, key)

    def search(self, key) -> List[RecordId]:
        """Exact-match lookup; returns every rid stored under ``key``."""
        return [match.rid for match in self.range_search(key, key,
                                                         include_low=True, include_high=True)]

    def descend(self, key) -> List[IndexProbeStep]:
        """Return the root-to-leaf node visits for a probe of ``key``.

        The executor replays these visits as data accesses so the cache model
        sees the index traversal pattern.
        """
        steps: List[IndexProbeStep] = []
        node = self._root
        while not node.is_leaf:
            assert isinstance(node, _InternalNode)
            child_index = bisect.bisect_left(node.keys, key)
            probe_pos = min(child_index, max(len(node.keys) - 1, 0))
            steps.append(IndexProbeStep(node.address, node.entry_address(probe_pos), False))
            node = node.children[child_index]
        assert isinstance(node, _LeafNode)
        position = bisect.bisect_left(node.keys, key)
        probe_pos = min(position, max(len(node.keys) - 1, 0))
        steps.append(IndexProbeStep(node.address, node.entry_address(probe_pos), True))
        return steps

    def range_search(self, low, high,
                     include_low: bool = True,
                     include_high: bool = False) -> Iterator[IndexMatch]:
        """Yield entries with ``low <= key <= high`` (bounds configurable).

        ``None`` for either bound means unbounded on that side.
        """
        if low is None:
            leaf: Optional[_LeafNode] = self._leftmost_leaf()
            position = 0
        else:
            leaf, position = self._find_leaf(low)
            if not include_low:
                while (leaf is not None and position < len(leaf.keys)
                       and leaf.keys[position] == low):
                    position += 1
                    if position >= len(leaf.keys):
                        leaf = leaf.next_leaf
                        position = 0
        while leaf is not None:
            keys = leaf.keys
            while position < len(keys):
                key = keys[position]
                if high is not None:
                    if key > high or (key == high and not include_high):
                        return
                yield IndexMatch(key=key, rid=leaf.rids[position],
                                 entry_address=leaf.entry_address(position))
                position += 1
            leaf = leaf.next_leaf
            position = 0

    def _leftmost_leaf(self) -> _LeafNode:
        node = self._root
        while not node.is_leaf:
            node = node.children[0]  # type: ignore[union-attr]
        return node  # type: ignore[return-value]

    # ----------------------------------------------------------- statistics
    def key_bounds(self) -> Optional[Tuple[object, object]]:
        """``(smallest, largest)`` live key; ``None`` on an empty index.

        Two descents, no heap access: the planner's column statistics.
        Deletion is lazy, so the leaves at either end may have been emptied;
        the leftmost descent then follows the leaf chain to the first leaf
        that still holds a key, and the rightmost one backs up through the
        parents' earlier children (leaves have no previous-leaf link).
        """
        if not self._entry_count:
            return None
        first: Optional[_LeafNode] = self._leftmost_leaf()
        while not first.keys:
            first = first.next_leaf
        last = self._last_live_leaf(self._root)
        assert last is not None
        return first.keys[0], last.keys[-1]

    def _last_live_leaf(self, node: _Node) -> Optional[_LeafNode]:
        """Rightmost leaf below ``node`` that still holds a key."""
        if node.is_leaf:
            return node if node.keys else None  # type: ignore[return-value]
        for child in reversed(node.children):  # type: ignore[union-attr]
            leaf = self._last_live_leaf(child)
            if leaf is not None:
                return leaf
        return None

    # ------------------------------------------------------------ validation
    def keys_in_order(self) -> List:
        """All keys in leaf order (ascending); used by property tests."""
        out: List = []
        leaf: Optional[_LeafNode] = self._leftmost_leaf()
        while leaf is not None:
            out.extend(leaf.keys)
            leaf = leaf.next_leaf
        return out

    def check_invariants(self) -> None:
        """Verify structural invariants; raises :class:`BTreeError` on violation."""
        keys = self.keys_in_order()
        if keys != sorted(keys):
            raise BTreeError("leaf chain is not sorted")
        if len(keys) != self._entry_count:
            raise BTreeError(
                f"entry_count {self._entry_count} does not match leaf entries {len(keys)}")
        self._check_node(self._root, depth=1)

    def _check_node(self, node: _Node, depth: int) -> int:
        if node.is_leaf:
            if depth != self._height:
                raise BTreeError("leaves are not all at the same depth")
            return depth
        assert isinstance(node, _InternalNode)
        if len(node.children) != len(node.keys) + 1:
            raise BTreeError("internal node child/key count mismatch")
        for child in node.children:
            self._check_node(child, depth + 1)
        return depth

    def __len__(self) -> int:
        return self._entry_count

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"BTreeIndex({self.name!r}, {self._entry_count} entries, "
                f"height={self._height})")
