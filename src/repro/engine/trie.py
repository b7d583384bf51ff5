"""Prefix-sharing batch evaluation of feature-set wrappers.

The enumerated candidate space of a feature-based inductor is a family
of feature sets that overlap heavily: every candidate is a superset of
the features shared by its label subset, so candidates for one site
share long common cores.  :class:`FeatureTrie` exploits that overlap —
it maps each feature item to its *posting set* (the node ids carrying
the item) and evaluates a wrapper as the intersection of its items'
postings, walking a trie keyed by a canonical item order so that shared
prefixes are intersected exactly once per site, however many candidates
(or ranking passes) reuse them.

Item order is most-selective-first: rare items (small postings) come
first, so intersections shrink immediately and the cached prefix sets
stay small.  Posting sizes are per-site constants, which keeps the
order canonical across every wrapper evaluated on the site.

A trie that outgrows its node bound (``trie_node_bound`` in
:mod:`repro.engine.config`) sheds its least-recently-used *leaves*
rather than resetting wholesale: every lookup stamps the nodes along
its path with a recency tick, and eviction peels cold leaves inward
(a parent whose last child is evicted becomes a leaf itself) until the
trie is back under three quarters of the bound.  Long learning runs
and arena-attached sites therefore keep the hot prefix sets of the
wrappers they actually re-evaluate, losing only the cold tails.
(Applying a stored rule to a fresh crawl does not build a trie at all;
see :func:`repro.wrappers.xpath_inductor._extract_xpath`.)
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Hashable, Iterable, Mapping

from repro.engine.config import get_config
from repro.htmldom.dom import NodeId

#: Trie-node layout (plain lists keep the hot path allocation-light):
#: the set at this prefix, child edges by item, the parent node, the
#: edge item leading here, and the recency tick of the last lookup
#: that touched this node.
_SET = 0
_CHILDREN = 1
_PARENT = 2
_ITEM = 3
_TICK = 4

_EMPTY: frozenset[NodeId] = frozenset()


class FeatureTrie:
    """Shared-prefix evaluator over a fixed posting index.

    Args:
        postings: feature item -> frozenset of node ids carrying it.
        universe: result for the empty feature set (every candidate
            node, typically all text nodes of the site).
        node_bound: max trie nodes before LRU leaf eviction; ``None``
            reads the live :func:`repro.engine.config.get_config` bound
            at each lookup, so reconfiguring shrinks existing tries.
    """

    __slots__ = (
        "postings",
        "universe",
        "node_bound",
        "_order_keys",
        "_root",
        "_nodes",
        "_tick",
    )

    def __init__(
        self,
        postings: Mapping[Hashable, frozenset[NodeId]],
        universe: frozenset[NodeId],
        node_bound: int | None = None,
    ) -> None:
        self.postings = postings
        self.universe = universe
        self.node_bound = node_bound
        # Canonical total order: ascending posting size, then a stable
        # textual key (items mix tuple shapes, so they are not directly
        # comparable).  Lazy posting stores (the arena's
        # :class:`~repro.arena.sitepack.ArenaPostings`) expose the same
        # keys through ``order_keys()`` without materializing a single
        # posting frozenset — sizes come straight from the packed
        # offset table.
        order_keys = getattr(postings, "order_keys", None)
        if order_keys is not None:
            self._order_keys: dict[Hashable, tuple[int, str]] = dict(
                order_keys()
            )
        else:
            self._order_keys = {
                item: (len(nodes), repr(item))
                for item, nodes in postings.items()
            }
        self._root: list = [universe, {}, None, None, 0]
        self._nodes = 1
        self._tick = 0

    @property
    def node_count(self) -> int:
        """Current number of trie nodes (root included)."""
        return self._nodes

    def lookup(self, items: Iterable[Hashable]) -> frozenset[NodeId]:
        """Nodes whose feature set contains every item (∩ of postings)."""
        order_keys = self._order_keys
        missing_key = (len(self.universe) + 1, "")
        ordered = sorted(
            items, key=lambda item: order_keys.get(item, missing_key)
        )
        self._tick += 1
        tick = self._tick
        node = self._root
        postings = self.postings
        result: frozenset[NodeId] = node[_SET]
        for item in ordered:
            child = node[_CHILDREN].get(item)
            if child is None:
                parent_set: frozenset[NodeId] = node[_SET]
                posting = postings.get(item)
                current = parent_set & posting if posting else _EMPTY
                child = [current, {}, node, item, tick]
                node[_CHILDREN][item] = child
                self._nodes += 1
            node = child
            node[_TICK] = tick
            if not node[_SET]:
                result = _EMPTY
                break
        else:
            result = node[_SET]
        bound = (
            self.node_bound
            if self.node_bound is not None
            else get_config().trie_node_bound
        )
        if self._nodes > bound:
            self._evict(bound)
        return result

    def _evict(self, bound: int) -> None:
        """Peel least-recently-used leaves until under 3/4 of ``bound``.

        Leaves carry the ticks of the last lookup that reached them;
        removing a leaf may expose its parent as the next candidate, so
        cold branches are peeled inward while hot prefixes survive.
        """
        target = max(1, (bound * 3) // 4)
        counter = itertools.count()  # tie-break: lists are not comparable
        heap: list[tuple[int, int, list]] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            children = node[_CHILDREN]
            if children:
                stack.extend(children.values())
            elif node is not self._root:
                heapq.heappush(heap, (node[_TICK], next(counter), node))
        while heap and self._nodes > target:
            _, _, node = heapq.heappop(heap)
            parent = node[_PARENT]
            del parent[_CHILDREN][node[_ITEM]]
            node[_PARENT] = None
            self._nodes -= 1
            if not parent[_CHILDREN] and parent is not self._root:
                heapq.heappush(heap, (parent[_TICK], next(counter), parent))


def build_postings(
    feature_sets: Mapping[NodeId, frozenset],
) -> dict[Hashable, frozenset[NodeId]]:
    """Invert per-node feature sets into per-item posting sets."""
    raw: dict[Hashable, set[NodeId]] = {}
    for node_id, items in feature_sets.items():
        for item in items:
            bucket = raw.get(item)
            if bucket is None:
                raw[item] = {node_id}
            else:
                bucket.add(node_id)
    return {item: frozenset(nodes) for item, nodes in raw.items()}
