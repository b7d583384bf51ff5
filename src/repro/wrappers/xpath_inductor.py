"""The XPATH wrapper inductor (Dalvi et al., SIGMOD'09; paper Sec. 5).

Every text node is described by the properties of its root path: at
position 1 (its parent element), position 2 (grandparent), and so on up
to the page root, the features are the tag name, the child number (the
node's 1-based index among same-tag siblings — the semantics of the
xpath filter ``td[2]``), and each HTML attribute.  Induction is the
intersection of the label feature sets — the most specific rule in the
fragment consistent with all labels — and extraction matches any text
node whose features contain the intersection.

The learned wrapper renders to an xpath of the supported fragment
(:meth:`XPathWrapper.to_xpath`); rendering is exact (evaluating the
xpath reproduces ``extract``) whenever every position carrying a
child-number constraint also carries a tag constraint, which
:attr:`XPathWrapper.exactly_renderable` reports.

Extraction takes one of two routes, chosen by what the site already
holds (see :func:`_extract_xpath`): learning builds the site-wide
feature index anyway, so ranking hundreds of candidates intersects
posting sets through a shared prefix trie; applying a stored rule to a
fresh crawl instead evaluates the rendered xpath page by page against
the indexes every parsed page carries, and derives nothing site-wide.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator
from dataclasses import dataclass

from repro.engine import (
    FeatureTrie,
    build_postings,
    get_engine,
    register_extractor,
)
from repro.htmldom.dom import Document, ElementNode, NodeId, TextNode
from repro.site import Site
from repro.wrappers.base import (
    Attribute,
    FeatureBasedInductor,
    Labels,
    Wrapper,
    spec_kind,
)
from repro.xpathlang.ast import (
    AttributePredicate,
    Axis,
    LocationPath,
    PositionPredicate,
    Predicate,
    Step,
)
from repro.xpathlang.compiled import compile_xpath

#: Feature attributes are ``(position, kind)`` with position >= 1 counted
#: from the text node's parent upward; kind is ``"tag"``, ``"childnum"``
#: or ``"@<attrname>"``.
PathAttribute = tuple[int, str]


def _node_features(node: TextNode) -> dict[PathAttribute, Hashable]:
    """Root-path feature map of a text node."""
    features: dict[PathAttribute, Hashable] = {}
    position = 0
    for ancestor in node.ancestors():
        position += 1
        features[(position, "tag")] = ancestor.tag
        features[(position, "childnum")] = ancestor.child_number()
        for name, value in ancestor.attrs.items():
            features[(position, "@" + name)] = value
    return features


class _FeatureIndex:
    """Per-site cache of text-node feature maps (computed once per page).

    ``as_set`` holds the same features as frozensets of items so that
    wrapper matching is a single C-speed subset test.  Feature maps
    depend only on the text node's parent chain, so nodes sharing a
    parent share one map (and one frozenset) — the dicts are treated as
    read-only throughout the inductor.
    """

    __slots__ = ("by_node", "as_set")

    def __init__(self, site: Site) -> None:
        self.by_node: dict[NodeId, dict[PathAttribute, Hashable]] = {}
        self.as_set: dict[NodeId, frozenset] = {}
        for page in site.pages:
            by_parent: dict[int, tuple[dict, frozenset]] = {}
            for node in page.nodes:
                if not isinstance(node, TextNode):
                    continue
                key = id(node.parent)
                shared = by_parent.get(key)
                if shared is None:
                    features = _node_features(node)
                    shared = (features, frozenset(features.items()))
                    by_parent[key] = shared
                self.by_node[node.node_id] = shared[0]
                self.as_set[node.node_id] = shared[1]


def _packed_postings(site: Site):
    """The site's arena binding if its segment packed feature postings."""
    binding = getattr(site, "_arena", None)
    if (
        binding is not None
        and binding.reader is not None
        and binding.reader.has("feat.offs")
    ):
        return binding
    return None


def _build_trie(site: Site) -> FeatureTrie:
    # Arena-attached sites ship their feature postings pre-packed in the
    # mapped segment: serve the trie straight off those flat arrays —
    # no feature-map pass, no posting inversion, postings materialize
    # lazily per item on first lookup.
    binding = _packed_postings(site)
    if binding is not None:
        from repro.arena.sitepack import ArenaPostings, arena_text_universe

        # Postings and universe stay in packed int space (page<<32|pre):
        # the trie intersects plain int frozensets at C speed and the
        # engine decodes only the final (small) result set to NodeIds.
        return FeatureTrie(
            ArenaPostings(binding.reader, binding.pool),
            universe=arena_text_universe(binding.reader),
        )
    index = _index_for(site)
    return FeatureTrie(
        build_postings(index.as_set), universe=frozenset(index.as_set)
    )


def _site_trie(site: Site) -> FeatureTrie:
    """The site's posting trie (built from the feature index on demand)."""
    return site.derived("xpath.trie", _build_trie)


def _has_feature_postings(site: Site) -> bool:
    """Whether the site's feature postings are already paid for.

    True once induction has built the feature index on the site, or
    when the site is attached from an arena segment that packed its
    postings.  Duck-typed page collections hold neither.
    """
    return isinstance(site, Site) and (
        site.has_derived("xpath.features") or _packed_postings(site) is not None
    )


def _index_for(site: Site) -> _FeatureIndex:
    """Feature index for ``site``, memoized on the site itself.

    Both induction (feature maps, attribute streams) and extraction
    (posting trie) read this one structure, whatever engine instance is
    driving — duck-typed page collections are served uncached.
    """
    if isinstance(site, Site):
        return site.derived("xpath.features", _FeatureIndex)
    return _FeatureIndex(site)


@spec_kind("xpath")
@dataclass(frozen=True)
class XPathWrapper(Wrapper):
    """An XPATH rule: a frozen root-path feature set."""

    features: frozenset[tuple[PathAttribute, Hashable]]

    def to_spec(self) -> dict:
        """Portable spec: features as sorted ``[position, kind, value]`` rows.

        Feature values are tag names / attribute values (strings) or
        child numbers (ints), so the rows survive a JSON round-trip
        unchanged.
        """
        rows = sorted(
            [position, kind, value]
            for (position, kind), value in self.features
        )
        return {"kind": "xpath", "features": rows}

    @classmethod
    def from_spec(cls, spec: dict) -> "XPathWrapper":
        return cls(
            features=frozenset(
                ((int(position), str(kind)), value)
                for position, kind, value in spec["features"]
            )
        )

    def extract(self, corpus: Site) -> Labels:
        """Extraction through the engine (see :func:`_extract_xpath`).

        Equivalent (node for node) to testing ``self.features`` as a
        subset of every text node's feature set; the engine memoizes
        the result per ``(site, wrapper)``.
        """
        return get_engine().extract(corpus, self)

    @property
    def exactly_renderable(self) -> bool:
        """True when :meth:`to_xpath` evaluates to exactly ``extract``.

        A child-number constraint at a position with no tag constraint
        renders as an unfiltered ``*`` step, which is strictly more
        general than the feature test.  So does a feature the fragment
        cannot state (see :func:`_statable`) or a second value for one
        ``(position, kind)``; learned rules have neither.
        """
        keys = {key for key, _ in self.features}
        if len(keys) != len(self.features):
            return False
        if not all(_statable(feature) for feature in self.features):
            return False
        positions_with_childnum = {pos for pos, kind in keys if kind == "childnum"}
        positions_with_tag = {pos for pos, kind in keys if kind == "tag"}
        return positions_with_childnum <= positions_with_tag

    def to_xpath(self) -> LocationPath:
        """Render the feature set as a path in the supported fragment."""
        by_position: dict[int, dict[str, Hashable]] = {}
        for (position, kind), value in self.features:
            by_position.setdefault(position, {})[kind] = value
        max_position = max(by_position, default=0)
        steps: list[Step] = []
        for position in range(max_position, 0, -1):
            kinds = by_position.get(position, {})
            predicates: list[Predicate] = []
            test = str(kinds.get("tag", "*"))
            if "childnum" in kinds and "tag" in kinds:
                predicates.append(PositionPredicate(int(kinds["childnum"])))
            for kind, value in sorted(kinds.items()):
                if kind.startswith("@"):
                    predicates.append(
                        AttributePredicate(name=kind[1:], value=str(value))
                    )
            axis = Axis.DESCENDANT if position == max_position else Axis.CHILD
            steps.append(Step(axis=axis, test=test, predicates=tuple(predicates)))
        if not steps:
            steps = [Step(axis=Axis.DESCENDANT, test="*", predicates=())]
        return LocationPath(steps=tuple(steps), selects_text=True)

    def rule(self) -> str:
        return str(self.to_xpath())


def _statable(feature: tuple[PathAttribute, Hashable]) -> bool:
    """Whether :meth:`XPathWrapper.to_xpath` states ``feature`` exactly.

    Learned features always are; a hand-written or foreign spec may
    carry a position below 1, an unknown kind, or a value of the wrong
    type, which no text node's feature map can contain.
    """
    (position, kind), value = feature
    if type(position) is not int or position < 1:
        return False
    if kind == "tag":
        return isinstance(value, str) and value != "*"
    if kind == "childnum":
        return type(value) is int
    return isinstance(kind, str) and kind.startswith("@") and isinstance(value, str)


@register_extractor(XPathWrapper)
def _extract_xpath(site: Site, wrapper: XPathWrapper) -> Labels:
    """Compiled extraction, through whatever the site already holds.

    A site whose feature postings are already paid for (see
    :func:`_has_feature_postings`) intersects the posting sets of the
    rule's features via its shared prefix trie.  Any other site is
    evaluated page by page (:func:`_extract_per_page`).  Both routes
    return the same node ids.
    """
    if not _has_feature_postings(site):
        return _extract_per_page(site, wrapper)
    trie = _site_trie(site)
    result = trie.lookup(wrapper.features)
    # Arena tries intersect packed int codes; decode the final (small)
    # result set back to NodeIds at this one boundary.
    decode = getattr(trie.postings, "decode_result", None)
    return decode(result) if decode is not None else result


def _extract_per_page(site: Site, wrapper: XPathWrapper) -> Labels:
    """Evaluate the rendered rule against each page's own indexes.

    A rule :attr:`~XPathWrapper.exactly_renderable` is its xpath.  Any
    other rule evaluates the xpath of its statable features, which
    matches a superset of the rule, and keeps the result nodes whose
    root-path features contain the whole rule.
    """
    exact = wrapper.exactly_renderable
    rendered = (
        wrapper
        if exact
        else XPathWrapper(frozenset(filter(_statable, wrapper.features)))
    )
    compiled = compile_xpath(rendered.to_xpath())
    found = [node for page in site.pages for node in compiled.evaluate_cached(page)]
    if not exact:
        wanted = wrapper.features
        found = [
            node
            for node in found
            if wanted <= frozenset(_node_features(node).items())
        ]
    return frozenset(node.node_id for node in found)


class XPathInductor(FeatureBasedInductor):
    """Induces :class:`XPathWrapper` rules from labeled text nodes."""

    def feature_map(self, corpus: Site, node_id: NodeId) -> dict[Attribute, Hashable]:
        return _index_for(corpus).by_node[node_id]

    def attribute_stream(self, corpus: Site, labels: Labels) -> Iterator[Attribute]:
        """All attributes any label carries (finite: bounded by tree depth)."""
        seen: set[Attribute] = set()
        index = _index_for(corpus)
        for node_id in sorted(labels):
            for attr in index.by_node[node_id]:
                if attr not in seen:
                    seen.add(attr)
                    yield attr

    def wrapper_for_features(
        self, corpus: Site, features: dict[Attribute, Hashable]
    ) -> XPathWrapper:
        return XPathWrapper(features=frozenset(features.items()))

    def candidates(self, corpus: Site) -> Labels:
        return corpus.text_node_ids()
