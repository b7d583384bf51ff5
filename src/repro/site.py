"""A *site*: the unit over which wrappers are induced.

The paper's setting is one wrapper per website — all pages of a site are
generated by the same rendering script, so a rule learned on some pages
extracts from all of them.  :class:`Site` bundles the parsed pages of one
website and provides the node-id indexed view (the vector ``A-hat`` of
Section 2.1) that inductors, annotators and the ranking model share.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Iterator

from repro.htmldom.dom import Document, ElementNode, Node, NodeId, TextNode
from repro.htmldom.treebuilder import parse_html


def digest_framed(digest, text: str) -> None:
    """Feed ``text`` into ``digest`` with length-prefixed framing.

    The one framing rule shared by every content digest (see
    :meth:`Site.content_fingerprint` and the batch scheduler's site
    keys): adjacent strings can never blur into each other, and a raw
    ``(name, sources)`` pair hashes identically to its parsed ``Site``.
    """
    data = text.encode("utf-8", "surrogatepass")
    digest.update(len(data).to_bytes(4, "big"))
    digest.update(data)


def sources_fingerprint(sources: Iterable[str]) -> str:
    """Content fingerprint of raw page sources — no parsing required.

    Framing matches :meth:`Site.content_fingerprint` for pages parsed
    from HTML (which digest their source verbatim), so a raw page list
    and its parsed :class:`Site` produce the same digest.  This is the
    key of the service layer's wrapper registry and of the batch
    scheduler's ship-once ledgers: callers holding only crawler HTML can
    ask "do we already have a wrapper for these pages?" without paying
    for a parse.
    """
    digest = hashlib.blake2b(digest_size=10)
    for source in sources:
        digest_framed(digest, str(source))
        digest.update(b"\x00")
    return digest.hexdigest()


class Site:
    """An ordered collection of pages from one website."""

    __slots__ = ("name", "pages", "_stripped_index", "_derived", "_arena", "__weakref__")

    def __init__(self, name: str, pages: list[Document]) -> None:
        for index, page in enumerate(pages):
            if page.page_index != index:
                raise ValueError(
                    f"page {index} of site {name!r} has page_index={page.page_index}; "
                    "construct pages with consecutive page_index values "
                    "(or use Site.from_html)"
                )
        self.name = name
        self.pages = pages
        self._stripped_index: dict[str, list[NodeId]] | None = None
        self._derived: dict = {}
        #: Arena binding (:class:`repro.arena.ArenaBinding`) once this
        #: site has been packed into — or attached from — a shared
        #: segment.  Weakref support exists for the same layer: segment
        #: lifetime is tied to site liveness via ``weakref.finalize``.
        self._arena = None

    def derived(self, key, build):
        """Memoize an immutable structure derived from this site.

        Sites are immutable after construction, so anything computed
        purely from the pages (feature indexes, posting tries, span
        tables — see :mod:`repro.engine`) is valid for the site's
        lifetime and lives with the site rather than with any engine.
        ``build`` is called with the site on the first request for
        ``key``; derived state is dropped on pickling (it is
        acceleration state, not payload).
        """
        value = self._derived.get(key)
        if value is None:
            value = build(self)
            self._derived[key] = value
        return value

    def has_derived(self, key) -> bool:
        """Whether ``key`` has been derived (see :meth:`derived`)."""
        return key in self._derived

    def content_fingerprint(self) -> str:
        """Stable hex digest of this site's page *content*.

        Used by the batch scheduler to key ship-once payload ledgers
        and worker intern tables: two sites that share a ``name`` but
        differ in content must never alias one interned copy.  Pages
        parsed from HTML are digested by their source (which fully
        determines the frozen tree); hand-built pages — whose ``source``
        may be empty or unrelated to the tree — are digested
        structurally (tags, attributes, text), so same-named sites with
        different hand-built trees still get distinct fingerprints.
        Memoized on the site (sites are immutable after construction).
        """

        def build(site: "Site") -> str:
            digest = hashlib.blake2b(digest_size=10)
            for page in site.pages:
                if page.from_source:
                    digest_framed(digest, page.source)
                else:
                    for node in page.nodes:
                        if isinstance(node, ElementNode):
                            # Pre-order + per-node arity pins the tree
                            # shape (not just the flat node sequence).
                            digest.update(b"e")
                            digest.update(
                                len(node.children).to_bytes(4, "big")
                            )
                            digest_framed(digest, node.tag)
                            for name, value in sorted(node.attrs.items()):
                                digest.update(b"a")
                                digest_framed(digest, name)
                                digest_framed(digest, value)
                        elif isinstance(node, TextNode):
                            digest.update(b"t")
                            digest_framed(digest, node.text)
                digest.update(b"\x00")
            return digest.hexdigest()

        return self.derived("content_fingerprint", build)

    # Arena-bound sites cross process boundaries as a lightweight
    # segment handle: unpickling *attaches* (mmap + adopt the frozen
    # layout) instead of re-parsing and re-freezing.  Sites without a
    # segment keep the regular state-dict path below.
    def __reduce_ex__(self, protocol):
        binding = self._arena
        if binding is not None:
            from repro.arena import attach_site

            return (attach_site, (binding.handle,))
        return super().__reduce_ex__(protocol)

    def __getstate__(self):
        return {"name": self.name, "pages": self.pages}

    def __setstate__(self, state):
        self.name = state["name"]
        self.pages = state["pages"]
        self._stripped_index = None
        self._derived = {}
        self._arena = None

    @classmethod
    def from_html(cls, name: str, page_sources: Iterable[str]) -> "Site":
        """Parse raw HTML strings into a site (pages indexed in order)."""
        pages = [
            parse_html(source, page_index=index)
            for index, source in enumerate(page_sources)
        ]
        return cls(name, pages)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Site {self.name!r} pages={len(self.pages)}>"

    def __len__(self) -> int:
        return len(self.pages)

    def node(self, node_id: NodeId) -> Node:
        """Resolve a node id to its node."""
        return self.pages[node_id.page].node(node_id)

    def text_node(self, node_id: NodeId) -> TextNode:
        """Resolve a node id that must reference a text node."""
        node = self.node(node_id)
        if not isinstance(node, TextNode):
            raise TypeError(f"{node_id} is not a text node")
        return node

    def iter_text_node_ids(self) -> Iterator[NodeId]:
        """All text-node ids across all pages, in site order."""
        for page in self.pages:
            for node in page.nodes:
                if isinstance(node, TextNode):
                    yield node.node_id

    def text_node_ids(self) -> frozenset[NodeId]:
        return frozenset(self.iter_text_node_ids())

    def total_text_nodes(self) -> int:
        return sum(1 for _ in self.iter_text_node_ids())

    def find_text_nodes(self, text: str) -> list[NodeId]:
        """Ids of text nodes whose (stripped) text equals ``text``.

        Backed by a stripped-text → node-ids map built once per site
        (pages are immutable after parse), so annotators probing many
        dictionary entries stop re-stripping every text node per probe.
        """
        index = self._stripped_index
        if index is None:
            index = {}
            for page in self.pages:
                for node in page.nodes:
                    if isinstance(node, TextNode):
                        index.setdefault(node.text.strip(), []).append(
                            node.node_id
                        )
            self._stripped_index = index
        return list(index.get(text.strip(), ()))
