"""Evaluator equivalence: compiled/indexed evaluation vs the reference.

Property-style suites over sitegen-generated pages (DEALERS, DISC,
PRODUCTS) plus adversarial hand-written pages:

- the compiled xpath evaluator must match the tree-walking interpreter
  node-for-node (same node objects, same order) for child/descendant
  steps, positional and attribute predicates, and ``text()`` tails —
  on a fixed fragment-covering path catalog and on seeded random paths
  generated from each page's own tags/attributes;
- engine-backed wrapper extraction (posting trie / span tables) must
  be bitwise identical to the seed per-call semantics, re-implemented
  here verbatim as oracles;
- applying XPATH rules to a freshly parsed site (the per-page compiled
  route, which derives nothing site-wide) must match the same oracle
  for every enumerated candidate, rendered exactly or not.
"""

from __future__ import annotations

import functools
import random

import pytest

from repro.engine import EvaluationEngine
from repro.htmldom.dom import TextNode
from repro.xpathlang import compile_xpath, evaluate, parse_xpath
from repro.wrappers.hlrt import HLRTInductor
from repro.wrappers.lr import LRInductor
from repro.wrappers.xpath_inductor import XPathInductor, _FeatureIndex, _index_for

#: Fragment-covering catalog: child + descendant axes, positional and
#: attribute predicates (alone, stacked, and ordered), text() tails,
#: wildcards, and paths that match nothing.
PATH_CATALOG = [
    "/html",
    "//html",
    "//*",
    "//table",
    "//td",
    "//td[1]",
    "//td[2]",
    "//td[7]",
    "//tr[2]/td",
    "//table[1]/tr/td",
    "//tr/td[1]",
    "//td/text()",
    "//tr/td[2]/text()",
    "//u/text()",
    "/html/body//u/text()",
    "//div//tr/td[1]",
    "//*[2]",
    "//*[2]/text()",
    "//div[@class='dealerlinks']//td/text()",
    "//td[@class='missing']",
    "//span[@class='name']/text()",
    "//li[3]",
    "//table//td[2]",
    "//nosuchtag//td",
    "//body/*[1]",
]


def _sample_pages():
    """A spread of generated pages from every dataset family."""
    from repro.datasets.dealers import generate_dealers
    from repro.datasets.disc import generate_disc
    from repro.datasets.products import generate_products

    pages = []
    for generated in generate_dealers(n_sites=4, pages_per_site=3, seed=11).sites:
        pages.extend(generated.site.pages)
    for generated in generate_disc(n_sites=2, seed=23).sites:
        pages.extend(generated.site.pages[:3])
    for generated in generate_products(n_sites=2, pages_per_site=3, seed=37).sites:
        pages.extend(generated.site.pages)
    return pages


def _sample_sites():
    from repro.datasets.dealers import generate_dealers

    return [g.site for g in generate_dealers(n_sites=5, pages_per_site=4, seed=7).sites]


def _assert_same_nodes(path, page, reference, compiled):
    assert len(reference) == len(compiled), (str(path), page.page_index)
    for expected, got in zip(reference, compiled):
        assert expected is got, (str(path), page.page_index, expected, got)


class TestCompiledPathEquivalence:
    def test_catalog_paths_match_interpreter_node_for_node(self):
        pages = _sample_pages()
        assert len(pages) >= 20
        for page in pages:
            for path in PATH_CATALOG:
                _assert_same_nodes(
                    path, page, evaluate(path, page), compile_xpath(path).evaluate(page)
                )

    def test_random_paths_match_interpreter(self):
        """Seeded random paths built from each page's own vocabulary."""
        rng = random.Random(1234)
        pages = _sample_pages()
        for page in pages:
            tags = sorted({e.tag for e in page.root.iter_elements()})
            attrs = sorted(
                {
                    (name, value)
                    for e in page.root.iter_elements()
                    for name, value in e.attrs.items()
                }
            )
            for _ in range(30):
                steps = []
                for depth in range(rng.randint(1, 4)):
                    axis = rng.choice(["/", "//"]) if depth else "//"
                    test = rng.choice(tags + ["*"])
                    predicates = ""
                    if rng.random() < 0.4:
                        predicates += f"[{rng.randint(1, 4)}]"
                    if attrs and rng.random() < 0.4:
                        name, value = rng.choice(attrs)
                        quoted = value.replace("\\", "\\\\").replace("'", "\\'")
                        predicates += f"[@{name}='{quoted}']"
                    steps.append(f"{axis}{test}{predicates}")
                text = "/text()" if rng.random() < 0.5 else ""
                path = "".join(steps) + text
                _assert_same_nodes(
                    path, page, evaluate(path, page), compile_xpath(path).evaluate(page)
                )

    def test_learned_wrapper_paths_match_interpreter(self):
        """Rendered rules of induced wrappers, evaluated both ways."""
        inductor = XPathInductor()
        for site in _sample_sites():
            universe = sorted(inductor.candidates(site))
            rng = random.Random(99)
            for _ in range(10):
                labels = frozenset(rng.sample(universe, k=rng.randint(1, 5)))
                wrapper = inductor.induce(site, labels)
                path = wrapper.to_xpath()
                for page in site.pages:
                    _assert_same_nodes(
                        path,
                        page,
                        evaluate(path, page),
                        compile_xpath(path).evaluate(page),
                    )

    def test_memoized_evaluation_is_stable(self):
        page = _sample_pages()[0]
        compiled = compile_xpath("//td/text()")
        first = compiled.evaluate_cached(page)
        second = compiled.evaluate_cached(page)
        assert first is second  # memo hit, shared tuple
        assert list(first) == evaluate("//td/text()", page)

    def test_compile_xpath_deduplicates(self):
        a = compile_xpath("//tr/td[2]/text()")
        b = compile_xpath(parse_xpath("//tr/td[2]/text()"))
        assert a is b


# -- wrapper extraction vs seed semantics -----------------------------------


def _seed_xpath_extract(wrapper, site, index=None):
    """The seed's per-call subset test, verbatim (over ``index``, or
    the site's memoized feature index)."""
    if index is None:
        index = _index_for(site)
    wanted = wrapper.features
    return frozenset(
        node_id
        for node_id, feature_set in index.as_set.items()
        if wanted <= feature_set
    )


def _seed_lr_extract(wrapper, site):
    """The seed's page-walking LR extraction, verbatim."""
    found = set()
    for page in site.pages:
        source = page.source
        for node in page.nodes:
            if not isinstance(node, TextNode) or node.start < 0:
                continue
            if node.start < len(wrapper.left):
                continue
            if not source.startswith(wrapper.left, node.start - len(wrapper.left)):
                continue
            if not source.startswith(wrapper.right, node.end):
                continue
            found.add(node.node_id)
    return frozenset(found)


def _seed_hlrt_extract(wrapper, site):
    """The seed's windowed HLRT extraction, verbatim."""
    found = set()
    for page in site.pages:
        source = page.source
        window_start = 0
        window_end = len(source)
        if wrapper.head:
            at = source.find(wrapper.head)
            if at == -1:
                continue
            window_start = at + len(wrapper.head)
        if wrapper.tail:
            at = source.find(wrapper.tail, window_start)
            if at != -1:
                window_end = at
        for node in page.nodes:
            if not isinstance(node, TextNode) or node.start < 0:
                continue
            if node.start < window_start or node.end > window_end:
                continue
            if node.start < len(wrapper.left):
                continue
            if not source.startswith(wrapper.left, node.start - len(wrapper.left)):
                continue
            if not source.startswith(wrapper.right, node.end):
                continue
            found.add(node.node_id)
    return frozenset(found)


@pytest.mark.parametrize(
    "inductor,oracle",
    [
        (XPathInductor(), _seed_xpath_extract),
        (LRInductor(), _seed_lr_extract),
        (HLRTInductor(), _seed_hlrt_extract),
    ],
    ids=["xpath", "lr", "hlrt"],
)
def test_engine_extraction_matches_seed_semantics(inductor, oracle):
    engine = EvaluationEngine()
    for site in _sample_sites():
        universe = sorted(inductor.candidates(site))
        rng = random.Random(4321)
        wrappers = [
            inductor.induce(site, frozenset(rng.sample(universe, k=k)))
            for k in (1, 1, 2, 3, 5, 8)
        ]
        batched = engine.batch_extract(site, wrappers)
        for wrapper, extracted in zip(wrappers, batched):
            expected = oracle(wrapper, site)
            assert extracted == expected, wrapper.rule()
            # Single-path and memoized extraction agree with the batch.
            assert engine.extract(site, wrapper) == expected
            assert wrapper.extract(site) == expected


@pytest.mark.parametrize(
    "inductor,oracle",
    [
        (XPathInductor(), _seed_xpath_extract),
        (LRInductor(), _seed_lr_extract),
        (HLRTInductor(), _seed_hlrt_extract),
    ],
    ids=["xpath", "lr", "hlrt"],
)
def test_arena_backed_extraction_matches_dict_backed(tmp_path, inductor, oracle):
    """The PR-7 correctness bar: a site attached from its packed arena
    segment must extract bitwise-identically to the dict-backed site —
    and both must match the seed oracles run over the attached pages."""
    from repro.arena import ensure_arena, load_site

    engine = EvaluationEngine()
    for site in _sample_sites():
        universe = sorted(inductor.candidates(site))
        rng = random.Random(8765)
        wrappers = [
            inductor.induce(site, frozenset(rng.sample(universe, k=k)))
            for k in (1, 2, 3, 5)
        ]
        expected = [engine.extract(site, wrapper) for wrapper in wrappers]
        binding = ensure_arena(
            site, directory=str(tmp_path), include_postings=True
        )
        attached = load_site(binding.handle)
        arena_engine = EvaluationEngine()
        for wrapper, reference in zip(wrappers, expected):
            assert arena_engine.extract(attached, wrapper) == reference
            assert wrapper.extract(attached) == reference
            assert oracle(wrapper, attached) == reference


def test_empty_feature_wrapper_extracts_every_text_node():
    """No constraints -> the whole candidate universe (seed behavior)."""
    from repro.wrappers.xpath_inductor import XPathWrapper

    site = _sample_sites()[0]
    wrapper = XPathWrapper(features=frozenset())
    assert wrapper.extract(site) == site.text_node_ids()


def test_foreign_site_features_extract_nothing():
    """Features absent from a site have empty postings -> empty result."""
    from repro.wrappers.xpath_inductor import XPathWrapper

    site = _sample_sites()[0]
    wrapper = XPathWrapper(features=frozenset({((1, "tag"), "nosuchtag")}))
    assert wrapper.extract(site) == frozenset()


# -- per-page XPATH apply vs the seed oracle ---------------------------------


def _fresh(site):
    """A new parse of ``site``'s pages: no derived state, same node ids."""
    from repro.site import Site

    return Site.from_html(site.name, [page.source for page in site.pages])


def _candidates(inductor, generated, annotator):
    """Every TopDown candidate over the noisy labels plus all gold."""
    from repro.enumeration import enumerate_top_down

    labels = annotator.annotate(generated.site)
    for gold in generated.gold.values():
        labels |= gold
    return enumerate_top_down(inductor, generated.site, labels).wrappers


def _assert_fresh_apply_matches_seed(site, wrappers):
    """Apply ``wrappers`` to a fresh parse of ``site``, then check each
    result against the seed oracle, built only after every apply."""
    fresh = _fresh(site)
    engine = EvaluationEngine()
    applied = [engine.extract(fresh, wrapper) for wrapper in wrappers]
    # The per-page route left no learn-time structure on the site.
    assert not fresh.has_derived("xpath.features")
    assert not fresh.has_derived("xpath.trie")
    index = _FeatureIndex(fresh)
    for wrapper, extracted in zip(wrappers, applied):
        assert extracted == _seed_xpath_extract(wrapper, fresh, index), (
            wrapper.rule() if wrapper.exactly_renderable else wrapper.features
        )


@functools.cache
def _oracle_bundles():
    from repro.datasets.dealers import generate_dealers
    from repro.datasets.disc import generate_disc
    from repro.datasets.products import generate_products

    return [
        generate_dealers(n_sites=12, pages_per_site=4, seed=11),
        generate_disc(n_sites=4, seed=23),
        generate_products(n_sites=10, pages_per_site=4, seed=37),
    ]


def test_fresh_site_apply_matches_seed_for_every_candidate():
    """Every TopDown candidate, applied to a fresh parse of its site.

    Roughly a quarter of the candidates carry a child number at a
    position without a tag, so they take the filtered route.
    """
    inductor = XPathInductor()
    total = not_renderable = 0
    for bundle in _oracle_bundles():
        annotator = bundle.annotator()
        for generated in bundle.sites:
            wrappers = _candidates(inductor, generated, annotator)
            _assert_fresh_apply_matches_seed(generated.site, wrappers)
            total += len(wrappers)
            not_renderable += sum(
                not wrapper.exactly_renderable for wrapper in wrappers
            )
    assert total >= 500
    assert not_renderable >= 100


def test_fresh_apply_matches_seed_on_drifted_sites():
    """Rules enumerated on a site, applied to its drifted re-crawls."""
    from repro.datasets.sitegen import DRIFT_SEVERITIES, drift_site

    inductor = XPathInductor()
    total = 0
    for bundle in _oracle_bundles():
        annotator = bundle.annotator()
        for generated in bundle.sites[:2]:
            wrappers = _candidates(inductor, generated, annotator)
            for severity in DRIFT_SEVERITIES:
                drifted = drift_site(generated, severity=severity, seed=5)
                _assert_fresh_apply_matches_seed(drifted.site, wrappers)
                total += len(wrappers)
    assert total >= 200


def test_fresh_apply_matches_seed_on_edge_rules():
    """The empty rule, rules from other sites, and hand-written rules
    the xpath fragment cannot state."""
    from repro.wrappers.xpath_inductor import XPathWrapper

    inductor = XPathInductor()
    dealers, disc, _ = _oracle_bundles()
    site = dealers.sites[0].site
    foreign = _candidates(inductor, disc.sites[0], disc.annotator())
    td = ((1, "tag"), "td")
    edge = [
        XPathWrapper(features=frozenset()),
        XPathWrapper(features=frozenset({((1, "tag"), "nosuchtag")})),
        # Two values for one (position, kind): matches nothing.
        XPathWrapper(features=frozenset({td, ((1, "tag"), "th")})),
        # Position 0, an unknown kind, mistyped values, a "*" tag.
        XPathWrapper(features=frozenset({td, ((0, "tag"), "td")})),
        XPathWrapper(features=frozenset({td, ((1, "colour"), "red")})),
        XPathWrapper(features=frozenset({td, ((1, "childnum"), "1")})),
        XPathWrapper(features=frozenset({td, ((1, "childnum"), 1.0)})),
        XPathWrapper(features=frozenset({((1, "tag"), "*")})),
        XPathWrapper(features=frozenset({((2, "tag"), 7), td})),
        XPathWrapper(features=frozenset({((1, "@class"), None)})),
    ]
    assert not any(wrapper.exactly_renderable for wrapper in edge[2:])
    _assert_fresh_apply_matches_seed(site, edge + foreign)
    empty = EvaluationEngine().extract(_fresh(site), edge[0])
    assert empty == site.text_node_ids()


def test_learned_and_arena_sites_keep_the_trie(tmp_path):
    """Sites whose postings are already paid for extract through the
    trie: after induction, and when attached from a segment that packed
    them.  A segment without postings takes the per-page route."""
    from repro.arena import ensure_arena, load_site
    from repro.wrappers.xpath_inductor import _has_feature_postings

    site = _sample_sites()[0]
    fresh = _fresh(site)
    assert not _has_feature_postings(fresh)
    wrapper = XPathInductor().induce(
        fresh, frozenset(sorted(fresh.text_node_ids())[:2])
    )
    assert _has_feature_postings(fresh)
    expected = EvaluationEngine().extract(fresh, wrapper)
    assert fresh.has_derived("xpath.trie")

    for include_postings in (True, False):
        packed = _fresh(site)
        binding = ensure_arena(
            packed, directory=str(tmp_path), include_postings=include_postings
        )
        attached = load_site(binding.handle)
        assert _has_feature_postings(attached) is include_postings
        assert EvaluationEngine().extract(attached, wrapper) == expected
        assert attached.has_derived("xpath.trie") is include_postings
