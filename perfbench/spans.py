"""Outside-in span recorder for the traced run.

Spans are recorded from the benchmark's own files, around calls into
the program's public functions: the recorder swaps each traced function
(or method) for a wrapper that opens a span, calls the original, and
closes the span; the program's source is untouched.  A span records
its name, start, end and parent; a layer's *self* time is its span's
duration minus the time its child spans cover.

Gen-2 garbage collections are attributed through ``gc.callbacks``: each
pause becomes a ``gc.gen2`` child of the span open when it started, so
it is taken out of that layer's self time and reported on its own.

Spans are kept in memory and written out once, when the traced run
ends.  The root span of a traced pass is ``harness.other``: its self
time is the residue no layer span covers, and the layer self times plus
GC plus that residue add up to the traced wall time by construction.
The tiling gate (:func:`check_tiling`) fails the run when the residue
exceeds :data:`RESIDUE_TOLERANCE` of the wall time.  The tracing
overhead comes from the same inputs run untraced, slice by slice in
alternation with the traced run (:func:`interleave`).
"""

from __future__ import annotations

import gc
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

from common import BenchError

#: Largest share of the traced wall time the residue may take.
RESIDUE_TOLERANCE = 0.10

ROOT_SPAN = "harness.other"
GC_SPAN = "gc.gen2"

_DERIVE_NAMES = {
    "xpath.features": "engine.derive.xpath_features",
    "xpath.trie": "engine.derive.xpath_trie",
    "text_spans": "engine.derive.text_spans",
}

_WRAPPER_KINDS = {
    "XPathWrapper": "xpath",
    "LRWrapper": "lr",
    "HLRTWrapper": "hlrt",
}


class SpanRecorder:
    """In-memory span store with a stack of open spans (one thread)."""

    def __init__(self) -> None:
        # Each span: [name, start, end, parent index or -1, attrs].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._gc_open: tuple[float, int] | None = None
        self._patches: list[tuple[object, str, object]] = []
        self.bytes_tokenized = 0

    # -- spans ---------------------------------------------------------

    def open(self, name: str, attrs: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, attrs])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:  # pragma: no cover - would be a recorder bug
            raise BenchError(f"span stack corrupted at {self.spans[index][0]}")

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def _on_gc(self, phase: str, info: dict) -> None:
        if info.get("generation") != 2:
            return
        if phase == "start":
            parent = self._stack[-1] if self._stack else -1
            self._gc_open = (time.perf_counter(), parent)
        elif self._gc_open is not None:
            start, parent = self._gc_open
            self._gc_open = None
            self.spans.append(
                [GC_SPAN, start, time.perf_counter(), parent, None]
            )

    # -- installing the wrappers ------------------------------------------

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_function(self, original, replacement) -> None:
        """Rebind ``original`` in every program module that imported it."""
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, replacement)

    def install(self, annotator_type: type | None = None) -> None:
        """Wrap the public layer entry points and hook the collector."""
        from repro.api.extractor import Extractor
        from repro.engine.core import EvaluationEngine
        from repro.enumeration import enumerate_bottom_up, enumerate_top_down
        from repro.htmldom.dom import Document
        from repro.htmldom.tokenizer import tokenize
        from repro.htmldom.treebuilder import parse_html
        from repro.ranking.scorer import WrapperScorer
        from repro.site import Site

        recorder = self

        def traced(name, original, attrs_of=None):
            def wrapper(*args, **kwargs):
                index = recorder.open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    recorder.close(index)
                if attrs_of is not None:
                    recorder.spans[index][4] = attrs_of(args, result)
                return result

            return wrapper

        def tokenized(args, result):
            recorder.bytes_tokenized += len(args[0])
            return None

        self._patch_function(
            tokenize, traced("htmldom.tokenize", tokenize, tokenized)
        )
        self._patch_function(parse_html, traced("htmldom.tree", parse_html))
        self._patch(
            Document, "__init__", traced("htmldom.freeze", Document.__init__)
        )

        original_derived = Site.derived

        def derived(site, key, build):
            name = _DERIVE_NAMES.get(key, "engine.derive.other")

            def traced_build(target):
                index = recorder.open(name)
                try:
                    return build(target)
                finally:
                    recorder.close(index)

            return original_derived(site, key, traced_build)

        self._patch(Site, "derived", derived)

        original_extract = EvaluationEngine.extract

        def extract(engine, corpus, wrapper):
            kind = _WRAPPER_KINDS.get(type(wrapper).__name__, "other")
            index = recorder.open("engine.extract." + kind)
            try:
                return original_extract(engine, corpus, wrapper)
            finally:
                recorder.close(index)

        self._patch(EvaluationEngine, "extract", extract)

        def enumerated(args, result):
            return {
                "wrappers": result.size,
                "inductor_calls": result.inductor_calls,
            }

        for function in (enumerate_top_down, enumerate_bottom_up):
            self._patch_function(
                function,
                traced("enumeration.enumerate", function, enumerated),
            )
        self._patch(
            WrapperScorer,
            "rank",
            traced(
                "ranking.rank",
                WrapperScorer.rank,
                lambda args, result: {"candidates": len(args[2])},
            ),
        )
        self._patch(
            Extractor, "learn", traced("api.extractor.learn", Extractor.learn)
        )
        if annotator_type is not None:
            self._patch(
                annotator_type,
                "annotate",
                traced(
                    "annotators.annotate",
                    annotator_type.annotate,
                    lambda args, result: {"labels": len(result)},
                ),
            )
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def tracing(self, annotator_type: type | None = None):
        """Install the wrappers, run the body under a root span, undo."""
        self.install(annotator_type)
        try:
            with self.span(ROOT_SPAN):
                yield self
        finally:
            self.uninstall()

    # -- summaries ---------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: total self seconds, call count, attr sums,
        plus the roots' wall time and the longest GC pause."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        attrs: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        wall = 0.0
        max_gc = 0.0
        for index, (name, start, end, parent, extra) in enumerate(self.spans):
            duration = end - start
            self_s[name] += duration - child_time[index]
            calls[name] += 1
            if parent < 0:
                wall += duration
            if name == GC_SPAN:
                max_gc = max(max_gc, duration)
            if extra:
                for key, value in extra.items():
                    attrs[name][key] += value
        return {
            "wall_s": wall,
            "self_s": dict(self_s),
            "calls": dict(calls),
            "attrs": {name: dict(values) for name, values in attrs.items()},
            "gc_max_s": max_gc,
            "bytes_tokenized": self.bytes_tokenized,
        }

    def write(self, path: Path) -> None:
        """Write every span, once, as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "attrs"],
                    "spans": self.spans,
                },
                handle,
            )


@contextmanager
def gc_pauses():
    """Yield a one-item list that accumulates the body's gen-2 pause
    seconds (whether or not a recorder is tracing)."""
    total = [0.0]
    started: list[float] = []

    def callback(phase: str, info: dict) -> None:
        if info.get("generation") != 2:
            return
        if phase == "start":
            started[:] = [time.perf_counter()]
        elif started:
            total[0] += time.perf_counter() - started.pop()

    gc.callbacks.append(callback)
    try:
        yield total
    finally:
        gc.callbacks.remove(callback)


#: Slices the twin alternates traced and untraced passes over.
INTERLEAVE_SLICES = 16


def interleave(recorder: SpanRecorder, annotator_type, run, count: int) -> float:
    """Run ``run(traced, part)`` over ``count`` inputs in slices, each
    slice untraced and traced in ABBA order, so machine drift over the
    run falls on both sides alike; return the tracing overhead.

    Gen-2 pauses are taken out of both sides: they are a third of these
    passes and vary more from pass to pass than the wrappers cost.  No
    collection is forced between slices, so the traced side's GC
    metrics keep the program's own collection rhythm."""
    bounds = [count * k // INTERLEAVE_SLICES for k in range(INTERLEAVE_SLICES + 1)]
    busy = {False: 0.0, True: 0.0}
    gc.collect()
    for index, (start, stop) in enumerate(zip(bounds, bounds[1:])):
        order = (False, True) if index % 2 == 0 else (True, False)
        for traced in order:
            context = recorder.tracing(annotator_type) if traced else nullcontext()
            with context, gc_pauses() as paused:
                begin = time.perf_counter()
                run(traced, range(start, stop))
                busy[traced] += time.perf_counter() - begin - paused[0]
    return busy[True] / busy[False] - 1.0


def twin_report(
    recorder: SpanRecorder, sites: dict, pages: int, overhead: float, path: Path
) -> dict:
    """Write the spans, gate the tiling, and derive the layer metrics."""
    recorder.write(path)
    summary = recorder.summary()
    tiling = check_tiling(summary)
    layers = layer_metrics(summary, sites, pages)
    layers["harness.other_share"] = tiling["residue_share"]
    layers["harness.trace_overhead_share"] = overhead
    return {"layers": layers, "tiling": tiling, "summary": summary}


def check_tiling(summary: dict) -> dict:
    """Layer self times + GC + residue must equal the traced wall time,
    and the residue must stay within :data:`RESIDUE_TOLERANCE`."""
    wall = summary["wall_s"]
    total = sum(summary["self_s"].values())
    residue = summary["self_s"].get(ROOT_SPAN, 0.0)
    share = residue / wall if wall > 0 else 1.0
    report = {
        "wall_s": wall,
        "sum_self_s": total,
        "residue_s": residue,
        "residue_share": share,
        "tolerance": RESIDUE_TOLERANCE,
    }
    if abs(total - wall) > 1e-6 * max(1.0, wall):
        raise BenchError(f"spans do not tile the traced wall time: {report}")
    if share > RESIDUE_TOLERANCE:
        raise BenchError(
            f"tiling residue {share:.1%} of the traced wall time exceeds "
            f"the {RESIDUE_TOLERANCE:.0%} tolerance: {report}"
        )
    return report


def layer_metrics(summary: dict, sites: dict[str, int], pages: int) -> dict:
    """Per-layer metric values from a traced summary.

    ``sites`` counts the sites each family of layers processed: ``xpath``
    and ``lr`` (sites whose wrappers were of that kind), ``learn`` (sites
    learned) and ``all``.  A layer a workload never reaches reads 0.
    """
    self_ms = {name: value * 1000.0 for name, value in summary["self_s"].items()}
    calls = summary["calls"]
    attrs = summary["attrs"]

    def per(value: float, count: int) -> float:
        return value / count if count else 0.0

    parse_pages = calls.get("htmldom.tokenize", 0)
    wall = summary["wall_s"]
    gc_s = summary["self_s"].get(GC_SPAN, 0.0)
    return {
        "htmldom.tokenize.ms_per_page": per(
            self_ms.get("htmldom.tokenize", 0.0), parse_pages
        ),
        "htmldom.tree.ms_per_page": per(
            self_ms.get("htmldom.tree", 0.0), parse_pages
        ),
        "htmldom.freeze.ms_per_page": per(
            self_ms.get("htmldom.freeze", 0.0), parse_pages
        ),
        "htmldom.kb_per_page": per(summary["bytes_tokenized"] / 1024.0, parse_pages),
        "engine.derive.xpath_features.ms_per_site": per(
            self_ms.get("engine.derive.xpath_features", 0.0), sites["xpath"]
        ),
        "engine.derive.xpath_trie.ms_per_site": per(
            self_ms.get("engine.derive.xpath_trie", 0.0), sites["xpath"]
        ),
        "engine.derive.text_spans.ms_per_site": per(
            self_ms.get("engine.derive.text_spans", 0.0), sites["lr"]
        ),
        "engine.extract.xpath.ms_per_site": per(
            self_ms.get("engine.extract.xpath", 0.0), sites["xpath"]
        ),
        "engine.extract.lr.ms_per_site": per(
            self_ms.get("engine.extract.lr", 0.0), sites["lr"]
        ),
        "engine.extract.calls_per_site": per(
            sum(v for k, v in calls.items() if k.startswith("engine.extract.")),
            sites["all"],
        ),
        "annotators.annotate.ms_per_site": per(
            self_ms.get("annotators.annotate", 0.0), sites["learn"]
        ),
        "annotators.labels_per_site": per(
            attrs.get("annotators.annotate", {}).get("labels", 0.0), sites["learn"]
        ),
        "enumeration.enumerate.ms_per_site": per(
            self_ms.get("enumeration.enumerate", 0.0), sites["learn"]
        ),
        "enumeration.wrappers_per_site": per(
            attrs.get("enumeration.enumerate", {}).get("wrappers", 0.0),
            sites["learn"],
        ),
        "enumeration.inductor_calls_per_site": per(
            attrs.get("enumeration.enumerate", {}).get("inductor_calls", 0.0),
            sites["learn"],
        ),
        "ranking.rank.ms_per_site": per(
            self_ms.get("ranking.rank", 0.0), sites["learn"]
        ),
        "ranking.candidates_per_site": per(
            attrs.get("ranking.rank", {}).get("candidates", 0.0), sites["learn"]
        ),
        "api.extractor.learn.self_ms_per_site": per(
            self_ms.get("api.extractor.learn", 0.0), sites["learn"]
        ),
        "gc.gen2.pause_share": per(gc_s, wall),
        "gc.gen2.max_pause_ms": summary["gc_max_s"] * 1000.0,
        "gc.gen2.per_1k_pages": per(calls.get(GC_SPAN, 0) * 1000.0, pages),
    }
