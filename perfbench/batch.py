"""The batch workloads: ``apply-fresh`` and ``learn-new``.

Both drive a :class:`~repro.api.WorkerPool` of ``nproc`` workers
through the public ``apply_many`` / ``learn_many`` entry points, with
raw ``(site, [html, ...])`` pairs as input.  A run is: set-up (pool
start, artifact or model load, warm-up on inputs outside the timed
set) repeated :data:`SETUPS` times, one timed window of back-to-back
batches after a full ``gc.collect()``, then short untimed probes for
the job kinds the window does not run, and the natural-failure probe.
Every output is checked against the serial reference :mod:`corpus`
computed.
"""

from __future__ import annotations

import gc
import os
import pickle
import time
from pathlib import Path

from common import BenchError, ProcessGroup, median, percentile, quartiles

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Sites the refetch probe re-requests, one ``apply_many`` call each,
#: REFETCH_REPEATS times in a row.
REFETCH_SITES = 48
REFETCH_REPEATS = 3
#: A job whose hydrate stage took less than this found its site interned.
INTERN_HIT_S = 0.0005


def nodes(labels) -> list:
    return sorted([node.page, node.preorder] for node in labels)


def job_s(outcome) -> float:
    timings = outcome.timings or {}
    return timings.get("end", 0.0) - timings.get("start", 0.0)


class F1:
    """Micro-averaged F1 of extracted name nodes against gold."""

    def __init__(self) -> None:
        self.tp = self.fp = self.fn = 0

    def add(self, predicted: list, gold: list) -> None:
        got = {tuple(node) for node in predicted}
        want = {tuple(node) for node in gold}
        self.tp += len(got & want)
        self.fp += len(got - want)
        self.fn += len(want - got)

    def value(self) -> float:
        denominator = 2 * self.tp + self.fp + self.fn
        return 2 * self.tp / denominator if denominator else 0.0


def load_fitted(workdir: Path):
    with open(workdir / "fitted.pkl", "rb") as handle:
        return pickle.load(handle)


def _pairs(entries: list[dict], key: str = "pages") -> list[tuple[str, list[str]]]:
    return [(entry["site"], entry[key]) for entry in entries]


def _require_ok(result, what: str) -> None:
    for outcome in result.outcomes:
        if not outcome.ok:
            raise BenchError(f"{what}: site {outcome.site} failed: {outcome.error}")


def _check_failure_probe(pool, extractor, annotator, failures: list[dict]) -> dict:
    """Natural failures: sites no dictionary label reaches must fail in
    the pool exactly as they failed in the serial reference."""
    from repro.api import learn_many

    expected = sorted(entry["site"] for entry in failures)
    if not failures:
        return {"expected": [], "observed": []}
    result = learn_many(
        extractor, _pairs(failures), annotator=annotator, executor=pool
    )
    observed = sorted(o.site for o in result.outcomes if not o.ok)
    if observed != expected:
        raise BenchError(
            f"natural failure set changed: expected {expected}, got {observed}"
        )
    return {"expected": expected, "observed": observed}


def _refetch(pool, artifacts: list, pairs: list) -> dict:
    """Re-request recently answered sites one call at a time, answered
    from the pool's intern table and memos.  The metric is the worker's
    job time (what the program's caches control); each call's wall
    time, mostly IPC wake-ups, is recorded beside it.  (A site work
    stealing placed off its shard is re-parsed on its first repeat,
    hence the repeats.)"""
    from repro.api import apply_many

    latency_ms, job_ms, outcomes = [], [], []
    for artifact, pair in zip(artifacts, pairs):
        for _ in range(REFETCH_REPEATS):
            start = time.perf_counter()
            result = apply_many([artifact], [pair], executor=pool)
            latency_ms.append(1000.0 * (time.perf_counter() - start))
            job_ms.append(1000.0 * job_s(result.outcomes[0]))
        outcomes.extend(result.outcomes)
    return {"latency_ms": latency_ms, "job_ms": job_ms, "outcomes": outcomes}


def _scheduler_layers(outcomes: list, elapsed: float, workers: int) -> dict:
    jobs = [o for o in outcomes if o.timings]
    if not jobs:
        raise BenchError("pool outcomes carry no stage timings")
    hydrate = [o.timings.get("hydrate_s", 0.0) for o in jobs]
    busy = [job_s(o) for o in jobs]
    return {
        "api.scheduler.hydrate.ms_per_site": 1000.0 * sum(hydrate) / len(jobs),
        "api.scheduler.job.ms_per_site": 1000.0 * sum(busy) / len(jobs),
        "api.scheduler.worker_busy_share": sum(busy) / (elapsed * workers),
        "api.scheduler.intern_hit_share": sum(
            1 for value in hydrate if value < INTERN_HIT_S
        )
        / len(jobs),
    }


def _set_up(set_up) -> tuple[list[float], object, object]:
    """Time :data:`SETUPS` set-ups: pool start plus ``set_up(pool)``
    (load and warm up).  The last pool stays open for the window."""
    from repro.api import WorkerPool

    setups, pool = [], None
    for _ in range(SETUPS):
        if pool is not None:
            pool.close()
        gc.collect()
        start = time.perf_counter()
        pool = WorkerPool(max_workers=os.cpu_count() or 1).start()
        try:
            warmed, loaded = set_up(pool)
            setups.append(time.perf_counter() - start)
            _require_ok(warmed, "warm-up")
        except BaseException:
            pool.close()
            raise
    return setups, pool, loaded


def _window(seconds: float, run_batch) -> dict:
    """Run ``run_batch()`` back to back for ``seconds`` after a full
    collection; CPU and peak RSS cover this process and its workers.

    Each batch is one pass over every distinct input, so a worker
    stalled by a collection mid-batch is covered by work stealing and
    only the batch's last jobs wait at the ``apply_many`` barrier."""
    gc.collect()
    group = ProcessGroup(os.getpid())
    cpu_before = group.cpu()
    start = time.perf_counter()
    rates = []
    pages = 0
    while True:
        begin = time.perf_counter()
        batch_pages = run_batch()
        end = time.perf_counter()
        pages += batch_pages
        rates.append(batch_pages / (end - begin))
        if end - start >= seconds:
            break
    elapsed = time.perf_counter() - start
    cpu = ProcessGroup.cpu_delta(cpu_before, group.cpu())
    return {
        "elapsed_s": elapsed,
        "pages": pages,
        "cpu_s": cpu,
        "peak_rss_mb": group.peak_rss_mb(),
        "batch_pages_per_s": quartiles(rates),
    }


def run_apply_fresh(corpus: dict, workdir: Path, seconds: float, trace: bool) -> dict:
    from repro.api import WrapperArtifact, apply_many, learn_many

    workers = os.cpu_count() or 1
    items = corpus["items"]
    pairs = _pairs(items)
    warm = _pairs(corpus["warm"])

    def set_up(pool):
        artifacts = {
            name: WrapperArtifact.from_json(text)
            for name, text in corpus["artifacts"].items()
        }
        warmed = apply_many(
            [artifacts[site] for site, _ in warm], warm, executor=pool
        )
        return warmed, artifacts

    setups, pool, artifacts = _set_up(set_up)

    window_outcomes: list[tuple[int, object]] = []

    def run_batch() -> int:
        result = apply_many(
            [artifacts[item["site"]] for item in items], pairs, executor=pool
        )
        window_outcomes.extend(enumerate(result.outcomes))
        return sum(len(pages) for _, pages in pairs)

    try:
        window = _window(seconds, run_batch)
        # Untimed probes: exact repeats of recently applied sites, one
        # request each (cache reuse), then learning the known sites
        # from their training and warm-up pages (the learn path the
        # window never runs).
        last = list(range(len(items)))[-REFETCH_SITES:]
        refetch_ms = _refetch(
            pool, [artifacts[items[i]["site"]] for i in last], [pairs[i] for i in last]
        )
        extractor, annotator = load_fitted(workdir)
        probe_sites = corpus["known"]
        learned = learn_many(
            extractor, _pairs(probe_sites), annotator=annotator, executor=pool
        )
        failures = _check_failure_probe(
            pool, extractor, annotator, corpus["failures"]
        )
    finally:
        pool.close()

    f1 = F1()
    for index, outcome in window_outcomes:
        if not outcome.ok:
            raise BenchError(f"apply failed on {outcome.site}: {outcome.error}")
        got = nodes(outcome.extracted)
        if got != items[index]["reference"]:
            raise BenchError(
                f"pool output differs from the serial reference on "
                f"{outcome.site} (item {index})"
            )
        f1.add(got, items[index]["gold"])
    for index, outcome in zip(last, refetch_ms["outcomes"]):
        if not outcome.ok or nodes(outcome.extracted) != items[index]["reference"]:
            raise BenchError(f"refetch output differs on {outcome.site}")
    for site, outcome in zip(probe_sites, learned.outcomes):
        if not outcome.ok or outcome.artifact.rule != site["rule"]:
            raise BenchError(
                f"pool-learned rule differs from the serial rule on {site['site']}"
            )

    apply_ms = [1000.0 * job_s(o) for _, o in window_outcomes]
    metrics = {
        "setup_s": median(setups),
        "pages_per_s": window["pages"] / window["elapsed_s"],
        "cpu_ms_per_page": 1000.0 * window["cpu_s"] / window["pages"],
        "peak_rss_mb": window["peak_rss_mb"],
        "apply_p50_ms": median(apply_ms),
        "apply_p95_ms": percentile(apply_ms, 0.95),
        "refetch_p50_ms": median(refetch_ms["job_ms"]),
        "learn_p50_ms": median([1000.0 * job_s(o) for o in learned.outcomes]),
        "f1": f1.value(),
    }
    record = {
        "setup_s": quartiles(setups),
        "window": window,
        "apply_job_ms": {
            **quartiles(apply_ms),
            **{f"p{q}": percentile(apply_ms, q / 100) for q in (90, 95, 97, 99)},
        },
        "refetch_call_ms": quartiles(refetch_ms["latency_ms"]),
        "refetch_job_ms": quartiles(refetch_ms["job_ms"]),
        "natural_failures": failures,
        "attempted": len(window_outcomes)
        + len(refetch_ms["job_ms"])
        + len(learned),
        "failed": 0,
    }
    layers = {}
    if trace:
        layers.update(
            _scheduler_layers(
                [o for _, o in window_outcomes], window["elapsed_s"], workers
            )
        )
        twin = _apply_twin(corpus, artifacts, pairs, annotator, workdir)
        layers.update(twin.pop("layers"))
        record["twin"] = twin
    return {"metrics": metrics, "layers": layers, "record": record}


def run_learn_new(corpus: dict, workdir: Path, seconds: float, trace: bool) -> dict:
    from repro.api import WrapperArtifact, apply_many, learn_many

    workers = os.cpu_count() or 1
    items = corpus["items"]
    pairs = _pairs(items)
    warm = _pairs(corpus["warm"])

    def set_up(pool):
        fitted = load_fitted(workdir)
        extractor, annotator = fitted
        warmed = learn_many(extractor, warm, annotator=annotator, executor=pool)
        return warmed, fitted

    setups, pool, (extractor, annotator) = _set_up(set_up)

    window_outcomes: list[tuple[int, object]] = []

    def run_batch() -> int:
        result = learn_many(extractor, pairs, annotator=annotator, executor=pool)
        window_outcomes.extend(enumerate(result.outcomes))
        return sum(len(pages) for _, pages in pairs)

    # The window's rules must equal these serial twins (checked below),
    # so the post-window probes apply the twins, loaded from JSON.
    learned = {
        index: WrapperArtifact.from_json(item["reference"]["artifact"])
        for index, item in enumerate(items)
    }
    probes = [
        (index, chunk) for index, item in enumerate(items) for chunk in item["fresh"]
    ]
    tail = probes[-REFETCH_SITES:]
    try:
        window = _window(seconds, run_batch)
        # Untimed probes: every learned artifact applied to fresh crawls
        # of its site, then the last of those requests repeated.
        probe = apply_many(
            [learned[index] for index, _ in probes],
            [(items[index]["site"], chunk["pages"]) for index, chunk in probes],
            executor=pool,
        )
        refetch_ms = _refetch(
            pool,
            [learned[index] for index, _ in tail],
            [(items[index]["site"], chunk["pages"]) for index, chunk in tail],
        )
        failures = _check_failure_probe(
            pool, extractor, annotator, corpus["failures"]
        )
    finally:
        pool.close()

    f1 = F1()
    for index, outcome in window_outcomes:
        reference = items[index]["reference"]
        if not outcome.ok:
            raise BenchError(f"learn failed on {outcome.site}: {outcome.error}")
        serial = learned[index]
        if (outcome.artifact.rule, outcome.artifact.wrapper_spec) != (
            serial.rule,
            serial.wrapper_spec,
        ):
            raise BenchError(
                f"pool-learned rule differs from the serial rule on {outcome.site}"
            )
        f1.add(reference["nodes"], items[index]["gold"])
    for (_, chunk), outcome in zip(probes, probe.outcomes):
        if not outcome.ok or nodes(outcome.extracted) != chunk["reference"]:
            raise BenchError(f"apply probe output differs on {outcome.site}")
    for (_, chunk), outcome in zip(tail, refetch_ms["outcomes"]):
        if not outcome.ok or nodes(outcome.extracted) != chunk["reference"]:
            raise BenchError(f"refetch output differs on {outcome.site}")

    learn_ms = [1000.0 * job_s(o) for _, o in window_outcomes]
    apply_ms = [1000.0 * job_s(o) for o in probe.outcomes]
    metrics = {
        "setup_s": median(setups),
        "pages_per_s": window["pages"] / window["elapsed_s"],
        "cpu_ms_per_page": 1000.0 * window["cpu_s"] / window["pages"],
        "peak_rss_mb": window["peak_rss_mb"],
        "apply_p50_ms": median(apply_ms),
        "apply_p95_ms": percentile(apply_ms, 0.95),
        "refetch_p50_ms": median(refetch_ms["job_ms"]),
        "learn_p50_ms": median(learn_ms),
        "f1": f1.value(),
    }
    record = {
        "setup_s": quartiles(setups),
        "window": window,
        "learn_job_ms": quartiles(learn_ms),
        "refetch_call_ms": quartiles(refetch_ms["latency_ms"]),
        "refetch_job_ms": quartiles(refetch_ms["job_ms"]),
        "natural_failures": failures,
        "attempted": len(window_outcomes)
        + len(probe)
        + len(refetch_ms["job_ms"]),
        "failed": 0,
    }
    layers = {}
    if trace:
        layers.update(
            _scheduler_layers(
                [o for _, o in window_outcomes], window["elapsed_s"], workers
            )
        )
        twin = _learn_twin(corpus, pairs, extractor, annotator, workdir)
        layers.update(twin.pop("layers"))
        record["twin"] = twin
    return {"metrics": metrics, "layers": layers, "record": record}


# -- traced serial twins -------------------------------------------------------


def _apply_twin(corpus, artifacts, pairs, annotator, workdir: Path) -> dict:
    """Serial in-process twin of apply-fresh, traced: the XPATH pass
    (interleaved with an untraced one), then the LR artifact set."""
    from repro.api import WrapperArtifact, apply_many

    from spans import SpanRecorder, interleave, twin_report

    lr_artifacts = {
        name: WrapperArtifact.from_json(text)
        for name, text in corpus["lr_artifacts"].items()
    }
    lr_pairs = [pair for pair in pairs if pair[0] in lr_artifacts]
    warm = _pairs(corpus["warm"])
    apply_many([artifacts[site] for site, _ in warm], warm)
    recorder = SpanRecorder()

    def run(traced: bool, part: range) -> None:
        apply_many([artifacts[pairs[i][0]] for i in part], [pairs[i] for i in part])

    overhead = interleave(recorder, type(annotator), run, len(pairs))
    if lr_pairs:
        with recorder.tracing(type(annotator)):
            apply_many([lr_artifacts[site] for site, _ in lr_pairs], lr_pairs)
    sites = {
        "xpath": len(pairs),
        "lr": len(lr_pairs),
        "learn": 0,
        "all": len(pairs) + len(lr_pairs),
    }
    pages = sum(len(p) for _, p in pairs) + sum(len(p) for _, p in lr_pairs)
    report = twin_report(recorder, sites, pages, overhead, workdir / "spans.json")
    report["lr_sites"] = len(lr_pairs)
    return report


def _learn_twin(corpus, pairs, extractor, annotator, workdir: Path) -> dict:
    """Serial in-process twin of learn-new, traced (interleaved with an
    untraced pass over the same sites)."""
    from repro.api import learn_many

    from spans import SpanRecorder, interleave, twin_report

    learn_many(extractor, _pairs(corpus["warm"]), annotator=annotator)
    recorder = SpanRecorder()

    def run(traced: bool, part: range) -> None:
        learn_many(extractor, [pairs[i] for i in part], annotator=annotator)

    overhead = interleave(recorder, type(annotator), run, len(pairs))
    sites = {"xpath": len(pairs), "lr": 0, "learn": len(pairs), "all": len(pairs)}
    pages = sum(len(p) for _, p in pairs)
    return twin_report(recorder, sites, pages, overhead, workdir / "spans.json")
