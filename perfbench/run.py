"""Pipeline benchmark: raw HTML to extracted records, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload apply-fresh --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

``apply-fresh``
    ``apply_many`` through a ``WorkerPool``: learned XPATH artifacts
    applied to unseen pages of known sites (:mod:`batch`).
``learn-new``
    ``learn_many`` through the same pool: first-seen sites learned from
    raw HTML with the dictionary annotator (:mod:`batch`).
``serve-mixed``
    a live ``repro serve`` daemon under an open-loop mix of fresh
    crawls, exact repeats and first-seen sites (:mod:`serve`).

Each run generates its inputs from ``--seed`` in a separate process
(:mod:`corpus`), measures for ``--seconds``, checks every output against
the serial reference and exits non-zero, without printing a result, on
any mismatch.  With ``--trace 0`` the last stdout line is the JSON
result with the end-to-end metrics; with ``--trace 1`` the same run is
followed by the traced twin (:mod:`spans`) and the result carries the
per-layer metrics instead.  A full record (run metadata, drift
sentinel, per-run samples with median and quartiles, tiling report) is
printed on the line before the result and kept under
``.bench_work/records/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    WORK,
    BenchError,
    host_cpu_ticks,
    metadata,
    program_env,
    reference_loop_s,
    use_program,
)
from serve import STAGES  # noqa: E402

WORKLOADS = ("apply-fresh", "learn-new", "serve-mixed")

END_TO_END_UNITS = {
    "setup_s": "s",
    "pages_per_s": "pages/s",
    "cpu_ms_per_page": "ms",
    "peak_rss_mb": "MiB",
    "apply_p50_ms": "ms",
    "apply_p95_ms": "ms",
    "refetch_p50_ms": "ms",
    "learn_p50_ms": "ms",
    "f1": "ratio",
}


#: Every per-layer metric; a layer a workload never reaches reads 0.
LAYER_NAMES = (
    "htmldom.tokenize.ms_per_page",
    "htmldom.tree.ms_per_page",
    "htmldom.freeze.ms_per_page",
    "htmldom.kb_per_page",
    "engine.derive.xpath_features.ms_per_site",
    "engine.derive.xpath_trie.ms_per_site",
    "engine.derive.text_spans.ms_per_site",
    "engine.extract.xpath.ms_per_site",
    "engine.extract.lr.ms_per_site",
    "engine.extract.calls_per_site",
    "annotators.annotate.ms_per_site",
    "annotators.labels_per_site",
    "enumeration.enumerate.ms_per_site",
    "enumeration.wrappers_per_site",
    "enumeration.inductor_calls_per_site",
    "ranking.rank.ms_per_site",
    "ranking.candidates_per_site",
    "api.extractor.learn.self_ms_per_site",
    "gc.gen2.pause_share",
    "gc.gen2.max_pause_ms",
    "gc.gen2.per_1k_pages",
    "api.scheduler.hydrate.ms_per_site",
    "api.scheduler.job.ms_per_site",
    "api.scheduler.worker_busy_share",
    "api.scheduler.intern_hit_share",
    *(
        f"service.server.{stage}.{stat}"
        for stage in STAGES
        for stat in ("p50_ms", "p95_ms")
    ),
    "service.server.idle_cpu_s_per_s",
    "service.registry.resolve_share.fingerprint",
    "service.registry.resolve_share.site",
    "service.registry.resolve_share.miss",
    "service.protocol.frame_ms_per_request",
    "harness.other_share",
    "harness.trace_overhead_share",
)


def layer_unit(name: str) -> str:
    if name.endswith("_ms") or "ms_per_" in name:
        return "ms"
    if name.endswith("kb_per_page"):
        return "KiB"
    if name.endswith("_s_per_s"):
        return "s/s"
    if name.endswith("_share") or ".resolve_share." in name:
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    workdir = WORK / f"run-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        use_program()
        drift_before = reference_loop_s()
        ticks_before = host_cpu_ticks()
        started = time.perf_counter()
        subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve().parent / "corpus.py"),
                "--workload",
                args.workload,
                "--seed",
                str(args.seed),
                "--seconds",
                str(args.seconds),
                "--trace",
                str(args.trace),
                "--out",
                str(workdir),
            ],
            check=True,
            env=program_env(),
            timeout=120,
        )
        corpus_s = time.perf_counter() - started
        with open(workdir / "corpus.json", "r", encoding="utf-8") as handle:
            corpus = json.load(handle)
        if args.workload == "serve-mixed":
            from serve import run_serve_mixed

            result = run_serve_mixed(
                corpus, workdir, args.seed, args.seconds, trace
            )
        else:
            from batch import run_apply_fresh, run_learn_new

            runner = (
                run_apply_fresh if args.workload == "apply-fresh" else run_learn_new
            )
            result = runner(corpus, workdir, args.seconds, trace)
        drift_after = reference_loop_s()
        ticks_after = host_cpu_ticks()
    except (BenchError, subprocess.SubprocessError, OSError) as error:
        print(f"benchmark run invalid: {error}", file=sys.stderr)
        return 1
    finally:
        spans = workdir / "spans.json"
        records = WORK / "records"
        if spans.exists():
            records.mkdir(parents=True, exist_ok=True)
            shutil.move(str(spans), records / f"{args.workload}-spans.json")
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        unknown = set(result["layers"]) - set(LAYER_NAMES)
        if unknown:
            print(f"undeclared layer metrics: {sorted(unknown)}", file=sys.stderr)
            return 1
        values = {name: result["layers"].get(name, 0.0) for name in LAYER_NAMES}
        units = {name: layer_unit(name) for name in LAYER_NAMES}
    else:
        values, units = result["metrics"], END_TO_END_UNITS
    record = {
        **metadata(args.seed, args.workload, trace),
        "seconds": args.seconds,
        "corpus_s": corpus_s,
        "drift_reference_loop_s": {"before": drift_before, "after": drift_after},
        "host_steal_share": (ticks_after[0] - ticks_before[0])
        / max(1, ticks_after[1] - ticks_before[1]),
        "metrics": result["metrics"],
        "layers": result["layers"],
        **result["record"],
    }
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-{args.seed}-{args.trace}-{stamp}-{os.getpid()}.json"
    with open(records / name, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)
    print("record " + json.dumps(record, default=str, separators=(",", ":")))
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": int(result["record"]["attempted"]),
                "failed": int(result["record"]["failed"]),
                "metrics": {
                    name: {"value": float(values[name]), "unit": units[name]}
                    for name in sorted(values)
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
