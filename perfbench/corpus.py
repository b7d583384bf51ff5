"""Input generation for the pipeline benchmark (run as a subprocess).

Usage::

    python3 perfbench/corpus.py --workload apply-fresh --seed 7 \\
        --seconds 10 --trace 0 --out .bench_work/run-xyz

Generation parses every page (gold resolution needs the trees), and a
forked worker pool inherits its parent's heap, so the parsed
``GeneratedSite`` corpus must never live in the measuring process.
This script builds it in a process of its own and writes out only what
the program is allowed to receive — raw HTML, artifacts as JSON, the
fitted extractor and annotator — plus what the harness checks against:
gold node ids remapped to the pages actually sent, and the serial
reference outputs.

All sites come from the DEALERS generator, XPATH inductor, NTW method.
The extractor is fitted exactly as ``repro serve --dataset dealers
--sites 8 --pages 6 --seed S`` fits its own, so the daemon's
learn-on-miss and the harness's serial reference learn the same rules.
Known sites (those with a stored artifact) start at generator index 0;
sites that are learned during a run start past every fitting and known
site, so no site is learned twice.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import pickle
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import use_program  # noqa: E402

use_program()

from repro.api import (  # noqa: E402
    Extractor,
    ExtractorConfig,
    ExtractorError,
    WrapperArtifact,
    load_dataset,
)
from repro.datasets.dealers import DealersConfig, generate_dealers  # noqa: E402
from repro.evaluation.runner import split_sites  # noqa: E402
from repro.service import WrapperRegistry  # noqa: E402
from repro.site import Site, sources_fingerprint  # noqa: E402

#: Daemon-equivalent fitting dataset (``--sites 8 --pages 6``).
FIT_SITES, FIT_PAGES = 8, 6
#: Pages each known site's artifact is learned from.
TRAIN_PAGES = 6

# apply-fresh: known sites, each applied to fresh chunks of its pages.
# 48 sites x 2 chunks = 96 distinct inputs, so each of the (at most
# nproc) workers cycles through more sites than its 32-site intern LRU
# holds: every pass re-parses and re-derives, nothing is a cache hit.
# Many sites per seed keep one seed's site mix from setting the tails.
APPLY_SITES = 48
APPLY_CHUNKS = 2
APPLY_CHUNK_PAGES = 6
APPLY_WARM_PAGES = 4

# learn-new: first-seen sites, learned from raw HTML, each with three
# fresh two-page crawls for the post-window apply probe (~290 apply
# jobs: enough for a p95 with ten samples beyond it).  The warm-up
# learns LEARN_WARM_SITES more, outside the timed set.
LEARN_SITES = 96
LEARN_WARM_SITES = 16
LEARN_PAGES = 6
LEARN_FRESH_CHUNKS = 3
LEARN_FRESH_PAGES = 2

# serve-mixed: open-loop arrivals at SERVE_RATE requests/s, with exact
# shares per block of 20 requests.  Gaps are uniform on [0.5, 1.5] times
# the mean: no send-time grid for TCP delayed acknowledgements to lock
# onto, and none of the Poisson bursts that would make each seed's tail
# a different experiment.  20 requests/s of 4-page crawls is ~80 pages/s,
# under a third of what the daemon sustains when saturated (~280 pages/s
# on 2 cores), and a 20 s window leaves ~320 fresh applies: more than
# ten samples beyond their p95.
SERVE_RATE = 20.0
SERVE_BLOCK = {"fresh": 16, "repeat": 2, "first": 2}
SERVE_KNOWN_SITES = 48
SERVE_FRESH_PAGES = 4
SERVE_FIRST_PAGES = 4
#: Repeats copy a request sent this many seconds earlier (low, high):
#: recent enough that the daemon's workers still hold the site interned.
SERVE_REPEAT_AGE_S = (0.5, 1.5)
#: Warm-up: distinct fresh requests (fills both workers' 32-site intern
#: tables) plus first-seen sites (exercises learn-on-miss once).
SERVE_WARM_FRESH = 80
SERVE_WARM_FIRST = 2


def fitted_extractor(seed: int, inductor: str = "xpath"):
    """The extractor and annotator ``repro serve --dataset dealers``
    builds for ``--sites 8 --pages 6 --seed seed``."""
    bundle = load_dataset("dealers", FIT_SITES, FIT_PAGES, seed)
    extractor = Extractor(ExtractorConfig(inductor=inductor, method="ntw"))
    train, _ = split_sites(bundle.sites)
    extractor.fit(train, bundle.annotator, bundle.gold_type)
    return extractor, bundle.annotator


def generated_sites(seed: int, count: int, pages: int, first: int = 0) -> list:
    """DEALERS sites ``first .. first + count - 1`` of ``pages`` pages."""
    dataset = generate_dealers(
        config=DealersConfig(n_sites=first + count, pages_per_site=pages, seed=seed)
    )
    return dataset.sites[first:]


def chunk_gold(generated, start: int, stop: int) -> list:
    """Gold name nodes of pages ``[start, stop)``, renumbered from 0."""
    return sorted(
        [node.page - start, node.preorder]
        for node in generated.gold.get("name", ())
        if start <= node.page < stop
    )


def node_list(labels) -> list:
    return sorted([node.page, node.preorder] for node in labels)


def learn_serial(extractor, annotator, name: str, pages: list[str]) -> dict:
    """Serial reference learn: the artifact and its extracted nodes, or
    the failure message (a site with no dictionary labels cannot be
    learned — a natural failure the run must reproduce exactly)."""
    site = Site.from_html(name, pages)
    try:
        artifact = extractor.learn(site, annotator.annotate(site), site_name=name)
    except ExtractorError as error:
        return {"ok": False, "error": str(error)}
    return {
        "ok": True,
        "artifact": artifact.to_json(indent=None),
        "nodes": node_list(artifact.apply(site, engine=extractor.engine)),
    }


def apply_serial(artifact_json: str, name: str, pages: list[str]) -> list:
    artifact = WrapperArtifact.from_json(artifact_json)
    return node_list(artifact.apply(Site.from_html(name, pages)))


# Reference outputs are computed serially per site, but sites are spread
# over nproc processes to keep the (unmeasured) input build short.
_FITTED: dict = {}


def _init_reference_worker(fitted: bytes) -> None:
    _FITTED.update(pickle.loads(fitted))


def _reference(task: tuple):
    kind, *args = task
    if kind == "apply":
        return apply_serial(*args)
    inductor, name, pages = args
    extractor, annotator = _FITTED[inductor]
    return learn_serial(extractor, annotator, name, pages)


def references(tasks: list[tuple], fitted: dict) -> list:
    """Run ``("apply", artifact_json, site, pages)`` and ``("learn",
    inductor, site, pages)`` reference tasks, results in task order."""
    if not tasks:
        return []
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(
        max_workers=os.cpu_count() or 1,
        mp_context=context,
        initializer=_init_reference_worker,
        initargs=(pickle.dumps(fitted),),
    ) as executor:
        return list(executor.map(_reference, tasks, chunksize=4))


def build_apply_fresh(seed: int, trace: bool) -> dict:
    fitted = {"xpath": fitted_extractor(seed)}
    if trace:
        # The traced twin also applies LR artifacts to the same pages.
        fitted["lr"] = fitted_extractor(seed, "lr")
    pages_per_site = (
        TRAIN_PAGES + APPLY_WARM_PAGES + APPLY_CHUNKS * APPLY_CHUNK_PAGES
    )
    sites = generated_sites(seed, APPLY_SITES, pages_per_site)
    html = {g.name: [page.source for page in g.site.pages] for g in sites}
    warm_pages = {
        name: pages[TRAIN_PAGES : TRAIN_PAGES + APPLY_WARM_PAGES]
        for name, pages in html.items()
    }
    # The learn probe also learns each site from its warm-up pages.
    tasks = [
        ("learn", inductor, name, pages[:TRAIN_PAGES])
        for name, pages in html.items()
        for inductor in fitted
    ] + [("learn", "xpath", name, pages) for name, pages in warm_pages.items()]
    outputs = references(tasks, fitted)
    learned = {
        (task[1], task[2], len(task[3])): output
        for task, output in zip(tasks, outputs)
    }
    known, warm, items, artifacts, lr_artifacts, failures = [], [], [], {}, {}, []
    for generated in sites:
        name = generated.name
        pages = html[name]
        result = learned[("xpath", name, TRAIN_PAGES)]
        warm_learned = learned[("xpath", name, APPLY_WARM_PAGES)]
        if not (result["ok"] and warm_learned["ok"]):
            # A known site needs an artifact: an unlearnable one only
            # goes to the natural-failure probe.
            for pages_, output in (
                (pages[:TRAIN_PAGES], result),
                (warm_pages[name], warm_learned),
            ):
                if not output["ok"]:
                    failures.append(
                        {"site": name, "pages": pages_, "error": output["error"]}
                    )
            continue
        artifacts[name] = result["artifact"]
        for probe_pages, output in (
            (pages[:TRAIN_PAGES], result),
            (warm_pages[name], warm_learned),
        ):
            known.append(
                {
                    "site": name,
                    "pages": probe_pages,
                    "rule": json.loads(output["artifact"])["rule"],
                }
            )
        lr_learned = learned.get(("lr", name, TRAIN_PAGES), {})
        if lr_learned.get("ok"):
            lr_artifacts[name] = lr_learned["artifact"]
        warm.append({"site": name, "pages": warm_pages[name]})
        for chunk in range(APPLY_CHUNKS):
            start = TRAIN_PAGES + APPLY_WARM_PAGES + chunk * APPLY_CHUNK_PAGES
            stop = start + APPLY_CHUNK_PAGES
            items.append(
                {
                    "site": name,
                    "pages": pages[start:stop],
                    "gold": chunk_gold(generated, start, stop),
                }
            )
    # Interleave sites so every batch spans many artifacts.
    random.Random(seed).shuffle(items)
    outputs = references(
        [("apply", artifacts[i["site"]], i["site"], i["pages"]) for i in items],
        fitted,
    )
    for item, output in zip(items, outputs):
        item["reference"] = output
    return {
        "known": known,
        "warm": warm,
        "items": items,
        "artifacts": artifacts,
        "lr_artifacts": lr_artifacts,
        "failures": failures,
        "extractor": fitted["xpath"],
    }


def build_learn_new(seed: int) -> dict:
    fitted = {"xpath": fitted_extractor(seed)}
    sites = generated_sites(
        seed,
        LEARN_SITES + LEARN_WARM_SITES,
        LEARN_PAGES + LEARN_FRESH_CHUNKS * LEARN_FRESH_PAGES,
        first=FIT_SITES,
    )
    learned = references(
        [
            ("learn", "xpath", g.name, [p.source for p in g.site.pages[:LEARN_PAGES]])
            for g in sites
        ],
        fitted,
    )
    items, failures = [], []
    for generated, result in zip(sites, learned):
        name = generated.name
        html = [page.source for page in generated.site.pages]
        if not result["ok"]:
            failures.append(
                {"site": name, "pages": html[:LEARN_PAGES], "error": result["error"]}
            )
            continue
        items.append(
            {
                "site": name,
                "pages": html[:LEARN_PAGES],
                "gold": chunk_gold(generated, 0, LEARN_PAGES),
                "reference": result,
                "fresh": [
                    {
                        "pages": html[start : start + LEARN_FRESH_PAGES],
                        "gold": chunk_gold(
                            generated, start, start + LEARN_FRESH_PAGES
                        ),
                    }
                    for start in range(LEARN_PAGES, len(html), LEARN_FRESH_PAGES)
                ],
            }
        )
    chunks = [(item, chunk) for item in items for chunk in item["fresh"]]
    outputs = references(
        [
            ("apply", item["reference"]["artifact"], item["site"], chunk["pages"])
            for item, chunk in chunks
        ],
        fitted,
    )
    for (_, chunk), output in zip(chunks, outputs):
        chunk["reference"] = output
    # Sites no labels reach are natural failures: kept out of the timed
    # set (no timed operation may fail) and replayed by a failure probe
    # that must fail on exactly the same sites.  The first learnable
    # sites warm the pool up; the rest are timed.
    return {
        "warm": items[:LEARN_WARM_SITES],
        "items": items[LEARN_WARM_SITES:],
        "failures": failures,
        "extractor": fitted["xpath"],
    }


def build_serve_mixed(seed: int, seconds: float, out: Path) -> dict:
    fitted = {"xpath": fitted_extractor(seed)}
    rng = random.Random(seed)
    block = [kind for kind, count in SERVE_BLOCK.items() for _ in range(count)]
    total = max(len(block), int(round(SERVE_RATE * seconds)))
    kinds: list[str] = []
    while len(kinds) < total:
        chunk = list(block)
        rng.shuffle(chunk)
        kinds.extend(chunk)
    kinds = kinds[:total]
    # The first repeat can only copy a request old enough to exist.
    low = int(SERVE_REPEAT_AGE_S[0] * SERVE_RATE)
    high = int(SERVE_REPEAT_AGE_S[1] * SERVE_RATE)
    kinds = [
        "fresh" if kind == "repeat" and index < low else kind
        for index, kind in enumerate(kinds)
    ]
    n_fresh = kinds.count("fresh") + SERVE_WARM_FRESH
    n_first = kinds.count("first") + SERVE_WARM_FIRST
    # Spare first-seen sites stand in for unlearnable ones.
    spare_first = 4
    per_site = -(-n_fresh // SERVE_KNOWN_SITES)
    known_pages = TRAIN_PAGES + per_site * SERVE_FRESH_PAGES
    known_sites = generated_sites(seed, SERVE_KNOWN_SITES, known_pages)
    first_sites = generated_sites(
        seed,
        n_first + spare_first,
        SERVE_FIRST_PAGES,
        first=max(FIT_SITES, SERVE_KNOWN_SITES),
    )
    known_html = {g.name: [p.source for p in g.site.pages] for g in known_sites}
    first_html = {g.name: [p.source for p in g.site.pages] for g in first_sites}
    learned = references(
        [("learn", "xpath", n, h[:TRAIN_PAGES]) for n, h in known_html.items()]
        + [("learn", "xpath", n, h) for n, h in first_html.items()],
        fitted,
    )
    known_learned = dict(zip(known_html, learned[: len(known_html)]))
    first_learned = dict(zip(first_html, learned[len(known_html) :]))

    registry = WrapperRegistry(out / "registry")
    artifacts: dict[str, str] = {}
    by_site: list[list[dict]] = []
    for generated in known_sites:
        name = generated.name
        html = known_html[name]
        if not known_learned[name]["ok"]:
            continue  # an unlearnable site cannot be a known site
        artifacts[name] = known_learned[name]["artifact"]
        registry.put(
            sources_fingerprint(html[:TRAIN_PAGES]),
            WrapperArtifact.from_json(artifacts[name]),
        )
        by_site.append(
            [
                {
                    "kind": "fresh",
                    "site": name,
                    "pages": html[start : start + SERVE_FRESH_PAGES],
                    "gold": chunk_gold(generated, start, start + SERVE_FRESH_PAGES),
                }
                for start in range(TRAIN_PAGES, len(html), SERVE_FRESH_PAGES)
            ]
        )
    # Round-robin over sites so consecutive fresh requests hit
    # different artifacts, as a crawler fleet's would.
    fresh_sets = [
        site_sets[round_]
        for round_ in range(per_site)
        for site_sets in by_site
        if round_ < len(site_sets)
    ]
    first_sets, failures = [], []
    for generated in first_sites:
        name = generated.name
        html = first_html[name]
        if first_learned[name]["ok"]:
            first_sets.append(
                {
                    "kind": "first",
                    "site": name,
                    "pages": html,
                    "gold": chunk_gold(generated, 0, len(html)),
                    "reference": first_learned[name],
                }
            )
        else:
            failures.append(
                {"site": name, "pages": html, "error": first_learned[name]["error"]}
            )
    if len(fresh_sets) < n_fresh or len(first_sets) < n_first:
        raise RuntimeError("not enough page sets for the schedule")

    sets: list[dict] = []
    warm, schedule = [], []
    fresh_iter = iter(fresh_sets)
    first_iter = iter(first_sets)

    def take(kind: str) -> int:
        sets.append(next(fresh_iter if kind == "fresh" else first_iter))
        return len(sets) - 1

    for _ in range(SERVE_WARM_FRESH):
        warm.append(take("fresh"))
    for _ in range(SERVE_WARM_FIRST):
        warm.append(take("first"))
    due = 0.0
    for index, kind in enumerate(kinds):
        if kind == "repeat":
            back = rng.randint(low, min(high, index))
            entry = {"kind": "repeat", "set": schedule[index - back]["set"]}
        else:
            entry = {"kind": kind, "set": take(kind)}
        entry["due"] = due
        due += (0.5 + rng.random()) / SERVE_RATE
        schedule.append(entry)

    fresh = [record for record in sets if record["kind"] == "fresh"]
    outputs = references(
        [("apply", artifacts[r["site"]], r["site"], r["pages"]) for r in fresh],
        fitted,
    )
    for record, output in zip(fresh, outputs):
        record["reference"] = {"ok": True, "nodes": output}
    return {
        "rate": SERVE_RATE,
        "sets": sets,
        "warm": warm,
        "schedule": schedule,
        "artifacts": artifacts,
        "failures": failures,
        "extractor": fitted["xpath"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.workload == "apply-fresh":
        corpus = build_apply_fresh(args.seed, bool(args.trace))
    elif args.workload == "learn-new":
        corpus = build_learn_new(args.seed)
    elif args.workload == "serve-mixed":
        corpus = build_serve_mixed(args.seed, args.seconds, out)
    else:
        parser.error(f"unknown workload {args.workload!r}")
    with open(out / "fitted.pkl", "wb") as handle:
        pickle.dump(corpus.pop("extractor"), handle)
    with open(out / "corpus.json", "w", encoding="utf-8") as handle:
        json.dump(corpus, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
