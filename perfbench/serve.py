"""The ``serve-mixed`` workload: a live ``repro serve`` daemon under an
open-loop request mix.

The daemon runs as a subprocess with ``nproc`` workers, armed for
learn-on-miss with the DEALERS annotator, over a file registry
:mod:`corpus` pre-populated with the known sites' artifacts.  (The
registry lives in the checkout's work directory, because the benchmark
writes nothing outside its checkout; learn-on-miss therefore pays the
checkout file system's fsync.)

One client process drives it open-loop: a sender thread sends each
request at its scheduled time (Poisson arrivals, drawn from the seed)
whatever the state of earlier requests, and a receiver thread collects
responses on the same connection.  Like the repository's own
``ServiceClient``, the connection keeps the operating system's default
TCP options.  Latency is
measured from each request's scheduled send time, so a stall also
charges the requests queued behind it.  The generator's own lateness is
recorded; a run whose p99 lateness exceeds :data:`LATENESS_BOUND_S` is
invalid.

The traced run repeats the same schedule with ``--trace-log`` on, takes
``metrics``-op snapshots around the window, measures the idle daemon's
CPU over a quiet window, and replays the schedule through an inline
one-worker :class:`~repro.api.WorkerPool` in this process — the same
warm-worker code path, reachable by the span recorder — for the parse,
derive, extract, learn and GC layers.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

from batch import INTERN_HIT_S, F1, load_fitted, nodes
from common import (
    ROOT,
    BenchError,
    ProcessGroup,
    children,
    median,
    percentile,
    program_env,
    quartiles,
)

#: Set-ups (daemon launches) per run; ``setup_s`` is their median.
SETUPS = 3
#: A run is invalid when the sender's p99 lateness exceeds this.
LATENESS_BOUND_S = 0.050
#: Seconds to wait for the daemon to come up, and for stragglers.
START_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0
#: Quiet window (traced run): idle daemon CPU per wall second.
QUIET_SETTLE_S = 0.5
QUIET_WINDOW_S = 2.0
STAGES = (
    "admission_wait",
    "resolve",
    "queue_wait",
    "hydrate",
    "extract",
    "result_flush",
)


class Daemon:
    """One ``repro serve`` subprocess and its worker processes."""

    def __init__(self, workdir: Path, seed: int, name: str, trace_log: Path | None):
        self.registry = workdir / f"registry-{name}"
        shutil.copytree(workdir / "registry", self.registry)
        self.out_path = workdir / f"daemon-{name}.out"
        self.command = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--registry",
            str(self.registry),
            "--workers",
            str(os.cpu_count() or 1),
            "--dataset",
            "dealers",
            "--sites",
            "8",
            "--pages",
            "6",
            "--seed",
            str(seed),
            "--port",
            "0",
        ]
        if trace_log is not None:
            self.command += ["--trace-log", str(trace_log)]
        self.process: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None

    def start(self) -> None:
        """Launch and block until the listening address is printed."""
        self._out = open(self.out_path, "w+", encoding="utf-8")
        self.process = subprocess.Popen(
            self.command,
            stdout=self._out,
            stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
            env=program_env(),
            cwd=ROOT,
        )
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise BenchError(f"daemon exited early: {self.output()}")
            for line in self.output().splitlines():
                if line.startswith("serving on "):
                    host, _, port = line.split()[-1].rpartition(":")
                    self.address = (host, int(port))
                    return
            time.sleep(0.002)
        raise BenchError("daemon did not start in time")

    def output(self) -> str:
        with open(self.out_path, "r", encoding="utf-8") as handle:
            return handle.read()

    def group(self) -> ProcessGroup:
        return ProcessGroup(self.process.pid)

    def stop(self) -> None:
        """SIGTERM (the daemon's clean shutdown), then wait for it and
        for every worker process it had."""
        if self.process is None:
            return
        workers = children(self.process.pid)
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=15)
        deadline = time.monotonic() + 15
        for pid in workers:
            while Path(f"/proc/{pid}").exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            if Path(f"/proc/{pid}").exists():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        self._out.close()


class Connection:
    """A pipelined NDJSON connection timed on the client side."""

    def __init__(self, address: tuple[str, int]) -> None:
        from repro.service import protocol

        self.protocol = protocol
        self.sock = socket.create_connection(address, timeout=DRAIN_TIMEOUT_S)
        self.lines = protocol.iter_lines(self.sock)
        self.frame_s = 0.0
        self.frames = 0

    def send(self, record: dict) -> None:
        start = time.perf_counter()
        data = self.protocol.encode_frame(record)
        self.frame_s += time.perf_counter() - start
        self.sock.sendall(data)

    def recv(self) -> dict:
        line = next(self.lines)
        start = time.perf_counter()
        record = self.protocol.decode_frame(line)
        self.frame_s += time.perf_counter() - start
        self.frames += 1
        return record

    def request(self, record: dict) -> dict:
        self.send(record)
        return self.recv()

    def close(self) -> None:
        self.sock.close()


def _apply_record(request_id, record: dict) -> dict:
    return {
        "op": "apply",
        "id": request_id,
        "site": record["site"],
        "pages": record["pages"],
    }


def _launch(workdir: Path, seed: int, name: str, warm: list[dict], trace_log=None):
    """One set-up: daemon launch -> first ping answered -> warm-up done."""
    daemon = Daemon(workdir, seed, name, trace_log)
    gc.collect()
    start = time.perf_counter()
    try:
        daemon.start()
        conn = Connection(daemon.address)
        if not conn.request({"op": "ping", "id": "ping"}).get("ok"):
            raise BenchError("daemon did not answer ping")
        for index, record in enumerate(warm):
            conn.send(_apply_record(f"warm-{index}", record))
        for _ in warm:
            response = conn.recv()
            if not response.get("ok"):
                raise BenchError(f"warm-up request failed: {response}")
    except BaseException:
        daemon.stop()
        raise
    return daemon, conn, time.perf_counter() - start


def _open_loop(conn: Connection, schedule: list[dict], sets: list[dict]):
    """Send each request at its ``due`` offset; collect every response."""
    due = [entry["due"] for entry in schedule]
    sent_late: list[float] = [0.0] * len(schedule)
    responses: dict[int, tuple[float, dict]] = {}
    errors: list[BaseException] = []
    start = time.perf_counter() + 0.05

    def sender() -> None:
        try:
            for index, entry in enumerate(schedule):
                target = start + due[index]
                delay = target - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent_late[index] = time.perf_counter() - target
                conn.send(_apply_record(index, sets[entry["set"]]))
        except BaseException as error:  # reported by the caller
            errors.append(error)

    def receiver() -> None:
        try:
            for _ in schedule:
                record = conn.recv()
                responses[record["id"]] = (time.perf_counter(), record)
        except BaseException as error:  # reported by the caller
            errors.append(error)

    threads = [threading.Thread(target=sender), threading.Thread(target=receiver)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=DRAIN_TIMEOUT_S + due[-1])
    if errors:
        raise BenchError(f"load generator failed: {errors[0]!r}")
    if any(thread.is_alive() for thread in threads) or len(responses) != len(schedule):
        raise BenchError(
            f"only {len(responses)} of {len(schedule)} requests were answered"
        )
    latency = {
        index: stamp - (start + due[index]) for index, (stamp, _) in responses.items()
    }
    end = max(stamp for stamp, _ in responses.values())
    return {
        "start": start,
        "end": end,
        "latency": latency,
        "responses": {index: record for index, (_, record) in responses.items()},
        "lateness": sent_late,
    }


def run_serve_mixed(
    corpus: dict, workdir: Path, seed: int, seconds: float, trace: bool
) -> dict:
    sets = corpus["sets"]
    schedule = corpus["schedule"]
    warm = [sets[index] for index in corpus["warm"]]
    rate = corpus["rate"]
    setups = []
    for attempt in range(SETUPS - 1):
        daemon, conn, elapsed = _launch(workdir, seed, f"setup{attempt}", warm)
        setups.append(elapsed)
        conn.close()
        daemon.stop()
    trace_log = workdir / "trace.ndjson" if trace else None
    daemon, conn, elapsed = _launch(workdir, seed, "timed", warm, trace_log)
    setups.append(elapsed)
    record: dict = {"setup_s": quartiles(setups), "rate_per_s": rate}
    layers: dict = {}
    try:
        if trace:
            before = conn.request({"op": "metrics", "id": "metrics-before"})
        frames_before = (conn.frame_s, conn.frames)
        group = daemon.group()
        gc.collect()
        cpu_before = group.cpu()
        loop = _open_loop(conn, schedule, sets)
        cpu = ProcessGroup.cpu_delta(cpu_before, group.cpu())
        rss = group.peak_rss_mb()
        frame_ms = (
            1000.0
            * (conn.frame_s - frames_before[0])
            / max(1, conn.frames - frames_before[1])
        )
        if trace:
            after = conn.request({"op": "metrics", "id": "metrics-after"})
            time.sleep(QUIET_SETTLE_S)
            idle_before = group.cpu()
            quiet_start = time.perf_counter()
            time.sleep(QUIET_WINDOW_S)
            idle = ProcessGroup.cpu_delta(idle_before, group.cpu()) / (
                time.perf_counter() - quiet_start
            )
        failures = _failure_probe(conn, corpus["failures"])
    finally:
        conn.close()
        daemon.stop()

    lateness = loop["lateness"]
    late_p99 = percentile(lateness, 0.99)
    record["lateness_ms"] = {
        "p50": 1000.0 * median(lateness),
        "p99": 1000.0 * late_p99,
        "max": 1000.0 * max(lateness),
        "bound_p99": 1000.0 * LATENESS_BOUND_S,
    }
    if late_p99 > LATENESS_BOUND_S:
        raise BenchError(
            f"load generator ran late: p99 lateness {late_p99 * 1000:.1f} ms "
            f"exceeds the {LATENESS_BOUND_S * 1000:.0f} ms bound"
        )
    checked = _check_responses(loop["responses"], schedule, sets, daemon.registry)
    by_kind: dict[str, list[float]] = {"fresh": [], "repeat": [], "first": []}
    for index, entry in enumerate(schedule):
        by_kind[entry["kind"]].append(1000.0 * loop["latency"][index])
    fresh = by_kind["fresh"]
    if len(fresh) < 200:
        raise BenchError(
            f"only {len(fresh)} fresh applies: p95 needs 200 for ten samples "
            "beyond it"
        )
    window_s = loop["end"] - loop["start"]
    metrics = {
        "setup_s": median(setups),
        "pages_per_s": checked["pages"] / window_s,
        "cpu_ms_per_page": 1000.0 * cpu / checked["pages"],
        "peak_rss_mb": rss,
        "apply_p50_ms": median(fresh),
        "apply_p95_ms": percentile(fresh, 0.95),
        "refetch_p50_ms": median(by_kind["repeat"]),
        "learn_p50_ms": median(by_kind["first"]),
        "f1": checked["f1"],
    }
    record.update(
        {
            "window_s": window_s,
            "requests": {kind: len(values) for kind, values in by_kind.items()},
            "latency_ms": {kind: quartiles(v) for kind, v in by_kind.items()},
            "fresh_tail_ms": sorted(fresh)[-len(fresh) // 10 :],
            "sources": checked["sources"],
            "natural_failures": failures,
            "attempted": len(schedule),
            "failed": 0,
        }
    )
    if trace:
        layers.update(_trace_log_layers(trace_log, window_s))
        layers.update(_resolve_shares(before["metrics"], after["metrics"]))
        layers["service.server.idle_cpu_s_per_s"] = idle
        layers["service.protocol.frame_ms_per_request"] = frame_ms
        record["slow_applies"] = _slow_breakdown(trace_log)
        twin = _serve_twin(corpus, workdir)
        layers.update(twin.pop("layers"))
        record["twin"] = twin
    return {"metrics": metrics, "layers": layers, "record": record}


def _failure_probe(conn: Connection, failures: list[dict]) -> dict:
    """First-seen sites no label reaches must fail learn-on-miss."""
    expected = sorted(entry["site"] for entry in failures)
    for index, entry in enumerate(failures):
        conn.send(_apply_record(f"fail-{index}", entry))
    observed = sorted(
        failures[int(str(r["id"]).split("-")[1])]["site"]
        for r in (conn.recv() for _ in failures)
        if not r.get("ok")
    )
    if observed != expected:
        raise BenchError(
            f"natural failure set changed: expected {expected}, got {observed}"
        )
    return {"expected": expected, "observed": observed}


def _check_responses(responses: dict, schedule: list, sets: list, registry: Path) -> dict:
    """Every answer must equal a serial apply of the artifact version
    that served it; learned versions must equal the serial learn."""
    from repro.api import WrapperArtifact
    from repro.service import WrapperRegistry

    store = WrapperRegistry(registry)
    f1 = F1()
    pages = 0
    sources: dict[str, int] = {}
    for index, entry in enumerate(schedule):
        response = responses[index]
        record = sets[entry["set"]]
        if not response.get("ok"):
            raise BenchError(f"request {index} failed: {response.get('error')}")
        sources[response["source"]] = sources.get(response["source"], 0) + 1
        reference = record["reference"]
        if record["kind"] == "first":
            served = store.get(response["fingerprint"])
            serial = WrapperArtifact.from_json(reference["artifact"])
            if served is None or (served.rule, served.wrapper_spec) != (
                serial.rule,
                serial.wrapper_spec,
            ):
                raise BenchError(
                    f"learn-on-miss rule for {record['site']} differs from "
                    "the serial learn"
                )
        got = sorted(response["nodes"])
        if got != reference["nodes"]:
            raise BenchError(
                f"served nodes differ from the serial reference on request "
                f"{index} ({record['kind']} {record['site']})"
            )
        f1.add(got, record["gold"])
        pages += len(record["pages"])
    return {"f1": f1.value(), "pages": pages, "sources": sources}


def _trace_events(trace_log: Path) -> list[dict]:
    events = []
    with open(trace_log, "r", encoding="utf-8") as handle:
        for line in handle:
            event = json.loads(line)
            if (
                event.get("event") == "trace"
                and event.get("op") == "apply"
                and isinstance(event.get("id"), int)
            ):
                events.append(event)
    return events


def _trace_log_layers(trace_log: Path, window_s: float) -> dict:
    events = _trace_events(trace_log)
    if not events:
        raise BenchError("the daemon's trace log holds no apply traces")
    stages: dict[str, list[float]] = {name: [] for name in STAGES}
    for event in events:
        for stage in event["stages"]:
            if stage["stage"] in stages:
                stages[stage["stage"]].append(1000.0 * stage["dur_s"])
    layers = {}
    for name, values in stages.items():
        layers[f"service.server.{name}.p50_ms"] = median(values) if values else 0.0
        layers[f"service.server.{name}.p95_ms"] = (
            percentile(values, 0.95) if values else 0.0
        )
    hydrate = [_stage(event, "hydrate") for event in events]
    busy = [_stage(event, "hydrate") + _stage(event, "extract") for event in events]
    workers = os.cpu_count() or 1
    layers["api.scheduler.hydrate.ms_per_site"] = 1000.0 * sum(hydrate) / len(events)
    layers["api.scheduler.job.ms_per_site"] = 1000.0 * sum(busy) / len(events)
    layers["api.scheduler.worker_busy_share"] = sum(busy) / (window_s * workers)
    layers["api.scheduler.intern_hit_share"] = sum(
        1 for value in hydrate if value < INTERN_HIT_S
    ) / len(events)
    return layers


def _stage(event: dict, name: str) -> float:
    for stage in event["stages"]:
        if stage["stage"] == name:
            return stage["dur_s"]
    return 0.0


def _slow_breakdown(trace_log: Path) -> dict:
    """Which stage dominates each of the slowest 5% of applies."""
    events = sorted(_trace_events(trace_log), key=lambda e: e["total_s"])
    slow = events[-max(1, len(events) // 20) :]
    dominant: dict[str, int] = {}
    for event in slow:
        top = max(event["stages"], key=lambda stage: stage["dur_s"])
        dominant[top["stage"]] = dominant.get(top["stage"], 0) + 1
    return {
        "count": len(slow),
        "min_total_ms": 1000.0 * slow[0]["total_s"],
        "dominant_stage": dominant,
    }


def _resolve_shares(before: dict, after: dict) -> dict:
    def values(snapshot: dict, name: str) -> dict:
        return (snapshot.get(name) or {}).get("values") or {}

    counts = {"fingerprint": 0.0, "site": 0.0, "miss": 0.0}
    hits_before = values(before, "registry.resolve_hits")
    for key, value in values(after, "registry.resolve_hits").items():
        delta = value - hits_before.get(key, 0)
        for source in ("fingerprint", "site"):
            if source in key:
                counts[source] += delta
    misses_before = values(before, "registry.resolve_misses")
    counts["miss"] = sum(values(after, "registry.resolve_misses").values()) - sum(
        misses_before.values()
    )
    total = sum(counts.values())
    return {
        f"service.registry.resolve_share.{source}": (
            count / total if total else 0.0
        )
        for source, count in counts.items()
    }


def _serve_twin(corpus: dict, workdir: Path) -> dict:
    """Replay the schedule through inline one-worker pools, traced
    (interleaved with an untraced replay in a pool of its own)."""
    from repro.api import WorkerPool, WrapperArtifact

    from spans import SpanRecorder, interleave, twin_report

    extractor, annotator = load_fitted(workdir)
    sets = corpus["sets"]
    schedule = corpus["schedule"]
    known = {
        name: WrapperArtifact.from_json(text)
        for name, text in corpus["artifacts"].items()
    }
    counts = {"xpath": 0, "learn": 0, "pages": 0}

    def replay(pool, requests: list[dict], learned: dict, tally: dict) -> None:
        for entry in requests:
            record = sets[entry["set"]]
            pair = (record["site"], record["pages"])
            if record["kind"] == "fresh":
                artifact = known[record["site"]]
            else:
                artifact = learned.get(entry["set"])
                if artifact is None:
                    result = pool.learn(extractor, [pair], annotator=annotator)
                    artifact = result.outcomes[0].artifact
                    learned[entry["set"]] = artifact
                    tally["learn"] += 1
            result = pool.apply([artifact], [pair])
            if nodes(result.outcomes[0].extracted) != record["reference"]["nodes"]:
                raise BenchError(f"serve twin output differs on {record['site']}")
            tally["xpath"] += 1
            tally["pages"] += len(record["pages"])

    # One pool per side, each warmed like the daemon's workers.
    pools = {traced: WorkerPool(max_workers=1) for traced in (False, True)}
    learned: dict = {False: {}, True: {}}
    recorder = SpanRecorder()
    try:
        warm = [{"set": index} for index in corpus["warm"]]
        for traced, pool in pools.items():
            replay(pool, warm, learned[traced], {"xpath": 0, "learn": 0, "pages": 0})

        def run(traced: bool, part: range) -> None:
            side = counts if traced else {"xpath": 0, "learn": 0, "pages": 0}
            replay(pools[traced], [schedule[i] for i in part], learned[traced], side)

        overhead = interleave(recorder, type(annotator), run, len(schedule))
    finally:
        for pool in pools.values():
            pool.close()
    sites = {
        "xpath": counts["xpath"],
        "lr": 0,
        "learn": counts["learn"],
        "all": counts["xpath"],
    }
    return twin_report(
        recorder, sites, counts["pages"], overhead, workdir / "spans.json"
    )
