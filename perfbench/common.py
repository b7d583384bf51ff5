"""Shared helpers of the pipeline benchmark: paths, statistics, process
accounting from ``/proc``, run metadata and the drift sentinel.

Nothing here imports ``repro``: the helpers must work (and fail
cleanly) before the program under test is importable.
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Root of the checkout the benchmark runs in (``perfbench/..``).
ROOT = Path(__file__).resolve().parent.parent
#: The program's sources, built from the checkout itself.
SRC = ROOT / "src"
#: Working space for corpora, registries, trace logs and run records.
#: Lives inside the checkout (the benchmark reads and writes nothing
#: outside it) and is listed in ``.gitignore``.
WORK = ROOT / ".bench_work"

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class BenchError(RuntimeError):
    """The run is invalid: a correctness, tiling or lateness gate failed."""


def program_env() -> dict:
    """Environment for program subprocesses: ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_TELEMETRY", None)
    return env


def use_program() -> None:
    """Make ``import repro`` resolve to this checkout's sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# -- statistics ---------------------------------------------------------------


def quartiles(values: list[float]) -> dict:
    """Median and quartiles of ``values`` (``statistics.quantiles``)."""
    values = [float(v) for v in values]
    if not values:
        return {"n": 0}
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3}


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in 0..1) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(-(-share * len(ordered) // 1))))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    return float(statistics.median(values))


# -- /proc accounting ----------------------------------------------------------


def cpu_seconds(pid: int) -> float:
    """User+system CPU seconds of one process (0.0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            fields = handle.read().rsplit(b")", 1)[1].split()
    except OSError:
        return 0.0
    # Fields after the command name: state is [0], utime [11], stime [12].
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of one process, in MiB."""
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def children(pid: int) -> list[int]:
    """Live direct children of ``pid`` (scanned from ``/proc``)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return sorted(found)


class ProcessGroup:
    """CPU and peak-RSS accounting over a root process and its workers.

    The worker set is re-scanned at every reading; a CPU delta covers
    the processes alive at the second reading, counting a worker spawned
    in between from zero.
    """

    def __init__(self, root_pid: int) -> None:
        self.root_pid = root_pid

    def pids(self) -> list[int]:
        return [self.root_pid, *children(self.root_pid)]

    def cpu(self) -> dict[int, float]:
        return {pid: cpu_seconds(pid) for pid in self.pids()}

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_mb(pid) for pid in self.pids())

    @staticmethod
    def cpu_delta(before: dict[int, float], after: dict[int, float]) -> float:
        return sum(after[pid] - before.get(pid, 0.0) for pid in after)


# -- run metadata ---------------------------------------------------------------


def reference_loop_s() -> float:
    """Drift sentinel: a fixed pure-Python loop, timed.

    Recorded before and after each run and never used to normalize a
    metric — it only makes machine speed drift visible next to them.
    """
    start = time.perf_counter()
    total = 0
    for index in range(600_000):
        total += index * index % 7
    return time.perf_counter() - start


def host_cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` CPU ticks of the whole machine (``/proc/stat``).

    Like the reference loop, recorded only: time the hypervisor gave
    away to other guests shows up as slow runs."""
    with open("/proc/stat", "r", encoding="ascii") as handle:
        fields = [int(value) for value in handle.readline().split()[1:9]]
    return fields[7], sum(fields)


def source_revision() -> str:
    """The git revision, or a digest of the program sources when the
    checkout is not a git repository."""
    if not (ROOT / ".git").exists():
        return _source_digest()
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if result.returncode == 0 and result.stdout.strip():
            return result.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return _source_digest()


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def metadata(seed: int, workload: str, trace: bool) -> dict:
    return {
        "revision": source_revision(),
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "seed": seed,
        "workload": workload,
        "trace": trace,
    }
