"""Shared helpers of the benchmark: statistics, run metadata, processes.

Nothing here imports ``repro``: the orchestrator (``run.py``) uses these
helpers before it knows whether the checkout holds the package at all.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
#: The checkout root: the benchmark lives in ``<root>/perfbench``.
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


class BenchError(RuntimeError):
    """The benchmark could not run (not: the program answered wrongly)."""


def load_spec() -> dict:
    with open(SPEC_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def require_checkout() -> None:
    """Refuse to run where the package sources are missing."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(
            f"no package sources under {SRC}; run from a checkout of the "
            f"repository"
        )


def child_env() -> Dict[str, str]:
    """Environment for processes that import ``repro`` from the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (position - lower)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# ----------------------------------------------------------------------
# Run metadata
# ----------------------------------------------------------------------
def _commit() -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def source_digest() -> str:
    """BLAKE2b over every ``src/**/*.py`` file: identifies the code measured
    even in a checkout that is not a git repository."""
    hasher = hashlib.blake2b(digest_size=12)
    for directory, subdirs, files in os.walk(SRC):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                hasher.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    hasher.update(handle.read())
    return hasher.hexdigest()


def run_metadata() -> dict:
    """Where and what was measured; ``compare.py`` refuses mixed ``nproc``."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _commit(),
        "src_digest": source_digest(),
        "started_unix": time.time(),
    }


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
def readline(proc: subprocess.Popen, timeout: float) -> str:
    """One stdout line of ``proc`` or :class:`BenchError` after ``timeout``."""
    selector = selectors.DefaultSelector()
    selector.register(proc.stdout, selectors.EVENT_READ)
    try:
        if not selector.select(timeout):
            raise BenchError(f"no output from pid {proc.pid} in {timeout:g}s")
    finally:
        selector.close()
    line = proc.stdout.readline()
    if not line:
        raise BenchError(
            f"pid {proc.pid} closed its output (exit {proc.wait(timeout=30)})"
        )
    return line.decode("utf-8").rstrip("\n")


def stop(proc: subprocess.Popen, timeout: float = 30.0) -> None:
    """Kill ``proc`` if it still runs, and wait for it."""
    if proc.poll() is None:
        proc.kill()
    proc.wait(timeout=timeout)


def descendants(pid: int) -> List[int]:
    """All live descendant pids of ``pid`` (from ``/proc``)."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after ')'.
        parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    found, frontier = [], [pid]
    while frontier:
        parent = frontier.pop()
        children = [child for child, ppid in parents.items() if ppid == parent]
        found.extend(children)
        frontier.extend(children)
    return found


def rss_mb(pid: int) -> float:
    """Current resident set (``VmRSS``) of a process in MB; 0 once it ended."""
    try:
        with open(f"/proc/{pid}/status", "r") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class TreeRssSampler:
    """Peak of the summed RSS of a process and its descendants.

    Samples every ``interval`` seconds on a thread (the process list is
    rescanned every ``rescan`` samples, so replaced workers are seen).
    A per-process ``VmHWM`` would lose the peak of a worker that was
    replaced during the run.
    """

    def __init__(self, pid: int, interval: float = 0.1, rescan: int = 10):
        self.pid = pid
        self.interval = interval
        self.rescan = rescan
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        pids: List[int] = []
        samples = 0
        while True:
            if samples % self.rescan == 0:
                pids = [self.pid] + descendants(self.pid)
            samples += 1
            self.peak_mb = max(self.peak_mb, sum(rss_mb(pid) for pid in pids))
            if self._stop.wait(self.interval):
                return

    def __enter__(self) -> "TreeRssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=30)


def emit(line: dict) -> None:
    sys.stdout.write(json.dumps(line) + "\n")
    sys.stdout.flush()
