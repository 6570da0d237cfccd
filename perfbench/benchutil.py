"""Helpers shared by the workloads: paths, statistics, stamps, set-up timing."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")

#: Root of the checkout the benchmark runs in (the parent of this folder).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUN_PY = os.path.join(ROOT, "perfbench", "run.py")
#: Scratch files of one run (KB files, payloads); removed when it ends.
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
#: Span dumps of traced runs; kept after the run.
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

#: Fresh processes timed per run for ``setup_s``; the median is reported.
SETUP_REPEATS = 3


def use_repo_sources() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(
            f"perfbench: no program sources at {SRC}; run from a full checkout"
        )
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def work_dir(tag: str) -> str:
    path = os.path.join(WORK_ROOT, f"{tag}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def remove_work_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(WORK_ROOT)  # only when no other run is using it
    except OSError:
        pass


# -- statistics ----------------------------------------------------------------
def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty list."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(n: int) -> Optional[int]:
    """The highest of p99/p95/p90 with at least ten samples beyond it."""
    for q in (99, 95, 90):
        if n * (100 - q) / 100.0 >= 10:
            return q
    return None


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def latency_summary(seconds: Sequence[float]) -> Dict[str, object]:
    """Median and the highest percentile backed by ten samples, in ms."""
    summary: Dict[str, object] = {"n": len(seconds)}
    if seconds:
        summary["p50_ms"] = percentile(seconds, 50) * 1000.0
        tail = tail_percentile(len(seconds))
        if tail is not None:
            summary[f"p{tail}_ms"] = percentile(seconds, tail) * 1000.0
    return summary


# -- memory ----------------------------------------------------------------------
def self_peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size of another process (Linux ``VmHWM``)."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- provenance ------------------------------------------------------------------
def _source_digest() -> str:
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def _git_sha() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def stamp(workload: str, seed: int) -> Dict[str, object]:
    """Host, versions and code identity for one result."""
    import numpy

    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "src_digest": _source_digest(),
        "workload": workload,
        "seed": seed,
    }


# -- set-up timing -----------------------------------------------------------------
def timed_setup_probe(workload: str, seed: int, size: str, out_dir: str) -> float:
    """Wall time of one fresh process doing the workload's set-up."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, RUN_PY, "--workload", workload, "--seed", str(seed),
         "--seconds", "0",
         "--size", size, "--setup-probe", out_dir],
        check=True, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=120,
    )
    return time.perf_counter() - start


# -- host speed -----------------------------------------------------------------------
#: Median time of :func:`reference_probe` on an idle core of the 2-core
#: x86_64 host the bounds were set on.  Only fixes the unit: CPU-bound
#: times are reported as seconds at this probe speed.
REFERENCE_PROBE_S = 0.020


def reference_probe() -> float:
    """Time a fixed CPU-bound loop (dict updates, small numpy ops)."""
    import numpy

    start = time.perf_counter()
    table: Dict[int, int] = {}
    total = 0
    for i in range(150_000):
        table[i % 1000] = total
        total += i * i % 7
    values = numpy.arange(2000.0)
    for _ in range(200):
        values = numpy.sqrt(values * values + 1.0)
    return time.perf_counter() - start


class SpeedGauge:
    """How fast the host runs right now, relative to the reference.

    The shared host's CPU speed moves by up to 2x from one second to the
    next as other tenants come and go, and stays put for a second or so.
    :meth:`around` probes just before and just after a timed step; the
    mean of the two over :data:`REFERENCE_PROBE_S` is the step's speed
    factor, and dividing its CPU-bound time by that factor gives the
    time at reference speed.  The probe never calls the program, so a
    change to the program cannot move it.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def probe(self) -> float:
        sample = reference_probe()
        self.samples.append(sample)
        return sample

    def around(self, step: Callable[[], T]) -> Tuple[T, float]:
        """Run ``step``; return its result and the speed factor."""
        before = self.probe()
        result = step()
        after = self.probe()
        return result, (before + after) / 2.0 / REFERENCE_PROBE_S

    def mean_factor(self) -> float:
        return statistics.fmean(self.samples) / REFERENCE_PROBE_S
