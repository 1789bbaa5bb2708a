"""Measurement helpers: order statistics, the failure ledger, per-iteration
peak RSS and the environment record.

Everything here reads only what the process can see about itself
(``os``, ``resource``, ``/proc/self``); nothing is installed or spawned.
"""

from __future__ import annotations

import ctypes
import gc
import os
import platform
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# Percentiles tried, highest first, when a timing is reported as
# "median and the highest percentile with at least MIN_BEYOND samples beyond it".
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10
MB = float(1 << 20)


def supports_percentile(n: int, p: float) -> bool:
    """True when at least MIN_BEYOND of ``n`` samples lie beyond percentile ``p``.

    Exact rational arithmetic, so 200 samples support p95 (10 beyond) and
    10000 support p99.9.
    """
    return n * (100 - Fraction(str(p))) / 100 >= MIN_BEYOND


def tail_percentile(n: int):
    """Highest percentile of TAIL_LADDER that ``n`` samples support, or None."""
    for p in TAIL_LADDER:
        if supports_percentile(n, p):
            return p
    return None


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    rank = (len(xs) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def summarize(values) -> dict:
    """Median, quartiles and the supported tail of a list of samples."""
    n = len(values)
    out = {"n": n}
    if n:
        out.update(median=median(values), q1=percentile(values, 25.0),
                   q3=percentile(values, 75.0))
        tail = tail_percentile(n)
        if tail is not None:
            out[f"p{tail:g}"] = percentile(values, tail)
    return out


@dataclass
class Ledger:
    """Attempted and failed operations of one benchmark run.

    An operation is a CLI command, a test clip to be scored, or a
    correctness check. ``failed_share`` is failed / attempted.
    """

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def count(self, attempted: int, failed: int, what: str) -> None:
        if attempted < 0 or failed < 0 or failed > attempted:
            raise ValueError(f"bad counts {failed}/{attempted} for {what}")
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{what}: {failed} of {attempted} failed")

    def check(self, ok: bool, what: str) -> bool:
        """Count one check; returns ``ok`` so callers can branch on it."""
        self.count(1, 0 if ok else 1, what)
        return ok

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class PeakRss:
    """Peak resident set size over a ``with`` block, sampled from /proc/self/statm.

    The kernel's high-water mark (``ru_maxrss``) only grows over the life of
    the process, so it cannot give one iteration's peak; a sampler thread
    can. Short spikes between samples are missed; the large feature
    copies live for far longer than the interval.
    """

    INTERVAL_S = 0.005

    def __init__(self):
        self.peak_bytes = 0
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._stop = threading.Event()
        self._thread = None

    def _read(self) -> int:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * self._page

    def _run(self) -> None:
        while not self._stop.wait(self.INTERVAL_S):
            self.peak_bytes = max(self.peak_bytes, self._read())

    def __enter__(self) -> "PeakRss":
        self.peak_bytes = self._read()
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, name="peak-rss", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.peak_bytes = max(self.peak_bytes, self._read())


def release_memory() -> None:
    """Collect garbage and hand freed heap pages back to the OS (glibc only).

    Run between iterations, so one iteration's peak RSS does not depend on
    how much freed memory the previous ones left resident.
    """
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> None:
    """Cap the BLAS thread settings at nproc; call before numpy is imported."""
    limit = nproc()
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= limit:
            os.environ[var] = str(limit)


def _git_commit(root: Path) -> str | None:
    """HEAD commit read from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _proc_field(path: str, key: str) -> str | None:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        return None
    return None


def environment(root: Path) -> dict:
    """What this process can see about its interpreter, libraries and machine."""
    import numpy as np
    import scipy
    import yaml

    import asdkit

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    threads = _proc_field("/proc/self/status", "Threads")
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "asdkit": asdkit.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "process_threads": None if threads is None else int(threads),
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
    }
