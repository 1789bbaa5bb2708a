"""Fork-based process pool for the per-clip passes of synth, train and score.

A pass maps one function over a list of clips. It runs on forked worker
processes, each with numpy's BLAS pinned to one thread, when the pass holds
enough audio to repay the pool's start-up, and in the calling process
otherwise. Results come back in item order, so a pass gives the same output
for any worker count.

Fork, not spawn or forkserver: those re-import the caller's __main__ (a
script that calls asdkit at top level breaks the pool) and pay the
numpy import in every worker. Forked workers also inherit the pass's
function, with the model, covariances and frame store it closes over, so
only the items and the results are pickled, and a shared frame store
(``shared_empty``) is written in place.

Each worker keeps the memory it frees on its heap (glibc ``mallopt``), so a
clip's temporaries reuse the previous clip's pages instead of being mapped,
first-touched and unmapped again for every clip.
"""

from __future__ import annotations

import ctypes
import functools
import mmap
import os

import numpy as np

# Audio seconds each worker must have before it pays off. On a 2-vCPU Xeon
# (OpenBLAS), a pool starts and stops in about 20 ms, and a worker's first
# clip costs 25-35 ms more than the next ones. A score pass over 10 s clips
# takes 0.9-1.6 ms per audio second in-process (mse to Mahalanobis) and
# 0.5-0.8 ms on two workers, plus 60-85 ms fixed: break-even near 110-150 s,
# fitted over passes of 4 to 32 clips.
AUDIO_S_PER_WORKER = 120.0

# set-threads entry points of the OpenBLAS builds numpy ships or links:
# numpy 2 wheels, numpy 1.x wheels (ILP64), and a plain system OpenBLAS
_BLAS_SET_THREADS = ("scipy_openblas_set_num_threads64_",
                     "openblas_set_num_threads64_", "openblas_set_num_threads")

# glibc mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3

_task = None  # the pass's function; set only in forked workers


@functools.cache
def _blas_set_threads():
    """The set-threads function of the OpenBLAS numpy loaded, or None."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for name in _BLAS_SET_THREADS:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes, fn.restype = [ctypes.c_int], None
            return fn
    return None


@functools.cache
def _mallopt():
    """glibc's mallopt, or None where the C library has none."""
    try:
        fn = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return None
    fn.argtypes, fn.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return fn


def _cpu_count() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else 1


def worker_count(items: int, audio_s: float) -> int:
    """Workers for a pass over items clips holding audio_s seconds in all.

    min(CPUs, items, audio_s // AUDIO_S_PER_WORKER), at least 1; 1 where
    numpy's BLAS cannot be pinned, since BLAS threads in every worker
    oversubscribe the CPUs and run slower than one process.
    """
    if _blas_set_threads() is None:
        return 1
    return max(1, min(_cpu_count(), items, int(audio_s // AUDIO_S_PER_WORKER)))


def shared_empty(shape, dtype) -> np.ndarray:
    """An uninitialised array in anonymous shared memory.

    Forked workers write into it in place and the caller sees their writes,
    so no result is pickled back. The memory is freed with the array.
    """
    dtype = np.dtype(dtype)
    size = int(np.prod(shape)) * dtype.itemsize
    return np.frombuffer(mmap.mmap(-1, size), dtype=dtype).reshape(shape)


def _start_worker(fn) -> None:
    global _task
    _task = fn
    set_threads = _blas_set_threads()
    if set_threads is not None:
        set_threads(1)
    mallopt = _mallopt()
    if mallopt is not None:
        # allocations up to glibc's largest mmap threshold come from the heap,
        # and freed heap memory stays with the worker while it lives
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def _run_task(item):
    return _task(item)


def run(fn, items, workers: int) -> list:
    """[fn(item) for item in items], on that many forked workers when above one.

    The first item to raise (in item order) cancels the items not yet
    started, and its error is raised here once every worker has exited.
    """
    if workers <= 1:
        return [fn(item) for item in items]
    import multiprocessing  # only pooled passes pay for these imports
    from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_start_worker, initargs=(fn,))
    try:
        return list(pool.map(_run_task, items))
    finally:
        pool.shutdown(cancel_futures=True)
