"""Fork-based process pool for the per-clip passes of synth, train and score.

A pass maps one function over a list of clips. It runs on forked worker
processes, each with numpy's BLAS pinned to one thread, when the pass holds
enough audio to repay the pool's start-up, and in the calling process
otherwise. Results are yielded in item order as they are ready, so a pass
gives the same output for any worker count, and a caller can fold each one
as it comes.

Fork, not spawn or forkserver: those re-import the caller's __main__ (a
script that calls asdkit at top level breaks the pool) and pay the
numpy import in every worker. Forked workers also inherit the pass's
function, with the model, covariances and frame store it closes over, so
only the items and the results are pickled, and shared arrays
(``shared_empty``, ``shared_slots``: the frame store, the covariance pass's
block scatters) are written in place.

Each worker, and the CLI's own process, keeps the memory it frees on its
heap (glibc ``mallopt``), so a clip's temporaries reuse the previous clip's
pages instead of being mapped, first-touched and unmapped again for every
clip.
"""

from __future__ import annotations

import contextlib
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
def _blas_get_threads():
    """The get-threads sibling of _blas_set_threads, or None."""
    set_threads = _blas_set_threads()
    if set_threads is None:
        return None
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    fn = getattr(lib, set_threads.__name__.replace("_set_", "_get_"), None)
    if fn is not None:
        fn.argtypes, fn.restype = [], ctypes.c_int
    return fn


@contextlib.contextmanager
def one_blas_thread():
    """Run the block on one BLAS thread where BLAS can be pinned; restore the count after."""
    set_threads, get_threads = _blas_set_threads(), _blas_get_threads()
    before = None if get_threads is None else get_threads()
    if before is not None:
        set_threads(1)
    try:
        yield
    finally:
        if before is not None:
            set_threads(before)


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


def keep_heap() -> None:
    """Keep this process's freed memory on its heap, where glibc allows.

    Allocations up to glibc's largest mmap threshold then come from the
    heap, and freed heap memory stays with the process while it lives, so a
    clip's temporaries reuse the previous clip's pages. Each worker and
    each command of the CLI set it once.
    """
    mallopt = _mallopt()
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def shared_slots(count: int, shape, dtype):
    """count zero-filled arrays of one shape in anonymous shared memory, and
    free(i), which hands array i's pages back to the OS.

    Like shared_empty, forked workers write into the arrays in place. Every
    worker maps all of them until the pool ends, so dropping an array in one
    process frees nothing; free(i) does, in every process at once (Linux
    MADV_REMOVE; elsewhere the memory stays until the arrays are dropped).
    Array i reads as zeros after free(i).
    """
    dtype = np.dtype(dtype)
    slot = -(-int(np.prod(shape)) * dtype.itemsize // mmap.PAGESIZE) * mmap.PAGESIZE
    memory = mmap.mmap(-1, max(count * slot, 1))
    arrays = [np.ndarray(shape, dtype, memory, i * slot) for i in range(count)]

    def free(i: int) -> None:
        with contextlib.suppress(AttributeError, OSError):
            memory.madvise(mmap.MADV_REMOVE, i * slot, slot)
    return arrays, free


def _start_worker(fn) -> None:
    global _task
    _task = fn
    set_threads = _blas_set_threads()
    if set_threads is not None:
        set_threads(1)
    keep_heap()


def _run_task(item):
    return _task(item)


def run(fn, items, workers: int):
    """Yield fn(item) for each item in item order, on that many forked workers
    when above one.

    The first item to raise (in item order) cancels the items not yet
    started, and its error is raised here once every worker has exited. A
    consumer that stops early (closing the generator) shuts the pool down the
    same way. A result waits in this process until it is consumed, so a
    consumer that folds each one as it comes holds only the few finished
    ahead of it.
    """
    if workers <= 1:
        yield from map(fn, items)
        return
    import multiprocessing  # only pooled passes pay for these imports
    from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_start_worker, initargs=(fn,))
    try:
        yield from pool.map(_run_task, items)
    finally:
        pool.shutdown(cancel_futures=True)
