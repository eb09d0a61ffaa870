"""Where a forward pass runs: its 16-row chunks, the step pool they run on,
the OpenBLAS thread share of that pool and the process's glibc calls."""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from hymad.tensor import Tensor

# Rows per chunk of a forward pass, training or not: the one bound on the
# rows the layers see, and with them on the convolution's segment copies
# and attention's [B, h, T, T] softmax buffers.  A call of more than
# CHUNK_ROWS rows runs its chunks on the step pool, so at most CHUNK_ROWS *
# STEP_WORKERS rows are alive.  Against one 32-row graph at 2 BLAS threads,
# whose second thread spin-waits on small GEMMs, pooled chunks cut
# `ablate_small`'s CPU from 62 to 44 s per 30 s run and its peak RSS from
# 79 to 71 MB (BENCH_20.json).
CHUNK_ROWS = 16
# Threads a pooled call's chunks run on: the forward and backward are
# mostly single-threaded numpy work, so a second worker uses the idle core.
STEP_WORKERS = 2
_pool = None          # made by the first pooled block
_pooled = threading.Lock()           # held across each pooled block
_ENGINE_BACKWARD = Tensor.backward   # unwrapped, for in_order
M_ARENA_MAX = -8      # glibc's mallopt parameter


def _cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _openblas():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None
    when numpy bundles no OpenBLAS that exports such a pair."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            get, put = (f"{prefix}_{op}_num_threads{suffix}"
                        for op in ("get", "set"))
            if hasattr(handle, get) and hasattr(handle, put):
                get, put = getattr(handle, get), getattr(handle, put)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@functools.cache
def _libc():
    """The process's C library, for glibc's `mallopt` and `malloc_trim`."""
    return ctypes.CDLL(None)


def trim_heap():
    """Hand the pages that freed arrays leave in glibc's heap back to the OS.
    `datagen` calls it just before it maps a dataset's long-lived split
    arrays, and `train` does not, so an `evaluate` after it keeps a warm heap."""
    if hasattr(_libc(), "malloc_trim"):
        _libc().malloc_trim(ctypes.c_size_t(0))


@contextmanager
def in_order(fn, rows, *args):
    """An iterator over (chunk, fn(chunk, *args)) for each CHUNK_ROWS-row
    chunk of `rows`, in order.

    More than one chunk runs on the step pool, unless STEP_WORKERS is 1,
    the cores are fewer than the workers or OpenBLAS's threads cannot be
    set; then, as one chunk does, they run in turn in the calling thread
    at the caller's BLAS count.  One pooled block runs at a time and blocks
    do not nest (`fn` must not start one): the block holds `_pooled` while
    it makes the pool on first use, shares OpenBLAS's thread count out
    among the workers, at least one thread each, and restores it, so a
    count the caller limited stays limited and two threads' blocks leave it
    as they found it.  Each result is dropped once taken.  The first
    failing chunk in order raises, once no worker runs.  While
    `Tensor.backward` is wrapped from outside the package, as perfbench's
    per-layer tracer wraps it to follow one graph at a time, the chunks run
    in turn in the calling thread at the workers' BLAS share, which gives
    the pooled results bit for bit.
    """
    global _pool
    chunks = [rows[i:i + CHUNK_ROWS] for i in range(0, len(rows), CHUNK_ROWS)]
    in_turn = ((chunk, fn(chunk, *args)) for chunk in chunks)
    if len(chunks) < 2 or STEP_WORKERS < 2 or _cores() < STEP_WORKERS \
            or _openblas() is None:
        yield in_turn
        return
    # a process whose steps never pool does not load the module
    from concurrent.futures import ThreadPoolExecutor, wait
    with _pooled:
        if _pool is None:
            # glibc's malloc keeps to its main arena for the rest of the
            # process, as per-thread arenas keep the workers' freed arrays
            # mapped: without the cap, 4 pairs of `perfbench/compare.py
            # pairs` (2 vCPUs) read a higher peak RSS in every pair, medians
            # ablate_small 69.2 -> 84.2 MB, eval_test 109.8 -> 140.4 MB and
            # train_b128 315.5 -> 413.0 MB
            if hasattr(_libc(), "mallopt"):
                _libc().mallopt(M_ARENA_MAX, 1)
            _pool = ThreadPoolExecutor(STEP_WORKERS,
                                       thread_name_prefix="hymad-step")
        get, put = _openblas()
        before = get()
        put(max(1, before // STEP_WORKERS))
        try:
            if Tensor.backward is not _ENGINE_BACKWARD:
                yield in_turn
                return
            futures = [_pool.submit(fn, chunk, *args) for chunk in chunks]

            def taken():
                for chunk in chunks:
                    yield chunk, futures.pop(0).result()

            try:
                yield taken()
            finally:
                for f in futures:
                    f.cancel()
                wait(futures)
        finally:
            put(before)
