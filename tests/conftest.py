"""Shared test settings.

One hypothesis profile for the whole suite: examples are drawn from a fixed
seed (`derandomize`), so every run of the suite tests the same cases and a
failure reproduces; no example database is written and no per-example time
limit applies.  Tests set only `max_examples`.

Every test also leaves the process as it found it: a pooled training step
sets OpenBLAS's thread count while it runs, so numpy's count after a test
must equal the count before it, no step-pool worker may still be busy, and
no pooled block may still hold its lock, which would hang every later
pooled call.  Graph construction must still be on, or a leaked `no_grad`
would stop later tests' graphs.
"""

import sys
from concurrent.futures import thread

import pytest
from hypothesis import settings

from hymad import compute
from hymad.tensor import grad_enabled

settings.register_profile("hymad", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("hymad")


def _busy_workers() -> int:
    """Executor threads that are running a task now."""
    run = thread._WorkItem.run.__code__
    busy = 0
    for frame in sys._current_frames().values():
        while frame is not None and frame.f_code is not run:
            frame = frame.f_back
        busy += frame is not None
    return busy


@pytest.fixture
def busy_workers():
    return _busy_workers


def _blas_threads():
    blas = compute._openblas()
    return blas[0]() if blas else None


@pytest.fixture(autouse=True)
def process_state_is_restored():
    before = _blas_threads()
    yield
    assert _blas_threads() == before, "the test changed OpenBLAS's thread count"
    assert _busy_workers() == 0, "a step-pool worker is still running"
    assert not compute._pooled.locked(), "the test left a pooled block's lock held"
    assert grad_enabled(), "the test left graph construction off"
