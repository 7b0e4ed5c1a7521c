"""Timing of library calls, scaled to a nominal machine speed.

The sandboxes this benchmark runs in share their cores with other
machines' work, and the speed a process gets drifts by 20-40% over tens
of seconds. Every round repeats the same work, so that drift is all the
run-to-run spread there is. To take it out, the timer runs a fixed NumPy
reference kernel before and after each library call and scales the
call's seconds by ``REFERENCE_NOMINAL_S`` over the mean of those two
reference times. A timing therefore reads as seconds on a machine on
which the reference kernel takes ``REFERENCE_NOMINAL_S``. The kernel
uses no library code, so no change to the library moves it.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

REFERENCE_NOMINAL_S = 0.1
_REFERENCE_REPS = 1000  # about REFERENCE_NOMINAL_S on an idle 2-core x86-64 sandbox


def reference_kernel() -> float:
    """Fixed work shaped like a small training step: matmuls, a row
    normalization, pairwise distances, a sort, a log-sum-exp and a Python
    loop over rows. Every array stays far below glibc's mmap threshold, so
    the kernel's time does not depend on the allocator's state."""
    rng = np.random.default_rng(12345)
    x = rng.normal(size=(32, 16))
    w1 = rng.normal(size=(16, 64))
    w2 = rng.normal(size=(64, 8))
    acc = 0.0
    for _ in range(_REFERENCE_REPS):
        h = np.maximum(x @ w1, 0.0) @ w2
        u = h / np.linalg.norm(h, axis=1, keepdims=True)
        s = u @ u.T / 0.5
        d = np.abs(u[:, None, :] - u[None, :, :]).sum(-1)
        order = np.argsort(d, axis=1, kind="stable")
        e = np.exp(s - s.max(axis=1, keepdims=True))
        for i in range(0, 32, 4):
            acc += float(np.log(e[i, order[i, 1:15]].sum()))
    return acc


def reference_seconds() -> float:
    started = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - started


class Timer:
    """Times calls into the library, scaled to the nominal machine speed.

    ``raw_s`` and ``reference_s`` collect the unscaled call times and the
    reference times. A tracer, if given, records spans only inside the
    timed calls, so output checks made between calls stay out of the trace.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.raw_s: list[float] = []
        self.reference_s: list[float] = []
        self._last_reference: float | None = None

    def __call__(self, fn: Callable, *args, **kwargs):
        """Returns ``(fn's result, scaled seconds)``."""
        before = self._last_reference
        if before is None:
            before = reference_seconds()
            self.reference_s.append(before)
        if self.tracer is not None:
            self.tracer.recording = True
        started = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            seconds = time.perf_counter() - started
        except Exception:
            self._last_reference = None
            raise
        finally:
            if self.tracer is not None:
                self.tracer.recording = False
        after = reference_seconds()
        self.reference_s.append(after)
        self.raw_s.append(seconds)
        self._last_reference = after
        return result, seconds * REFERENCE_NOMINAL_S / ((before + after) / 2)
