"""Span tracing for the traced benchmark run.

Library functions are wrapped where the library looks them up: in the
module globals through which one module calls another (``losses`` calls
``geometry.distance_matrix`` through its own ``distance_matrix`` name)
and in the class dicts of methods. ``Tracer.install`` rebinds those names
to recording wrappers and ``Tracer.restore`` puts the originals back, so
the library source is never edited and untraced runs pay nothing.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

# A site: (span name, owner whose namespace holds the name, attribute,
# optional (counter name, amount(args, kwargs)) recorded per call).
Count = tuple[str, Callable[[tuple, dict], float]]
Site = tuple[str, Any, str, "Count | None"]


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the span list, -1 at top level


def self_times(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """Calls and self seconds per span name.

    A span's self time is its duration minus the time its direct children
    cover. Spans come from one thread, so the children of one span never
    overlap and their durations add up.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    totals: dict[str, tuple[int, float]] = {}
    for span, child in zip(spans, covered):
        calls, seconds = totals.get(span.name, (0, 0.0))
        totals[span.name] = (calls + 1, seconds + (span.end - span.start) - child)
    return totals


def top_level_seconds(spans: list[Span]) -> float:
    """Time covered by spans that have no parent."""
    return sum(span.end - span.start for span in spans if span.parent < 0)


class Tracer:
    """Records spans while ``recording`` is set; counts calls that raise."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.errors: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.recording = False
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable, count: Count | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            if count is not None:
                self.counts[count[0]] += count[1](args, kwargs)
            index = len(spans)
            spans.append(Span(name, clock(), 0.0, stack[-1] if stack else -1))
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                stack.pop()
                spans[index].end = clock()

        return traced

    def install(self, sites: list[Site]) -> None:
        for name, owner, attr, count in sites:
            original = vars(owner)[attr]
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, count))

    def restore(self) -> list[str]:
        """Put every original back; returns the names that are still rebound."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        left = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._installed
            if vars(owner)[attr] is not original
        ]
        self._installed.clear()
        return left


def _batch_pairs(args: tuple, kwargs: dict) -> int:
    batch = args[1] if len(args) > 1 else kwargs["batch"]
    return batch.n * (batch.n - 1)


def _file_bytes(args: tuple, kwargs: dict) -> int:
    return os.path.getsize(args[0] if args else kwargs["path"])


def library_sites() -> list[Site]:
    """Every call site the traced run rebinds, named after the callee."""
    from dynlocrep import cli, encoder, evaluation, geometry, losses, training

    return [
        ("losses.loss_with_gradient", training, "loss_with_gradient", ("losses.pairs", _batch_pairs)),
        ("geometry.distance_matrix", losses, "distance_matrix", None),
        ("geometry.select_neighbors", losses, "select_neighbors", None),
        ("geometry.similarity_matrix", losses, "similarity_matrix", None),
        ("geometry.l2_normalize", geometry, "l2_normalize", None),
        ("kernels.positiveness_matrix", losses, "positiveness_matrix", None),
        ("encoder.forward", encoder.Encoder, "forward", None),
        ("encoder.backward", encoder.Encoder, "backward", None),
        ("encoder.adam_step", encoder.Adam, "step", None),
        ("training.train", training, "train", None),
        ("training.train", evaluation, "train", None),
        ("training.train", cli, "train", None),
        ("evaluation.benchmark", cli, "benchmark", None),
        ("evaluation.ridge_fit", evaluation, "ridge_fit", None),
        ("data.split", evaluation, "split", None),
        ("cli.main", cli, "main", None),
        ("data.load_csv", cli, "load_csv", ("data.load_csv.bytes", _file_bytes)),
        ("encoder.save_checkpoint", cli, "save_checkpoint", None),
    ]
