"""Datasets: synthetic generation, CSV ingestion, and train/test splitting.

The synthetic generator produces a bimodal label distribution (two
gaussian components) with features that depend on the label through
seeded sinusoids, a desk-scale stand-in for regression data whose targets
cluster in two groups. The CSV format is ``id,y,f0,...,f{p-1}`` with one
header row. Datasets, embedding exports and checkpoints share the float
text rule kept here: values are written with repr, so a reload is
bit-exact, and read back rejecting digit separators and non-finite values.
The fork plumbing that the table writer and reader and the benchmark grid
share is kept here too, below all three.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import signal
import sys
from array import array
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .errors import (ConfigError, InputError, ParseError, _check_array, _check_int, _check_real,
                     _sequence)


@dataclass(frozen=True)
class Dataset:
    """Feature matrix, labels in native units, and per-row identifiers; the
    arrays are held as float64 and the ids, distinct strings, as a tuple."""

    features: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)
    ids: tuple[str, ...]

    def __post_init__(self) -> None:
        features = _check_array("features", self.features, ("n", "d"), finite=True)
        n = len(features)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", _check_array("labels", self.labels, (n,), finite=True))
        ids = self.ids
        if not (isinstance(ids, (list, tuple)) and all(isinstance(i, str) for i in ids)
                and len(ids) == len(set(ids)) == n):
            raise InputError(f"ids must be a list or tuple of {n} distinct strings")
        object.__setattr__(self, "ids", tuple(ids))
        if n < 1:
            raise InputError("dataset is empty")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def subset(self, rows: np.ndarray) -> "Dataset":
        return Dataset(
            features=self.features[rows],
            labels=self.labels[rows],
            ids=tuple(self.ids[int(r)] for r in rows),
        )


@dataclass(frozen=True)
class SyntheticSpec:
    """Two-component gaussian label mixture plus a sinusoidal feature map."""

    n: int
    feature_dim: int = 16
    mixture_means: tuple[float, float] = (25.0, 68.0)
    mixture_stds: tuple[float, float] = (5.0, 6.0)
    mixture_weights: tuple[float, float] = (0.5, 0.5)
    informative_dims: int = 8
    noise_std: float = 0.1

    def __post_init__(self) -> None:
        for name, low in (("n", 1), ("feature_dim", 1), ("informative_dims", 0)):
            _check_int(name, getattr(self, name), low)
        for name, rule, ok in (("mixture_means", "be finite", lambda m: True),
                               ("mixture_stds", "be finite and positive", lambda s: s > 0),
                               ("mixture_weights", "be finite and >= 0", lambda w: w >= 0)):
            entries = _sequence(name, getattr(self, name), lambda v: _check_real(name, v, rule, ok))
            object.__setattr__(self, name, entries)
        if not len(self.mixture_means) == len(self.mixture_stds) == len(self.mixture_weights):
            raise ConfigError("mixture means, stds and weights must have equal length")
        if abs(sum(self.mixture_weights) - 1.0) > 1e-9:
            raise ConfigError(f"mixture weights must sum to 1, got {self.mixture_weights}")
        if self.informative_dims > self.feature_dim:
            raise ConfigError(
                f"informative_dims must lie in [0, {self.feature_dim}], "
                f"got {self.informative_dims}"
            )
        _check_real("noise_std", self.noise_std, "be finite and >= 0", lambda std: std >= 0)


# Labels are centered and scaled by these constants before entering the
# sinusoidal feature map, placing the default mixture roughly in [-1.2, 1.8].
LABEL_CENTER = 40.0
LABEL_SCALE = 25.0

# Sinusoid frequency band for the informative dimensions. The band sits at
# the half-period resonance of the default mode gap (43 / 25 label units),
# so each feature's label slope flips sign between the two modes: a global
# linear readout of the raw features sees cancelling slopes and is limited
# to per-mode means, while a nonlinear encoder can still use the local
# structure. Within one mode the response stays monotone.
FREQUENCY_BAND = (1.81, 1.85)


def generate_synthetic(spec: SyntheticSpec, seed: int) -> Dataset:
    """Draw a dataset, fully determined by (spec, seed).

    Labels come from the gaussian mixture. Informative feature j is
    sin(a_j * yhat + phi_j) with yhat = (y - 40) / 25 and per-dimension
    coefficients drawn once from the seeded generator, plus gaussian
    observation noise; the remaining dimensions are standard normal noise.
    """
    _check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    means = np.array(spec.mixture_means)
    stds = np.array(spec.mixture_stds)
    component = rng.choice(len(means), size=spec.n, p=np.array(spec.mixture_weights))
    labels = rng.normal(means[component], stds[component])

    frequencies = rng.uniform(*FREQUENCY_BAND, size=spec.informative_dims)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=spec.informative_dims)
    yhat = (labels - LABEL_CENTER) / LABEL_SCALE

    features = np.empty((spec.n, spec.feature_dim))
    features[:, : spec.informative_dims] = np.sin(
        np.outer(yhat, frequencies) + phases
    ) + rng.normal(0.0, spec.noise_std, size=(spec.n, spec.informative_dims))
    features[:, spec.informative_dims :] = rng.normal(
        0.0, 1.0, size=(spec.n, spec.feature_dim - spec.informative_dims)
    )
    ids = tuple(f"s{i:05d}" for i in range(spec.n))
    return Dataset(features=features, labels=labels, ids=ids)


def _worker_count(parts: int) -> int:
    """How many processes may share ``parts`` independent parts of a task:
    one per usable CPU, at most ``parts``, and at least 1. It is 1, this
    process alone, where the platform cannot fork or where this process is
    a multiprocessing daemon, which may not have children."""
    multiprocessing = sys.modules.get("multiprocessing")  # imported in any of its daemons
    if not hasattr(os, "fork") or (
        multiprocessing is not None and multiprocessing.current_process().daemon
    ):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(parts, cpus or 1))


def _send(pipe: BinaryIO, value) -> None:
    """Pickle ``value`` to a worker's pipe as its next message."""
    pickle.dump((value, None), pipe)
    pipe.flush()


def _receive(pipe: BinaryIO, what: str):
    """The next message a worker sent through ``pipe``. An error it sent in
    its place is raised here, with the worker's traceback text as its
    cause; a pipe that ends first raises ChildProcessError naming ``what``."""
    try:
        value, traceback_text = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        raise ChildProcessError(f"the worker of {what} died") from None
    if traceback_text is not None:
        raise value from RuntimeError(f"in the worker process:\n{traceback_text}")
    return value


def _child(work: Callable[[int, BinaryIO], None], worker: int, write_fd: int) -> None:
    """A forked worker's life: ``work(worker, pipe)`` on the write end of
    its pipe; an error it raises is sent in place of its next message. Then
    exit without returning. Ctrl-C reaches every process of the group, and
    the parent alone handles it."""
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        with os.fdopen(write_fd, "wb") as pipe:
            try:
                work(worker, pipe)
            except Exception as exc:  # the parent raises it
                import traceback

                pickle.dump((exc, traceback.format_exc()), pipe)
        code = 0
    finally:
        os._exit(code)


@contextlib.contextmanager
def _forked(work: Callable[[int, BinaryIO], None], count: int) -> Iterator[list[BinaryIO]]:
    """Fork ``count`` workers, worker w living ``_child(work, w, ...)``, and
    yield the read ends of their pipes in worker order. On leaving, every
    worker is killed and reaped, so none outlives a return, an error or a
    Ctrl-C: one that has sent its last message has no more to do."""
    pids, pipes = [], []
    try:
        for worker in range(count):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:  # no worker holds this pipe
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _child(work, worker, write_fd)
            pids.append(pid)
            os.close(write_fd)
            pipes.append(os.fdopen(read_fd, "rb"))
        yield pipes
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)


def _temp_name(path: str | Path) -> Path:
    """The temp file beside ``path`` that this process writes it through."""
    path = Path(path)
    return path.with_name(f".{path.name}.{os.getpid()}.tmp")


@contextlib.contextmanager
def _atomic_file(path: str | Path) -> Iterator:
    """A text handle on a temp file beside ``path``, which is os.replace'd
    into place once the block ends. A block that fails midway leaves any
    previous file at ``path`` intact and removes the temp file."""
    temp = _temp_name(path)
    try:
        with open(temp, "w") as handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _write_lines_atomic(path: str | Path, lines: Iterable[str]) -> None:
    """Write each line, ended by a newline, through an _atomic_file. Lines
    stream through the file's buffer, so no text of the whole file is ever
    held; a line iterator that raises fails the write."""
    with _atomic_file(path) as handle:
        handle.writelines(f"{line}\n" for line in lines)


def _format_rows(matrix: np.ndarray, sep: str = ",") -> Iterator[str]:
    """One text line per row of a float64 matrix, each value its repr; rows
    are converted one at a time, never the whole matrix to Python floats."""
    return (sep.join(map(repr, row.tolist())) for row in matrix)


# A worker formats or parses a block of a table only if the block holds at
# least this many cells (labels and matrix values), about twice the
# break-even of formatting: a cell takes about 0.72 us to format and 0.5 us
# to parse, a worker's fork, faults and reaping several ms, and in a 75 MB
# process a table written in two blocks broke even at about 15 000 cells,
# one read in two blocks at about 20 000 (CHANGES.md).
_BLOCK_CELLS = 16_384
_CHUNK = 1 << 16  # the most bytes of a worker's text in one message


@contextlib.contextmanager
def _table_file(path: str | Path, header: str, prefix: str, ids: tuple[str, ...],
                labels: np.ndarray, matrix: np.ndarray, *,
                overlapped: bool = False) -> Iterator[None]:
    """Write ``header``, then one line per row: ``prefix``, the row's id and
    its label's repr, comma-joined to the row's _format_rows text, through
    an _atomic_file.

    Entering starts the forked workers that format the table; leaving
    without an error writes it: this process formats the rows that no
    worker has, then appends each worker's text in row order. The bytes
    are the same either way. With an empty with-block, this process
    formats the first of _worker_count(cells // _BLOCK_CELLS) contiguous
    row blocks, and a worker each of the others. With ``overlapped``, the
    with-block does other work meanwhile: one worker formats the whole
    table if it holds _BLOCK_CELLS cells and a second CPU is usable, and
    else this process does on leaving. A worker encodes its text into one
    buffer, as the file's handle would, then _sends it as bytes messages
    of at most _CHUNK bytes and one empty message, and this process writes
    each message it _receives. A worker's error is raised on leaving, and
    a worker that dies at any point raises ChildProcessError; an error in
    the with-block ends the workers and the write.
    """
    n = len(ids)
    cells = n * (matrix.shape[1] + 1)
    if overlapped:  # first is 1 where this process formats block 0 itself
        blocks, first = 1, int(cells < _BLOCK_CELLS or _worker_count(2) == 1)
    else:
        blocks, first = _worker_count(cells // _BLOCK_CELLS), 1
    bounds = [n * block // blocks for block in range(blocks + 1)]

    def lines(block: int) -> Iterator[str]:
        if block == 0:
            yield header
        rows = slice(bounds[block], bounds[block + 1])
        for row_id, y, text in zip(ids[rows], labels[rows].tolist(), _format_rows(matrix[rows])):
            yield f"{prefix}{row_id},{y!r},{text}"

    def send(worker: int, pipe: BinaryIO) -> None:
        text = bytearray()
        for line in lines(first + worker):
            text += f"{line}\n".encode(handle.encoding)
        for start in range(0, len(text), _CHUNK):
            _send(pipe, bytes(memoryview(text)[start:start + _CHUNK]))
        _send(pipe, b"")

    with _atomic_file(path) as handle, _forked(send, blocks - first) as pipes:
        yield
        handle.writelines(f"{line}\n" for block in range(first) for line in lines(block))
        handle.flush()
        for block, pipe in enumerate(pipes, start=first):
            what = f"rows {bounds[block]} to {bounds[block + 1]} of {path}"
            while chunk := _receive(pipe, what):
                handle.buffer.write(chunk)


def _parse_floats(text: str, sep: str | None, path: str | Path, lineno: int) -> list[float]:
    """The values of the ``sep``-separated cells of ``text``, line ``lineno``
    of ``path``; a non-numeric or non-finite cell raises ParseError."""
    try:
        # float() would also read PEP 515 digit separators: "1_0" as 10.0
        if "_" in text:
            raise ValueError
        values = list(map(float, text.split(sep)))
    except ValueError:
        raise ParseError(f"{path}: line {lineno}: non-numeric cell") from None
    # a non-finite cell makes the sum non-finite; a finite sum, the common
    # case, spares the check of each cell, which runs only where it overflows
    if not (math.isfinite(sum(values)) or all(map(math.isfinite, values))):
        raise ParseError(f"{path}: line {lineno}: non-finite cell")
    return values


def write_csv(dataset: Dataset, path: str | Path) -> None:
    """Write the dataset in the documented ``id,y,f0,...`` format, at once,
    in row blocks where it is large (_table_file).

    A dataset without features, or an id holding a comma or a line break
    of ``str.splitlines``, which load_csv would refuse or split, raises
    InputError before the file is touched.
    """
    if dataset.feature_dim == 0:
        raise InputError("a dataset CSV needs at least one feature column; this dataset has none")
    for row, row_id in enumerate(dataset.ids):
        if "," in row_id or row_id.splitlines() not in ([], [row_id]):
            raise InputError(
                f"row {row}: id {row_id!r} holds a comma or a line break, "
                "which a dataset CSV cannot carry"
            )
    header = "id,y," + ",".join(f"f{j}" for j in range(dataset.feature_dim))
    with _table_file(path, header, "", dataset.ids, dataset.labels, dataset.features):
        pass


def load_csv(path: str | Path) -> Dataset:
    """Parse a dataset CSV, preserving row order.

    Raises ParseError naming the offending 1-based line for a malformed
    header, a wrong cell count, a non-numeric (digit separators included)
    or non-finite cell, or a duplicate id; a line with several defects
    names the first of these, and a file with several defective lines
    names the first line.

    The file is read once, and its header checked, before the rows are
    parsed, so a file replaced during the load cannot mix two versions.
    A file of at least twice _BLOCK_CELLS cells (labels and features, one
    row per newline) is cut at newlines into contiguous row blocks of
    about equal length, one per usable CPU but none under _BLOCK_CELLS
    cells (_worker_count): this process parses the first and a forked
    worker each of the others, each splitting only its own block into
    lines. A worker sends its block's ids and doubles, and they are
    appended in block order, so the Dataset is the one a single process
    parses, bit for bit. A block whose worker found a defect, or that
    repeats an id of an earlier block, is parsed again here, where its
    line numbers and the earlier ids are known, so the error is the one a
    single process raises. A worker that dies raises ChildProcessError.
    """
    path = Path(path)
    text = path.read_text()  # universal newlines: no "\r" is left
    first = text.find("\n") + 1 or len(text)
    head = text[:first].splitlines()
    if not head:
        raise ParseError(f"{path}: line 1: empty file")
    header = head[0].split(",")
    if len(header) < 3 or header[0] != "id" or header[1] != "y":
        raise ParseError(f"{path}: line 1: header must start with 'id,y,f0,...'")
    expected = [f"f{j}" for j in range(len(header) - 2)]
    if header[2:] != expected:
        raise ParseError(f"{path}: line 1: feature columns must be f0..f{len(header) - 3}")
    if len(head) == 1 and first == len(text):
        raise ParseError(f"{path}: line 2: no data rows")
    p = len(header) - 2

    # a cut just after a "\n" splits no line, so each block's lines are the
    # file's lines from the block's first
    blocks = _worker_count(text.count("\n") * (p + 1) // _BLOCK_CELLS)
    bounds = [0, *(text.find("\n", len(text) * block // blocks) + 1 or len(text)
                   for block in range(1, blocks)), len(text)]

    def rows(block: int, lineno: int, seen: set[str], ids: list[str], buffer: array) -> None:
        """Append the id of each row of ``block`` to ``ids`` and its label
        and features to ``buffer``; its first row is line ``lineno``."""
        lines = text[bounds[block]:bounds[block + 1]].splitlines()
        for lineno, line in enumerate(lines[1:] if block == 0 else lines, start=lineno):
            columns = line.count(",") + 1
            if columns != p + 2:
                raise ParseError(f"{path}: line {lineno}: expected {p + 2} columns, got {columns}")
            row_id, _, numbers = line.partition(",")
            if row_id in seen:
                raise ParseError(f"{path}: line {lineno}: duplicate id {row_id!r}")
            seen.add(row_id)
            buffer.fromlist(_parse_floats(numbers, ",", path, lineno))
            ids.append(row_id)

    def send(worker: int, pipe: BinaryIO) -> None:
        # the line numbers of a worker's block are not known here; an error
        # it sends only makes the parent parse the block again
        ids: list[str] = []
        buffer = array("d")
        rows(worker + 1, 0, set(), ids, buffer)
        _send(pipe, (ids, buffer.tobytes()))

    ids: list[str] = []
    seen: set[str] = set()
    # one flat buffer of doubles, row by row: label, then the p features
    buffer = array("d")
    with _forked(send, blocks - 1) as pipes:
        rows(0, 2, seen, ids, buffer)
        for block, pipe in enumerate(pipes, start=1):
            lineno = len(ids) + 2
            try:
                block_ids, values = _receive(pipe, f"the rows from line {lineno} of {path}")
                clean = seen.isdisjoint(block_ids)
            except ParseError:
                clean = False
            if clean:
                seen.update(block_ids)
                ids.extend(block_ids)
                buffer.frombytes(values)
            else:  # raises the block's first defect
                rows(block, lineno, seen, ids, buffer)
    del text, seen  # the text is parsed: free it before the arrays are copied out
    values = np.frombuffer(buffer, dtype=np.float64).reshape(len(ids), p + 1)
    return Dataset(features=values[:, 1:].copy(), labels=values[:, 0].copy(), ids=tuple(ids))


def split(dataset: Dataset, test_fraction: float = 0.2, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Disjoint, exhaustive train/test split from a seeded permutation.

    The test side gets round(n * test_fraction) rows (half up). Indices
    are re-sorted within each side so row order stays stable.
    """
    _check_real("test_fraction", test_fraction, "lie in (0, 1)", lambda f: 0 < f < 1)
    _check_int("seed", seed, 0)
    n = dataset.n
    n_test = int(math.floor(n * test_fraction + 0.5))
    n_train = n - n_test
    if n_test < 2 or n_train < 2:
        raise InputError(
            f"split of {n} rows at {test_fraction} leaves sides ({n_train}, {n_test}); "
            "both need at least 2"
        )
    perm = np.random.default_rng(seed).permutation(n)
    test_rows = np.sort(perm[:n_test])
    train_rows = np.sort(perm[n_test:])
    return dataset.subset(train_rows), dataset.subset(test_rows)
