"""Datasets: synthetic generation, CSV ingestion, and train/test splitting.

The synthetic generator produces a bimodal label distribution (two
gaussian components) with features that depend on the label through
seeded sinusoids, a desk-scale stand-in for regression data whose targets
cluster in two groups. The CSV format is ``id,y,f0,...,f{p-1}`` with one
header row. Datasets, embedding exports and checkpoints share the float
text rule kept here: values are written with repr, so a reload is
bit-exact, and read back rejecting digit separators and non-finite values.
"""

from __future__ import annotations

import math
import os
from array import array
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

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


def _write_lines_atomic(path: str | Path, lines: Iterable[str]) -> None:
    """Write each line, ended by a newline, to a temp file beside path, then
    os.replace it into place. Lines stream through the file's buffer, so
    no text of the whole file is ever held.

    A write that fails midway, the line iterator raising included, leaves
    any previous file at path intact and removes the temp file.
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "w") as handle:
            handle.writelines(f"{line}\n" for line in lines)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _format_rows(matrix: np.ndarray, sep: str = ",") -> Iterator[str]:
    """One text line per row of a float64 matrix, each value its repr; rows
    are converted one at a time, never the whole matrix to Python floats."""
    return (sep.join(map(repr, row.tolist())) for row in matrix)


def _parse_floats(text: str, sep: str | None, path: str | Path, lineno: int) -> list[float]:
    """The values of the ``sep``-separated cells of ``text``, line ``lineno``
    of ``path``; a non-numeric or non-finite cell raises ParseError."""
    try:
        # float() would also read PEP 515 digit separators: "1_0" as 10.0
        if "_" in text:
            raise ValueError
        values = [float(cell) for cell in text.split(sep)]
    except ValueError:
        raise ParseError(f"{path}: line {lineno}: non-numeric cell") from None
    if not all(map(math.isfinite, values)):
        raise ParseError(f"{path}: line {lineno}: non-finite cell")
    return values


def _table_lines(header: str, lead: Iterable[str], matrix: np.ndarray) -> Iterator[str]:
    """``header``, then per row its ``lead`` text joined by a comma to the
    row's _format_rows text; a matrix without columns adds no comma."""
    yield header
    for text, row in zip(lead, _format_rows(matrix)):
        yield f"{text},{row}" if row else text


def write_csv(dataset: Dataset, path: str | Path) -> None:
    """Write the dataset in the documented ``id,y,f0,...`` format.

    An id holding a comma or a line break of ``str.splitlines``, which
    load_csv would split, raises InputError before the file is touched.
    """
    for row, row_id in enumerate(dataset.ids):
        if "," in row_id or row_id.splitlines() not in ([], [row_id]):
            raise InputError(
                f"row {row}: id {row_id!r} holds a comma or a line break, "
                "which a dataset CSV cannot carry"
            )
    header = "id,y," + ",".join(f"f{j}" for j in range(dataset.feature_dim))
    lead = (f"{i},{y!r}" for i, y in zip(dataset.ids, dataset.labels.tolist()))
    _write_lines_atomic(path, _table_lines(header, lead, dataset.features))


def load_csv(path: str | Path) -> Dataset:
    """Parse a dataset CSV, preserving row order.

    Raises ParseError naming the offending 1-based line for a malformed
    header, a wrong cell count, a non-numeric (digit separators included)
    or non-finite cell, or a duplicate id.
    """
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines:
        raise ParseError(f"{path}: line 1: empty file")
    header = lines[0].split(",")
    if len(header) < 3 or header[0] != "id" or header[1] != "y":
        raise ParseError(f"{path}: line 1: header must start with 'id,y,f0,...'")
    expected = [f"f{j}" for j in range(len(header) - 2)]
    if header[2:] != expected:
        raise ParseError(f"{path}: line 1: feature columns must be f0..f{len(header) - 3}")
    p = len(header) - 2

    ids: list[str] = []
    seen: set[str] = set()
    # one flat buffer of doubles, row by row: label, then the p features
    buffer = array("d")
    for lineno, line in enumerate(lines[1:], start=2):
        columns = line.count(",") + 1
        if columns != p + 2:
            raise ParseError(f"{path}: line {lineno}: expected {p + 2} columns, got {columns}")
        row_id, _, numbers = line.partition(",")
        if row_id in seen:
            raise ParseError(f"{path}: line {lineno}: duplicate id {row_id!r}")
        seen.add(row_id)
        buffer.extend(_parse_floats(numbers, ",", path, lineno))
        ids.append(row_id)
    if not ids:
        raise ParseError(f"{path}: line 2: no data rows")
    del lines  # the text is parsed: free it before the arrays are copied out
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
