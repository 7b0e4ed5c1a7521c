"""Embedding-space geometry: normalization, similarities, distances, neighbors.

Everything here is a pure function of its inputs. Batches are small
(at most a few hundred rows) so all pairwise computations are exact
O(n^2) dense operations; no approximate indices.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (_FLOAT64, ConfigError, InputError, NumericalError, _check_array, _check_int,
                     _check_real, _member)

# Guard divisor for rows with vanishing norm; a zero row stays zero.
NORM_EPS = 1e-12

# The largest block of folded coordinate differences distance_matrix holds at once.
_FOLD_BLOCK_BYTES = 512 * 1024


class DistanceNorm(str, enum.Enum):
    """Distance norms available for nearest-neighbor selection."""

    MANHATTAN = "manhattan"
    EUCLIDEAN = "euclidean"
    CHEBYSHEV = "chebyshev"
    COSINE = "cosine"


@dataclass(frozen=True)
class EmbeddingBatch:
    """Raw encoder outputs together with their row-normalized version.

    ``raw`` is kept because gradients are taken with respect to it;
    ``unit`` feeds every similarity computation.
    """

    raw: np.ndarray = field(repr=False)
    unit: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.raw.shape[0]

    @classmethod
    def from_raw(cls, raw: np.ndarray) -> "EmbeddingBatch":
        unit = l2_normalize(raw)  # checks raw by the array rule
        return cls(raw=np.asarray(raw, dtype=_FLOAT64), unit=unit)


def l2_normalize(raw: np.ndarray) -> np.ndarray:
    """Row-wise L2 normalization with an epsilon guard.

    Each row is divided by max(||row||, 1e-12); nonzero rows come out with
    unit norm while an all-zero row passes through unchanged. A row whose
    norm is not finite, because it holds a non-finite entry or because its
    squares overflow (entries above about 1e154), raises NumericalError.
    """
    raw = _check_array("embeddings", raw, ("n", "d"))
    # np.linalg.norm's own formula, without its dispatch: bit for bit the same
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.add.reduce(raw * raw, axis=-1, keepdims=True))
    # norms are >= 0 or NaN, so their sum is finite exactly when each is
    if not math.isfinite(norms.sum()):
        bad = np.flatnonzero(~np.isfinite(norms))
        raise NumericalError(
            f"{bad.size} embedding rows, the first row {bad[0]}, have non-finite norms: "
            "they hold non-finite values or overflow when squared"
        )
    return raw / np.maximum(norms, NORM_EPS)


def _batch_size(n: int) -> int:
    """``n``, the rows of a batch, once it is checked to hold a pair."""
    if n < 2:
        raise InputError(f"need a batch of at least 2 samples, got {n}")
    return n


def _square_out(out: np.ndarray | None, n: int, given: np.ndarray) -> np.ndarray:
    """A new (n, n) float64 array, or ``out`` once it is checked to be one
    that is C-contiguous, writable and shares no memory with the input
    ``given``: the one check of the ``out=`` of the functions here."""
    if out is None:
        return np.empty((n, n))
    if not (
        isinstance(out, np.ndarray)
        and out.shape == (n, n)
        and out.dtype == _FLOAT64
        and (flags := out.flags).c_contiguous
        and flags.writeable
    ):
        raise InputError(f"out must be a writable C-contiguous float64 ({n}, {n}) array")
    if np.may_share_memory(out, given):
        raise InputError("out must not share memory with the input")
    return out


def _positive(value: float) -> bool:
    return value > 0


def similarity_matrix(
    unit: np.ndarray, temperature: float, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Cosine similarities of unit rows divided by the temperature.

    Entries are bounded by 1/temperature in absolute value; the diagonal
    is 1/temperature. Rows are assumed normalized already. The result is
    written to ``out`` if given, else to a new array.
    """
    _check_real("temperature", temperature, "be positive", _positive)
    # NumPy evaluates a BLAS-ready array times its own transpose as one
    # symmetric product (syrk) and copies one triangle into the other, so s
    # is exactly symmetric without a mirror. A column-strided view would
    # take a general product instead, whose triangles may round apart.
    unit = np.ascontiguousarray(_check_array("unit embeddings", unit, ("n", "d")))
    s = np.matmul(unit, unit.T, out=_square_out(out, len(unit), unit))
    return np.divide(s, temperature, out=s)


def distance_matrix(
    points: np.ndarray, norm: DistanceNorm | str, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Pairwise distances under the requested norm, a member or its string value.

    Returns a symmetric, nonnegative matrix with zero diagonal, written to
    ``out`` if given, else to a new array. Cosine distance is
    1 - cos(a, b) with epsilon-guarded norms, which lies in [0, 2]; the
    other three are computed from coordinate differences, so their
    diagonal and symmetry are exact.
    """
    points = _check_array("points", points, ("n", "m"))
    _batch_size(len(points))
    norm = _member("distance norm", DistanceNorm, norm)
    n, d = points.shape
    out = _square_out(out, n, points)
    if norm is DistanceNorm.COSINE:
        points = np.ascontiguousarray(points)
        g = np.matmul(points, points.T, out=out)  # exactly symmetric, as in similarity_matrix
        norms = np.maximum(np.sqrt(np.diag(g)), NORM_EPS)
        np.divide(g, np.outer(norms, norms), out=out)
        np.subtract(1.0, out, out=out)
        np.fill_diagonal(out, 0.0)
        return np.maximum(out, 0.0, out=out)
    # Each unordered pair once, folded: row o - 1 holds p[(i + o) % n] - p[i] for
    # o = 1 .. n // 2 (for even n, offset n / 2 holds each of its pairs twice). Every pair is
    # still reduced over a contiguous last axis, and |a - b| == |b - a| exactly, so the bytes
    # are those of the full (n, n, d) difference tensor. The offsets go in blocks of at most
    # _FOLD_BLOCK_BYTES, so one block holds every offset up to n = 64 at d = 32.
    partner, upper, lower = _fold_layout(n)
    step = max(1, _FOLD_BLOCK_BYTES // max(8 * n * d, 1))
    for start in range(0, n // 2, step):
        block = slice(start, start + step)
        diff = points.take(partner[block], axis=0)
        diff -= points
        np.abs(diff, out=diff)
        if norm is DistanceNorm.MANHATTAN:
            folded = diff.sum(axis=-1)
        elif norm is DistanceNorm.EUCLIDEAN:
            diff *= diff
            folded = np.sqrt(diff.sum(axis=-1))
        else:
            folded = diff.max(axis=-1)
        del diff  # free the block before the next one is allocated
        out.put(upper[block], folded)
        out.put(lower[block], folded)
    out.ravel()[:: n + 1] = 0.0  # the pairs cover everything else
    return out


@functools.lru_cache(maxsize=4)
def _fold_layout(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The folded pair layout of an n-row batch, as read-only (n // 2, n) arrays:
    each row's partner (i + o) % n at offset o, and the flat indices of (i, partner)
    and (partner, i) in an n x n matrix. A training run uses two batch sizes."""
    rows = np.arange(n)
    partner = (rows + np.arange(1, n // 2 + 1)[:, None]) % n
    layout = (partner, rows * n + partner, partner * n + rows)
    for array in layout:
        array.flags.writeable = False
    return layout


def select_neighbors(
    distances: np.ndarray, count: int, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Each anchor's set of ``count`` nearest other samples, as (n, count)
    indices.

    Row i is a set, not a ranking: every sample closer to i than the
    count-th smallest distance, then as many of the samples at exactly
    that distance as fit, lowest index first. Ties thus go to the smaller
    index, making the set deterministic and seed-stable; it is the prefix
    of a stable sort on (distance, index). Each row lists its set in
    ascending index order. The diagonal is ignored; a non-finite distance
    anywhere else raises InputError. Callers must clamp ``count`` into
    [1, n - 1] beforehand; it must be an integer. The selection partitions
    a copy of the distances, made in ``out`` if given, else in a new
    array; the result is always a new array.
    """
    distances = _check_array("distances", distances, ("n", "n"))
    n = len(distances)
    _check_int("neighbor count", count)
    if not (1 <= count <= n - 1):
        raise ConfigError(f"neighbor count must lie in [1, {n - 1}], got {count}")
    # O(n^2): everything up to the count-th smallest distance of its row,
    # less the highest-index ties at that distance where there are too many
    masked = _square_out(out, n, distances)
    np.copyto(masked, distances)
    masked.ravel()[:: n + 1] = np.inf
    if np.count_nonzero(np.isfinite(masked)) != n * (n - 1):
        raise InputError("distances contain non-finite values off the diagonal")
    masked.partition(count - 1, axis=1)
    kth = masked[:, count - 1 : count]
    # the diagonal is masked out: ignored, and never at or below kth
    chosen = distances <= kth
    chosen.ravel()[:: n + 1] = False
    if np.count_nonzero(chosen) != n * count:
        surplus = np.add.reduce(chosen, axis=1, dtype=np.intp) - count
        tied = np.flatnonzero(surplus)
        at_kth = distances[tied] == kth[tied]
        at_kth[np.arange(tied.size), tied] = False
        ties_from_here = np.cumsum(at_kth[:, ::-1], axis=1)[:, ::-1]
        chosen[tied] &= ~(at_kth & (ties_from_here <= surplus[tied, None]))
    # one index array, not nonzero's two: flat positions less each row's start
    columns = np.flatnonzero(chosen).reshape(n, count)
    columns -= n * np.arange(n)[:, None]
    return columns
