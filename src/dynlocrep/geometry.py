"""Embedding-space geometry: normalization, similarities, distances, neighbors.

Everything here is a pure function of its inputs. Batches are small
(at most a few hundred rows) so all pairwise computations are exact
O(n^2) dense operations; no approximate indices.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError, NumericalError

# Guard divisor for rows with vanishing norm; a zero row stays zero.
NORM_EPS = 1e-12


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
        raw = np.asarray(raw, dtype=np.float64)
        if raw.ndim != 2:
            raise InputError(f"embeddings must be an n x d matrix, got shape {raw.shape}")
        return cls(raw=raw, unit=l2_normalize(raw))


def l2_normalize(raw: np.ndarray) -> np.ndarray:
    """Row-wise L2 normalization with an epsilon guard.

    Each row is divided by max(||row||, 1e-12); nonzero rows come out with
    unit norm while an all-zero row passes through unchanged. A row whose
    norm is not finite, because it holds a non-finite entry or because its
    squares overflow (entries above about 1e154), raises NumericalError.
    """
    raw = np.asarray(raw, dtype=np.float64)
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


def similarity_matrix(unit: np.ndarray, temperature: float) -> np.ndarray:
    """Cosine similarities of unit rows divided by the temperature.

    Entries are bounded by 1/temperature in absolute value; the diagonal
    is 1/temperature. Rows are assumed normalized already.
    """
    if not (math.isfinite(temperature) and temperature > 0):
        raise ConfigError(f"temperature must be positive, got {temperature}")
    # NumPy evaluates a BLAS-ready array times its own transpose as one
    # symmetric product (syrk) and copies one triangle into the other, so s
    # is exactly symmetric without a mirror. A column-strided view would
    # take a general product instead, whose triangles may round apart.
    unit = np.ascontiguousarray(unit, dtype=np.float64)
    return (unit @ unit.T) / temperature


def distance_matrix(points: np.ndarray, norm: DistanceNorm) -> np.ndarray:
    """Pairwise distances under the requested norm.

    Returns a symmetric, nonnegative matrix with zero diagonal.
    Cosine distance is 1 - cos(a, b) with epsilon-guarded norms, which
    lies in [0, 2]; the other three are computed from coordinate
    differences, so their diagonal and symmetry are exact.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 2:
        raise InputError(f"need an n x m matrix with n >= 2, got shape {points.shape}")
    if norm is DistanceNorm.COSINE:
        points = np.ascontiguousarray(points)
        g = points @ points.T  # exactly symmetric, as in similarity_matrix
        norms = np.maximum(np.sqrt(np.diag(g)), NORM_EPS)
        d = 1.0 - g / np.outer(norms, norms)
        np.fill_diagonal(d, 0.0)
        return np.maximum(d, 0.0)
    # One (n, n, d) transient, reused for |diff| and diff**2. Keep it whole: freeing 16 MB
    # (n = 256, d = 32) raises glibc's mmap and trim thresholds, which keeps the loss core's
    # 512 KB (256, 256) temporaries off freshly faulted mmap pages.
    n, d = points.shape
    diff = np.repeat(points, n, axis=0).reshape(n, n, d)
    diff -= points
    np.abs(diff, out=diff)
    if norm is DistanceNorm.MANHATTAN:
        return diff.sum(axis=-1)
    if norm is DistanceNorm.EUCLIDEAN:
        diff *= diff
        return np.sqrt(diff.sum(axis=-1))
    if norm is DistanceNorm.CHEBYSHEV:
        return diff.max(axis=-1)
    raise ConfigError(f"unknown distance norm: {norm!r}")


def select_neighbors(distances: np.ndarray, count: int) -> np.ndarray:
    """Each anchor's set of ``count`` nearest other samples, as (n, count)
    indices.

    Row i is a set, not a ranking: every sample closer to i than the
    count-th smallest distance, then as many of the samples at exactly
    that distance as fit, lowest index first. Ties thus go to the smaller
    index, making the set deterministic and seed-stable; it is the prefix
    of a stable sort on (distance, index). Each row lists its set in
    ascending index order. The diagonal is ignored; a non-finite distance
    anywhere else raises InputError. Callers must clamp ``count`` into
    [1, n - 1] beforehand.
    """
    distances = np.asarray(distances, dtype=np.float64)
    n = distances.shape[0]
    if distances.ndim != 2 or distances.shape != (n, n):
        raise InputError(f"distances must be square, got shape {distances.shape}")
    if not (1 <= count <= n - 1):
        raise ConfigError(f"neighbor count must lie in [1, {n - 1}], got {count}")
    masked = distances.copy()
    masked.ravel()[:: n + 1] = np.inf
    if np.count_nonzero(np.isfinite(masked)) != n * (n - 1):
        raise InputError("distances contain non-finite values off the diagonal")
    # O(n^2): everything up to the count-th smallest distance of its row,
    # less the highest-index ties at that distance where there are too many
    kth = np.partition(masked, count - 1, axis=1)[:, count - 1 : count]
    chosen = masked <= kth
    if np.count_nonzero(chosen) != n * count:
        surplus = np.add.reduce(chosen, axis=1, dtype=np.intp) - count
        tied = np.flatnonzero(surplus)
        at_kth = masked[tied] == kth[tied]
        ties_from_here = np.cumsum(at_kth[:, ::-1], axis=1)[:, ::-1]
        chosen[tied] &= ~(at_kth & (ties_from_here <= surplus[tied, None]))
    return chosen.nonzero()[1].reshape(n, count)
