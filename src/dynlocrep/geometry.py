"""Embedding-space geometry: normalization, similarities, distances, neighbors.

Everything here is a pure function of its inputs. Batches are small
(at most a few hundred rows) so all pairwise computations are exact
O(n^2) dense operations; no approximate indices.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError

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

    @property
    def dim(self) -> int:
        return self.raw.shape[1]

    @classmethod
    def from_raw(cls, raw: np.ndarray) -> "EmbeddingBatch":
        raw = np.asarray(raw, dtype=np.float64)
        if raw.ndim != 2:
            raise InputError(f"embeddings must be an n x d matrix, got shape {raw.shape}")
        return cls(raw=raw, unit=l2_normalize(raw))


def l2_normalize(raw: np.ndarray) -> np.ndarray:
    """Row-wise L2 normalization with an epsilon guard.

    Each row is divided by max(||row||, 1e-12); nonzero rows come out with
    unit norm while an all-zero row passes through unchanged.
    """
    raw = np.asarray(raw, dtype=np.float64)
    norms = np.linalg.norm(raw, axis=-1, keepdims=True)
    return raw / np.maximum(norms, NORM_EPS)


def similarity_matrix(unit: np.ndarray, temperature: float) -> np.ndarray:
    """Cosine similarities of unit rows divided by the temperature.

    Entries are bounded by 1/temperature in absolute value; the diagonal
    is 1/temperature. Rows are assumed normalized already.
    """
    if not (np.isfinite(temperature) and temperature > 0):
        raise ConfigError(f"temperature must be positive, got {temperature}")
    unit = np.asarray(unit, dtype=np.float64)
    s = (unit @ unit.T) / temperature
    # BLAS may round the two triangles differently; mirror the upper one
    # so s is exactly symmetric.
    return np.triu(s) + np.triu(s, 1).T


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
        g = points @ points.T
        norms = np.maximum(np.sqrt(np.diag(g)), NORM_EPS)
        d = 1.0 - g / np.outer(norms, norms)
        d = np.triu(d, 1)
        d = np.maximum(d + d.T, 0.0)
        return d
    # one (n, n, d) transient, reused in place for |diff| and diff**2
    diff = points[:, None, :] - points[None, :, :]
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
    """Each anchor's ``count`` nearest other samples as (n, count) indices.

    Rows run ascending by distance. Sorting is stable on (distance, index):
    equal distances resolve to the smaller index, making the result
    deterministic and seed-stable.
    Callers must clamp ``count`` into [1, n - 1] beforehand.
    """
    distances = np.asarray(distances, dtype=np.float64)
    n = distances.shape[0]
    if distances.ndim != 2 or distances.shape != (n, n):
        raise InputError(f"distances must be square, got shape {distances.shape}")
    if not (1 <= count <= n - 1):
        raise ConfigError(f"neighbor count must lie in [1, {n - 1}], got {count}")
    masked = distances.copy()
    np.fill_diagonal(masked, np.inf)
    order = np.argsort(masked, axis=1, kind="stable")
    return order[:, :count]
