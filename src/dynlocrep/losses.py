"""Contrastive regression losses: forward values and analytic gradients.

Five variants share one algebraic skeleton. For anchor i with pair
weights a_{i,k}, exponent scalings b_{i,t} and a per-pair candidate set
M(i, k), the total loss is

    L = -sum_i sum_{k != i} a_{i,k} * [ s_{i,k} - log sum_{t in M(i,k)} exp(s_{i,t} * b_{i,t}) ]

where s is the temperature-scaled cosine similarity matrix. Each anchor
i sorts the other n - 1 samples once, stably by a per-variant key, and
every M(i, k) is a prefix [0, c_{i,k}) plus a suffix [e_{i,k}, n - 1) of
that order. The variants differ only in (a, b, key, c, e):

  dynlocrep    a = w_{i,k} / sum_{t != i} w_{i,t}; b = 1 - w; key: the
               anchor's current nearest neighbors first; c = the neighbor
               count, empty suffix (M is the same for every k).
  yaware       same a; b = 1; key: sample index; c = position of k,
               e = c + 1 (everyone but k).
  exponential  as yaware, but b = 1 - w.
  threshold    a = w_{i,k} / (sum of w over M(i,k)); b = 1; key: w
               ascending; c = start of k's tie group, empty suffix, so
               M = {t : w_{i,t} < w_{i,k}}.
  rnc          a = 1; b = 1; key: |y_i - y_t| ascending; empty prefix,
               e = start of k's tie group, so M = {t != i : |y_i - y_t|
               >= |y_i - y_k|} (k is always a member, never empty).

Anchors never pair with themselves: every sum over k and t excludes i.
Pairs with an empty candidate set are dropped. Prefix and suffix sums
are cumulative log-sum-exps (np.logaddexp.accumulate): nothing is
exponentiated unshifted and no sum is formed by subtraction, which
matters at temperatures as low as 0.1 where |s| reaches 10. The
gradient's sums over k are cumulative log-sum-exps over the same order.
Only the sides a variant has are evaluated: the prefix sums (and the
gradient's suffix sums over k) for dynlocrep and threshold, the suffix
sums (and the gradient's prefix sums) for rnc, both for yaware and
exponential. Leaving out an empty side is exact, because
logaddexp(x, -inf) == x bit for bit. The bounds c and e that do not
depend on the data (dynlocrep's, yaware's and exponential's), their
counts, the row offsets and the diagonal mask are cached per (variant,
n, neighbor count). If the guards drop every pair weight of a batch,
loss and gradient are exactly zero and ``LossOutput.weighted`` is False.
Gradients treat the neighbor selection and all kernel weights as
constants and are chained through the cosine similarity and the row
normalization back to the raw embeddings.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError, NumericalError
from .geometry import (
    NORM_EPS,
    DistanceNorm,
    EmbeddingBatch,
    distance_matrix,
    select_neighbors,
    similarity_matrix,
)
from .kernels import KernelSpec, positiveness_matrix

# An anchor whose off-diagonal kernel weights sum below this contributes 0
# instead of dividing by ~0. Unreachable with a gaussian kernel.
WEIGHT_SUM_EPS = 1e-12


class LossVariant(str, enum.Enum):
    """The dynamic localized repulsion loss and its four baselines."""

    DYN_LOC_REP = "dynlocrep"
    Y_AWARE = "yaware"
    THRESHOLD = "threshold"
    EXPONENTIAL = "exponential"
    RANK_N_CONTRAST = "rnc"


class NeighborSpace(str, enum.Enum):
    """Space in which nearest neighbors are selected."""

    EMBEDDING = "embedding"
    INPUT = "input"


class Reduction(str, enum.Enum):
    """Sum over anchors (the definition) or mean per anchor (optional)."""

    SUM = "sum"
    MEAN = "mean"


@dataclass(frozen=True)
class LossConfig:
    """Everything a loss evaluation needs besides the batch itself."""

    variant: LossVariant = LossVariant.DYN_LOC_REP
    kernel: KernelSpec = KernelSpec()
    temperature: float = 0.5
    distance_norm: DistanceNorm = DistanceNorm.MANHATTAN
    nn_space: NeighborSpace = NeighborSpace.EMBEDDING
    reduction: Reduction = Reduction.SUM

    def __post_init__(self) -> None:
        if not (np.isfinite(self.temperature) and self.temperature > 0):
            raise ConfigError(f"temperature must be positive, got {self.temperature}")


@dataclass(frozen=True)
class LossOutput:
    """Scalar loss plus its gradient with respect to the raw embeddings.

    ``weighted`` is False when the guards dropped every pair weight of the
    batch; value and gradient are then exactly zero.
    """

    value: float
    grad_raw: np.ndarray = field(repr=False)
    weighted: bool


def _normalized_pair_weights(w: np.ndarray) -> np.ndarray:
    """Rows of w_{i,k} / sum_{t != i} w_{i,t} with zero diagonal.

    Off-diagonal entries of each row sum to 1 unless the row's weight mass
    is below WEIGHT_SUM_EPS, in which case the whole row is zeroed.
    """
    n = w.shape[0]
    off = w * (1.0 - np.eye(n))
    row_sums = off.sum(axis=1, keepdims=True)
    safe = np.where(row_sums < WEIGHT_SUM_EPS, 1.0, row_sums)
    return np.where(row_sums < WEIGHT_SUM_EPS, 0.0, off / safe)


def _tie_group_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Per row, the position at which each entry's run of equal keys starts."""
    new_run = np.ones(sorted_keys.shape, dtype=bool)
    new_run[:, 1:] = sorted_keys[:, 1:] != sorted_keys[:, :-1]
    positions = np.arange(sorted_keys.shape[1])
    return np.maximum.accumulate(np.where(new_run, positions, 0), axis=1)


def _count_at_most(bounds: np.ndarray) -> np.ndarray:
    """Entry (i, j) is how many of row i's bounds are <= j, for j < m.

    Bounds are integers in [0, m], where m = bounds.shape[1].
    """
    rows, m = bounds.shape
    flat = (bounds + (m + 1) * np.arange(rows)[:, None]).ravel()
    histogram = np.bincount(flat, minlength=rows * (m + 1)).reshape(rows, m + 1)
    return np.cumsum(histogram, axis=1)[:, :m]


def _log_cumsum(x: np.ndarray, reverse: bool = False) -> np.ndarray:
    """Row-wise cumulative log-sum-exp, padded to m + 1 columns.

    Column j holds the log-sum-exp of the first j entries, or with
    ``reverse`` of the entries from j on; an empty sum is -inf.
    """
    n, m = x.shape
    out = np.full((n, m + 1), -np.inf)
    if reverse:
        np.logaddexp.accumulate(x[:, ::-1], axis=1, out=out[:, m - 1 :: -1])
    else:
        np.logaddexp.accumulate(x, axis=1, out=out[:, 1:])
    return out


def _log_sum_outside(x: np.ndarray, row_starts: np.ndarray, before, start) -> np.ndarray:
    """Per entry, log-sum-exp of its row's x before position ``before``
    plus from position ``start`` on; a side given as None is left out."""
    if start is None:
        return _log_cumsum(x).take(before + row_starts)
    tail = _log_cumsum(x, reverse=True).take(start + row_starts)
    if before is None:
        return tail
    return np.logaddexp(_log_cumsum(x).take(before + row_starts), tail)


@functools.lru_cache(maxsize=16)
def _layout(variant: LossVariant, n: int, count: int) -> tuple:
    """The part of ``_loss_core`` that depends only on (variant, n, count):
    row_starts (flat offset of each row of an (n, n) array, which also fits
    the (n, m + 1) cumulative sums), the diagonal mask, and (1, m) rows c,
    c_count, e, e_count, usable. An entry is None where it depends on the
    data or the variant has no such side. Shared by every call: read-only.
    """
    m = n - 1
    c = c_count = e = e_count = None
    usable = np.ones((1, m), dtype=bool)
    if variant is LossVariant.DYN_LOC_REP:
        c = np.full((1, m), count)
    elif variant in (LossVariant.Y_AWARE, LossVariant.EXPONENTIAL):
        c = np.arange(m)[None, :]
        e = c + 1
        e_count = _count_at_most(e)
        usable = (c > 0) | (e < m)
    elif variant is LossVariant.THRESHOLD:
        usable = None
    if c is not None:
        c_count = _count_at_most(c)
    layout = (n * np.arange(n)[:, None], np.eye(n, dtype=bool), c, c_count, e, e_count, usable)
    for array in layout:
        if array is not None:
            array.setflags(write=False)
    return layout


def _loss_core(
    variant: LossVariant,
    s: np.ndarray,
    w: np.ndarray | None,
    gaps: np.ndarray | None,
    neighbors: np.ndarray | None,
) -> tuple[float, np.ndarray, bool]:
    """Total loss, dL/ds (rows indexed by anchors) and whether any pair
    kept a weight, for any variant.

    ``w`` is needed by every variant but rnc, ``gaps`` (|y_i - y_t|) by
    rnc and ``neighbors`` (n, count) by dynlocrep. Works in each anchor's
    sorted order from the module docstring, with pairs indexed by the
    partner's position in it.
    """
    n = s.shape[0]
    m = n - 1
    localized = variant is LossVariant.DYN_LOC_REP
    row_starts, diagonal, c, c_count, e, e_count, usable = _layout(
        variant, n, neighbors.shape[1] if localized else 0
    )
    if variant is LossVariant.RANK_N_CONTRAST:
        keys = gaps
    elif variant is LossVariant.THRESHOLD:
        keys = w
    else:
        keys = np.ones(n * n)
        if localized:
            keys[neighbors + row_starts] = 0.0
        keys = keys.reshape(n, n)
    # the anchor's own column sorts last and is cut off
    keys = np.where(diagonal, np.inf, keys)
    at = np.argsort(keys, axis=1, kind="stable")[:, :m] + row_starts

    w_sorted = None if w is None else w.take(at)
    if variant is LossVariant.THRESHOLD:
        c = _tie_group_starts(w_sorted)
        c_count = _count_at_most(c)
        usable = c > 0
        mass = np.zeros((n, n))
        np.cumsum(w_sorted, axis=1, out=mass[:, 1:])
        mass = mass.take(c + row_starts)
        # an empty or near-empty candidate set drops the pair instead of
        # blowing its weight up to ~1/underflow
        a = np.where(mass >= WEIGHT_SUM_EPS, w_sorted / np.maximum(mass, WEIGHT_SUM_EPS), 0.0)
    elif variant is LossVariant.RANK_N_CONTRAST:
        e = _tie_group_starts(gaps.take(at))
        e_count = _count_at_most(e)
        a = np.ones((n, m))
    else:
        a = _normalized_pair_weights(w).take(at)
    if variant in (LossVariant.DYN_LOC_REP, LossVariant.EXPONENTIAL):
        b = 1.0 - w_sorted
    else:
        b = 1.0

    s_sorted = s.take(at)
    x = b * s_sorted
    a = np.where(usable, a, 0.0)
    log_denom = np.where(usable, _log_sum_outside(x, row_starts, c, e), 0.0)
    total = -float(np.sum(a * (s_sorted - log_denom)))

    # dL/ds_it = -a_it + b_it * sum_k a_ik * exp(x_it - log_denom_ik) over
    # the k whose candidate set holds t. With t at position j, and c and e
    # never decreasing along the order, those k are the positions from
    # #{k : c_ik <= j} on (t in the prefix) and the first #{k : e_ik <= j}
    # positions (t in the suffix).
    weighted = a > 0.0
    log_share = np.log(a, out=np.full((n, m), -np.inf), where=weighted) - log_denom
    grad_sorted = -a + b * np.exp(x + _log_sum_outside(log_share, row_starts, e_count, c_count))
    grad_s = np.zeros(n * n)
    grad_s[at] = grad_sorted
    return total, grad_s.reshape(n, n), bool(weighted.any())


def _check_square(name: str, values: np.ndarray, n: int) -> None:
    if values.shape != (n, n):
        raise InputError(f"{name} must have shape ({n}, {n}), got {values.shape}")


def dynlocrep_forward(sim: np.ndarray, weights: np.ndarray, neighbors: np.ndarray) -> float:
    """Total dynamic localized repulsion loss over all anchors.

    Takes the similarity matrix s, the positiveness matrix w and the
    (n, count) neighbor indices. The numerator sum runs over every
    partner k != i; only the repulsion denominator is restricted to the
    anchor's neighbor set (which may include k itself).
    """
    n = sim.shape[0]
    _check_square("positiveness matrix", weights, n)
    if neighbors.shape[0] != n:
        raise InputError(f"neighbor sets cover {neighbors.shape[0]} anchors, expected {n}")
    if neighbors.shape[1] < 1:
        raise InputError("every anchor needs a non-empty neighbor set")
    return _loss_core(LossVariant.DYN_LOC_REP, sim, weights, None, neighbors)[0]


def baseline_forward(
    variant: LossVariant,
    sim: np.ndarray,
    weights: np.ndarray | None = None,
    labels: np.ndarray | None = None,
) -> float:
    """Total loss for one of the four global (non-localized) baselines.

    Rank-N-Contrast consumes raw labels; the other three consume the
    positiveness matrix.
    """
    if variant is LossVariant.DYN_LOC_REP:
        raise ConfigError("use dynlocrep_forward for the localized loss")
    n = sim.shape[0]
    gaps = None
    if variant is LossVariant.RANK_N_CONTRAST:
        if labels is None:
            raise InputError("rank-n-contrast needs labels")
        labels = np.asarray(labels, dtype=np.float64)
        if labels.shape != (n,):
            raise InputError(f"labels must have shape ({n},), got {labels.shape}")
        gaps = np.abs(labels[:, None] - labels[None, :])
    else:
        if weights is None:
            raise InputError(f"{variant.value} needs a positiveness matrix")
        _check_square("positiveness matrix", weights, n)
    return _loss_core(variant, sim, weights, gaps, None)[0]


def loss_with_gradient(
    config: LossConfig,
    batch: EmbeddingBatch,
    labels: np.ndarray,
    neighbor_count: int | None = None,
    input_features: np.ndarray | None = None,
) -> LossOutput:
    """Forward value plus the analytic gradient w.r.t. raw embeddings.

    Neighbor selection (for the localized variant) and the kernel weights
    are constants of the differentiation; the similarity and normalization
    Jacobians are applied analytically. ``neighbor_count`` is required for
    the localized variant and must already be clamped into [1, n - 1];
    ``input_features`` is required when neighbors are selected in input
    space.
    """
    n = batch.n
    if n < 2:
        raise InputError(f"need a batch of at least 2 samples, got {n}")
    labels = np.asarray(labels, dtype=np.float64)
    if labels.shape != (n,):
        raise InputError(f"labels must have shape ({n},), got {labels.shape}")

    s = similarity_matrix(batch.unit, config.temperature)
    variant = config.variant

    w = None
    gaps = None
    neighbors = None
    if variant is LossVariant.RANK_N_CONTRAST:
        gaps = np.abs(labels[:, None] - labels[None, :])
    else:
        w = positiveness_matrix(labels, config.kernel)
    if variant is LossVariant.DYN_LOC_REP:
        if neighbor_count is None:
            raise ConfigError("the localized variant needs a neighbor count")
        if config.nn_space is NeighborSpace.INPUT:
            if input_features is None:
                raise ConfigError("input-space neighbor selection needs input features")
            points = np.asarray(input_features, dtype=np.float64)
            if points.shape[0] != n:
                raise InputError(
                    f"input features must have {n} rows, got {points.shape[0]}"
                )
        else:
            points = batch.unit
        distances = distance_matrix(points, config.distance_norm)
        neighbors = select_neighbors(distances, neighbor_count)

    value, grad_s, weighted = _loss_core(variant, s, w, gaps, neighbors)

    # Chain rule: s = U U^T / tau, then u = z / max(||z||, eps) per row.
    grad_unit = (grad_s + grad_s.T) @ batch.unit / config.temperature
    norms = np.sqrt(np.sum(batch.raw * batch.raw, axis=1, keepdims=True))
    radial = (grad_unit * batch.unit).sum(axis=1, keepdims=True)
    grad_raw = np.where(
        norms > NORM_EPS, grad_unit - radial * batch.unit, grad_unit
    ) / np.maximum(norms, NORM_EPS)

    if config.reduction is Reduction.MEAN:
        value /= n
        grad_raw = grad_raw / n

    if not np.isfinite(value) or not np.all(np.isfinite(grad_raw)):
        raise NumericalError(f"{variant.value} loss produced non-finite output")
    return LossOutput(value=value, grad_raw=grad_raw, weighted=weighted)
