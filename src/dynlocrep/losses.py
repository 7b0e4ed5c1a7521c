"""Contrastive regression losses: forward values and analytic gradients.

Five variants share one algebraic skeleton. For anchor i with pair
weights a_{i,k}, exponent scalings b_{i,t} and a per-pair candidate set
M(i, k), the total loss is

    L = -sum_i sum_{k != i} a_{i,k} * [ s_{i,k} - log sum_{t in M(i,k)} exp(x_{i,t}) ]

where s is the temperature-scaled cosine similarity matrix and x = b * s.
The variants differ in (a, b, M), and the shape of M picks the evaluator:

  dynlocrep    a = w_{i,k} / sum_{t != i} w_{i,t}; b = 1 - w; M = the
               anchor's current nearest neighbors, the same for every k:
               one max-shifted log-sum-exp per row of x, which is -inf
               outside the set; the gradient's sum over k is the row sum
               of a. The neighbors are read as a set, in no order; at
               count n - 1 no distance is computed and none selected.
  yaware       same a; b = 1; M = {t : t != i, k} (everyone but the
               partner).
  exponential  as yaware, but b = 1 - w. Both work on whole rows with
               x_{i,i} = -inf and a_{i,i} = 0: every denominator, and
               every sum over k in the gradient, is the log-sum-exp of the
               rest of a row, from one peak-shifted sum per row.
  threshold    a = w_{i,k} / (sum of w over M(i,k)); b = 1;
               M = {t : w_{i,t} < w_{i,k}}.
  rnc          a = 1; b = 1; M = {t != i : |y_i - y_t| >= |y_i - y_k|}
               (k is always a member, never empty). Here the data set the
               order: each anchor sorts the other n - 1 samples by w or by
               label gap ascending, and M is the prefix before k's tie
               group (threshold) or the suffix from it on (rnc), summed by
               cumulative log-sum-exps along that order. The sort is not
               stable: equal keys stay adjacent, and every cumulative sum
               is read only at a tie group's start, so the order within a
               group moves the result by float rounding only.

Anchors never pair with themselves: every sum over k and t excludes i.
Pairs with an empty candidate set are dropped. Nothing is exponentiated
unshifted: every log-sum-exp shifts its terms by the peak of their row, so
each term is at most 1, which keeps the losses finite at temperatures as
low as 0.001, where |s| reaches 1000. One subtraction is allowed: the rest
of a row's non-peak entry j is the peak's term 1 plus the sum of all
non-peak terms minus j's own term. That removes one term of at most 1
from a sum that still holds the peak's 1, so it cannot cancel. Cumulative
sums run in linear space; only a row whose finite entries span more than
LOG_CUMSUM_SPAN, where small terms would underflow, is accumulated with
np.logaddexp instead. If the guards drop every pair weight of a batch,
loss and gradient are exactly zero and ``LossOutput.weighted`` is False.
Gradients treat the neighbor selection and all kernel weights as
constants and are chained through the cosine similarity and the row
normalization back to the raw embeddings.
"""

from __future__ import annotations

import enum
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, InputError, NumericalError, _check_array, _check_int,
                     _check_real, _member)
from .geometry import (
    NORM_EPS,
    DistanceNorm,
    EmbeddingBatch,
    _batch_size,
    distance_matrix,
    select_neighbors,
    similarity_matrix,
)
from .kernels import KernelSpec, positiveness_matrix

# An anchor whose off-diagonal kernel weights sum below this contributes 0
# instead of dividing by ~0. A gaussian kernel reaches it: with every other
# label of the batch d bandwidths or more from the anchor's, the weights sum
# to at most (n - 1) exp(-d^2 / 2), below 1e-12 beyond d = 7.44 in a
# two-row batch and beyond d = 7.89 at batch 32.
WEIGHT_SUM_EPS = 1e-12

# The widest span of finite entries a row may have for _log_cumsum to sum
# it in linear space after shifting by the row's peak: exp(-600) is still a
# normal double, so no term underflows. x spans at most 2/tau, so only
# tau below about 1/300, or extreme kernel weights in the gradient, reach it.
LOG_CUMSUM_SPAN = 600.0

# A row shifted by max(peak, _LOWEST) stays -inf if all -inf, where -inf gives NaN.
_LOWEST = np.finfo(np.float64).min

# Every (n, n)-sized intermediate of a step lives in (n, n) float64 work
# arrays: the similarities, and _CORE_WORK for the weights or label gaps, the
# distances and the loss core. Each thread keeps one buffer, as large as the
# largest batch it has run while that fits in _KEPT_BYTES (n <= 724), and
# every batch size works in (n, n) views of it, so a warm step faults in no
# fresh pages; no result aliases them.
_CORE_WORK = 7
_KEPT_BYTES = 32 << 20


class _Kept(threading.local):
    buffer = np.empty(0)  # per thread: the buffer and its views for the latest batch size
    work = [np.empty((0, 0))] * (1 + _CORE_WORK)


_kept = _Kept()


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
    """Everything a loss evaluation needs besides the batch itself.

    Each enum field takes a member or its string value and holds the
    member, so the loss dispatch, which compares members by identity,
    sees every spelling alike.
    """

    variant: LossVariant = LossVariant.DYN_LOC_REP
    kernel: KernelSpec = KernelSpec()
    temperature: float = 0.5
    distance_norm: DistanceNorm = DistanceNorm.MANHATTAN
    nn_space: NeighborSpace = NeighborSpace.EMBEDDING
    reduction: Reduction = Reduction.SUM

    def __post_init__(self) -> None:
        for name in ("variant", "distance_norm", "nn_space", "reduction"):
            kind = type(getattr(LossConfig, name))  # the enum of the field's default
            object.__setattr__(self, name, _member(name, kind, getattr(self, name)))
        if not isinstance(self.kernel, KernelSpec):
            raise ConfigError(f"kernel must be a KernelSpec, got {self.kernel!r}")
        _check_real("temperature", self.temperature, "be positive", lambda t: t > 0)


@dataclass(frozen=True)
class LossOutput:
    """Scalar loss plus its gradient with respect to the raw embeddings.

    ``weighted`` is False when the guards dropped every pair weight of the
    batch; value and gradient are then exactly zero.
    """

    value: float
    grad_raw: np.ndarray = field(repr=False)
    weighted: bool


def _scratch(n: int) -> list[np.ndarray]:
    """This thread's 1 + _CORE_WORK work arrays for an n-row batch: C-contiguous
    (n, n) views of its kept buffer, or of a new one where that is too small,
    which replaces it if it fits in _KEPT_BYTES; a warm step reuses the views."""
    if len(_kept.work[0]) == n:
        return _kept.work
    size = (1 + _CORE_WORK) * n * n
    buffer = _kept.buffer if _kept.buffer.size >= size else np.empty(size)
    work = list(buffer[:size].reshape(1 + _CORE_WORK, n, n))
    if buffer.nbytes <= _KEPT_BYTES:
        _kept.buffer, _kept.work = buffer, work
    return work


def _rows(work: np.ndarray, m: int, dtype: type = np.float64) -> np.ndarray:
    """The first n * m items of an (n, n) work array as a C-contiguous
    (n, m) array of ``dtype``, whose items are 8 bytes like a float64's."""
    return np.ndarray((len(work), m), dtype, work)


def _copy(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """x copied into ``out``, which may be x itself."""
    if out is not x:
        np.copyto(out, x)
    return out


def _normalized_pair_weights(w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Rows of w_{i,k} / sum_{t != i} w_{i,t} with zero diagonal, in ``out``
    (which may be w itself).

    Off-diagonal entries of each row sum to 1 unless the row's weight mass
    is below WEIGHT_SUM_EPS, in which case the whole row is zeroed.
    """
    a = _copy(w, out)
    a.ravel()[:: len(a) + 1] = 0.0
    row_sums = np.add.reduce(a, axis=1, keepdims=True)
    if row_sums.min() < WEIGHT_SUM_EPS:
        a[row_sums[:, 0] < WEIGHT_SUM_EPS] = 0.0
    return np.divide(a, np.maximum(row_sums, WEIGHT_SUM_EPS), out=a)


def _tie_groups(
    sorted_keys: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per row, where each entry's run of equal keys starts and one past its
    end: the column positions if no row has a tie, else written to the intp
    arrays ``starts`` and ``ends``."""
    m = sorted_keys.shape[1]
    positions = np.arange(m)
    differs = sorted_keys[:, 1:] != sorted_keys[:, :-1]
    if differs.all():
        return positions, positions + 1
    first, last = np.ones((2, *sorted_keys.shape), dtype=bool)
    first[:, 1:] = last[:, :-1] = differs
    # a group's start where one starts, else 0; one past its end where it ends, else m
    starts = np.multiply(first, positions, out=starts)
    np.maximum.accumulate(starts, axis=1, out=starts)
    ends = np.multiply(last, positions + 1 - m, out=ends)
    ends += m
    backwards = ends[:, ::-1]
    np.minimum.accumulate(backwards, axis=1, out=backwards)
    return starts, ends


def _log_cumsum(x: np.ndarray, reverse: bool, out: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """Row-wise cumulative log-sum-exp, padded to m + 1 columns.

    Column j holds the log-sum-exp of the first j entries, or with
    ``reverse`` of the entries from j on; an empty sum is -inf. Each row
    is shifted by its peak, exponentiated and summed in linear space,
    where every term is at most 1 and nothing is subtracted. A row whose
    finite entries span more than LOG_CUMSUM_SPAN would lose its smallest
    terms to underflow and is accumulated with np.logaddexp instead. The
    result goes to ``out`` (n, m + 1) and the sums are formed in ``sums``
    (n, m), both C-contiguous.
    """
    m = x.shape[1]
    if reverse:
        x, sums_at = x[:, ::-1], out[:, m - 1 :: -1]
        out[:, m] = -np.inf
    else:
        sums_at = out[:, 1:]
        out[:, 0] = -np.inf
    peak = x.max(axis=1, keepdims=True, initial=-np.inf)
    # contiguous, unlike the strided sums_at
    sums = np.subtract(x, np.maximum(peak, _LOWEST), out=sums)
    lowest = sums.min(initial=0.0)  # masked only where -inf entries hide it
    if lowest == -np.inf:
        lowest = sums.min(initial=0.0, where=sums > -np.inf)
    np.exp(sums, out=sums)
    sums.cumsum(axis=1, out=sums)
    # a prefix of -inf entries sums to 0, whose log is the -inf it stands for
    with np.errstate(divide="ignore"):
        np.log(sums, out=sums)
    sums += peak
    if lowest < -LOG_CUMSUM_SPAN:
        low = x.min(axis=1, keepdims=True, initial=np.inf, where=x > -np.inf)
        wide = (peak - low > LOG_CUMSUM_SPAN)[:, 0]
        sums[wide] = np.logaddexp.accumulate(x[wide], axis=1)
    sums_at[...] = sums
    return out


def _log_sum_all_but(x: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Per entry, the log-sum-exp of the rest of its row, in ``out`` (which
    may be x itself); ``work`` is an array of x's shape to work in.

    Rows are shifted by their peak p. The rest of a non-peak entry j is
    p + log1p(R - e_j), with e the shifted terms and R their sum over the
    non-peak entries: that rest still holds the peak's own term 1, and the
    subtraction removes one term of at most 1, so nothing cancels. The
    peak's own rest is summed directly, shifted by the runner-up. A row
    with no finite entry gives -inf everywhere, and one with a single
    finite entry gives -inf at it.
    """
    rows = x.shape[1] * np.arange(len(x))  # argmax and take beat a row-wise max
    top = x.argmax(axis=1) + rows
    peak = x.take(top)[:, None]
    terms = _copy(x, out)
    terms.put(top, -np.inf)
    runner = terms.take(terms.argmax(axis=1) + rows)[:, None]
    shifted = np.subtract(terms, np.maximum(runner, _LOWEST), out=work)
    runner_mass = np.add.reduce(np.exp(shifted, out=shifted), axis=1)
    np.subtract(terms, np.maximum(peak, _LOWEST), out=terms)
    np.exp(terms, out=terms)
    out = np.subtract(np.add.reduce(terms, axis=1, keepdims=True), terms, out=terms)
    np.log1p(out, out=out)
    out += peak
    with np.errstate(divide="ignore"):
        out.put(top, runner[:, 0] + np.log(runner_mass))
    return out


def _loss_core(
    variant: LossVariant,
    s: np.ndarray,
    w: np.ndarray | None,
    gaps: np.ndarray | None,
    neighbors: np.ndarray | None,
    work: list[np.ndarray],
) -> tuple[float, np.ndarray, bool]:
    """Total loss, dL/ds (rows indexed by anchors) and whether any pair
    kept a weight, for any variant. The total is 0.0 - sum, not -sum, so
    that a batch whose every pair dropped gives +0.0.

    ``w`` is needed by every variant but rnc, ``gaps`` (|y_i - y_t|) by
    rnc and ``neighbors`` (n, count) by dynlocrep, where None stands for
    everyone but the anchor. Each shape of candidate set in the module
    docstring has its own branch. Every (n, n)-sized intermediate but
    argsort's output, dL/ds included, lives in ``work``: _CORE_WORK
    C-contiguous (n, n) float64 arrays, such as _scratch's. No argument may
    alias them, except that work[0] may be the ``w`` or ``gaps`` that the
    variant reads, which is then overwritten; every other input is only read.
    """
    n = s.shape[0]
    row_starts = n * np.arange(n)[:, None]
    at = None
    if variant is LossVariant.THRESHOLD or variant is LossVariant.RANK_N_CONTRAST:
        # the anchor's own column sorts last and is cut off
        suffix = variant is LossVariant.RANK_N_CONTRAST
        keys = _copy(gaps if suffix else w, work[0])
        keys.ravel()[:: n + 1] = np.inf
        order = keys.argsort(axis=1)
        at = np.add(order[:, : n - 1], row_starts, out=_rows(work[1], n - 1, np.intp))
        del order
        sorted_keys = keys.take(at, out=_rows(work[2], n - 1), mode="clip")
        # threshold's M is the prefix before k's tie group, rnc's the
        # suffix from it on
        bound, ends = _rows(work[0], n - 1, np.intp), _rows(work[3], n - 1, np.intp)
        starts, group_ends = _tie_groups(sorted_keys, bound, ends)
        np.add(starts, row_starts, out=bound)
        np.add(group_ends, row_starts, out=ends)
        a = _rows(work[5], n - 1)
        if suffix:
            a.fill(1.0)
        else:
            mass = work[4]
            mass[:, 0] = 0.0
            np.cumsum(sorted_keys, axis=1, out=mass[:, 1:])
            mass.take(bound, out=a, mode="clip")
            # an empty or near-empty candidate set drops the pair instead of
            # blowing its weight up to ~1/underflow
            light = a < WEIGHT_SUM_EPS
            np.divide(sorted_keys, np.maximum(a, WEIGHT_SUM_EPS, out=a), out=a)
            a[light] = 0.0
        b = 1.0
        # from here on, pairs are indexed by the partner's sorted position;
        # the sorted keys are spent
        s = x = s.take(at, out=sorted_keys, mode="clip")
        sums = _rows(work[6], n - 1)
        log_denom = _log_cumsum(x, suffix, work[4], sums).take(bound, out=sums, mode="clip")
    else:
        # whole rows; x = -inf outside the candidates drops out of every max
        # and exponentiates to exactly 0
        b = 1.0 if variant is LossVariant.Y_AWARE else np.subtract(1.0, w, out=work[1])
        a = _normalized_pair_weights(w, work[0])
        x = np.multiply(b, s, out=work[2])
        np.fill_diagonal(x, -np.inf)
        if variant is LossVariant.DYN_LOC_REP:
            # one candidate set per anchor: its neighbors, whatever the partner
            if neighbors is not None:
                count = neighbors.shape[1]
                flat = np.add(neighbors, row_starts, out=_rows(work[3], count, np.intp))
                kept = x.take(flat, out=_rows(work[4], count), mode="clip")
                x.fill(-np.inf)
                x.put(flat, kept)
            peak = x.take(x.argmax(axis=1) + row_starts[:, 0])[:, None]
            terms = np.exp(np.subtract(x, peak, out=x), out=x)
            mass = np.add.reduce(terms, axis=1, keepdims=True)
            shifted = np.subtract(s, peak + np.log(mass), out=work[3])
            total = 0.0 - float(np.multiply(shifted, a, out=shifted).sum())
            # dL/ds_it = -a_it + b_it * softmax over the neighbor set * sum_k a_ik
            terms *= b
            terms *= np.add.reduce(a, axis=1, keepdims=True) / mass
            return total, np.subtract(terms, a, out=terms), bool((a > 0.0).any())
        log_denom = _log_sum_all_but(x, work[3], work[4])

    # an empty candidate set (log_denom = -inf) drops the pair
    usable = log_denom > -np.inf
    if not usable.all():
        dropped = ~usable
        a[dropped] = 0.0
        log_denom[dropped] = 0.0
    pairs = _rows(work[4], a.shape[1])
    total = 0.0 - float(np.multiply(np.subtract(s, log_denom, out=pairs), a, out=pairs).sum())

    # dL/ds_it = -a_it + b_it * sum_k a_ik * exp(x_it - log_denom_ik) over
    # the k whose candidate set holds t: for yaware and exponential every k
    # but t (a_ii = 0 leaves out i). Along the sorted order, where the
    # bounds never decrease, t at position j is in the prefix of the k from
    # #{k : bound_ik <= j} on (threshold) and in the suffix of the first
    # #{k : bound_ik <= j} (rnc).
    weighted = bool((a > 0.0).any())
    with np.errstate(divide="ignore"):  # log(0) = -inf: an unweighted pair adds 0
        log_share = np.log(a, out=pairs)
    log_share -= log_denom
    if at is None:
        grad_s = _log_sum_all_but(log_share, log_share, work[5])
    else:
        # #{k : bound_ik <= j} is one past the end of j's own tie group
        grad_s = _log_cumsum(log_share, not suffix, work[0], sums)
        grad_s = grad_s.take(ends, out=log_share, mode="clip")
    grad_s += x
    grad_s = np.multiply(b, np.exp(grad_s, out=grad_s), out=grad_s)
    grad_s -= a
    if at is None:
        return total, grad_s, weighted
    full = work[0]
    full.fill(0.0)
    full.put(at, grad_s)
    return total, full, weighted


def _label_gaps(labels: np.ndarray, out: np.ndarray) -> np.ndarray:
    """|y_i - y_t| of finite labels for rnc, in ``out``."""
    gaps = np.subtract(labels[:, None], labels, out=out)
    return np.abs(gaps, out=gaps)


def dynlocrep_forward(sim: np.ndarray, weights: np.ndarray, neighbors: np.ndarray) -> float:
    """Total dynamic localized repulsion loss over all anchors.

    Takes the similarity matrix s, the positiveness matrix w and the (n, count)
    neighbor indices: per row, distinct integers in [0, n) other than the
    anchor. The numerator sum runs over every partner k != i; only the repulsion
    denominator is restricted to the anchor's neighbor set (which may include k
    itself). InputError reports fewer than 2 rows or a non-finite s or w.
    """
    sim = _check_array("similarity matrix", sim, ("n", "n"), finite=True)
    n = _batch_size(len(sim))
    weights = _check_array("positiveness matrix", weights, (n, n), finite=True)
    expected = f"neighbor sets must have shape ({n}, count >= 1)"
    try:
        neighbors = np.asarray(neighbors)
    except ValueError:  # NumPy refuses rows of unequal length
        raise InputError(f"{expected}, got rows of unequal length") from None
    if neighbors.ndim != 2 or len(neighbors) != n or neighbors.shape[1] < 1:
        raise InputError(f"{expected}, got {neighbors.shape}")
    ordered = np.sort(neighbors, axis=1)
    if (
        not np.issubdtype(neighbors.dtype, np.integer)
        or ordered[:, 0].min() < 0
        or ordered[:, -1].max() >= n
        or np.any(ordered[:, 1:] == ordered[:, :-1])
        or np.any(neighbors == np.arange(n)[:, None])
    ):
        raise InputError(
            f"neighbor indices must be distinct integers in [0, {n}) other than their anchor"
        )
    return _loss_core(LossVariant.DYN_LOC_REP, sim, weights, None, neighbors, _scratch(n)[1:])[0]


def baseline_forward(
    variant: LossVariant | str,
    sim: np.ndarray,
    weights: np.ndarray | None = None,
    labels: np.ndarray | None = None,
) -> float:
    """Total loss for one of the four global (non-localized) baselines.

    Rank-N-Contrast consumes raw labels; the other three consume the
    positiveness matrix. ``variant`` is a member or its string value, as
    in LossConfig. InputError reports fewer than 2 rows or a non-finite s or w.
    """
    variant = _member("variant", LossVariant, variant)
    if variant is LossVariant.DYN_LOC_REP:
        raise ConfigError("use dynlocrep_forward for the localized loss")
    sim = _check_array("similarity matrix", sim, ("n", "n"), finite=True)
    n = _batch_size(len(sim))
    work, gaps = _scratch(n)[1:], None
    if variant is LossVariant.RANK_N_CONTRAST:
        if labels is None:
            raise InputError("rank-n-contrast needs labels")
        gaps = _label_gaps(_check_array("labels", labels, (n,), finite=True), work[0])
    else:
        if weights is None:
            raise InputError(f"{variant.value} needs a positiveness matrix")
        weights = _check_array("positiveness matrix", weights, (n, n), finite=True)
    return _loss_core(variant, sim, weights, gaps, None, work)[0]


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
    the localized variant and must already be clamped into [1, n - 1]; at
    n - 1 no distance is computed. ``input_features`` is required when
    neighbors are selected in input space. Non-finite embeddings raise
    NumericalError before anything is computed from them.
    """
    n = _batch_size(batch.n)
    variant = config.variant
    # rnc reads the labels' gaps; positiveness_matrix checks them for the rest
    labels = _check_array("labels", labels, (n,), finite=variant is LossVariant.RANK_N_CONTRAST)
    # s, then the core's work, whose first array holds w or gaps
    work = _scratch(n)
    w = gaps = None
    if variant is LossVariant.RANK_N_CONTRAST:
        gaps = _label_gaps(labels, work[1])
    else:
        w = positiveness_matrix(labels, config.kernel, out=work[1])
    if not np.isfinite(batch.raw).all():
        raise NumericalError("embeddings contain non-finite values")

    s = similarity_matrix(batch.unit, config.temperature, out=work[0])
    neighbors = None
    if variant is LossVariant.DYN_LOC_REP:
        if neighbor_count is None:
            raise ConfigError("the localized variant needs a neighbor count")
        _check_int("neighbor count", neighbor_count)
        if config.nn_space is NeighborSpace.INPUT:
            if input_features is None:
                raise ConfigError("input-space neighbor selection needs input features")
            points = _check_array("input features", input_features, (n, "m"))
        else:
            points = batch.unit
        # count n - 1 is everyone but the anchor (None); any other count,
        # out-of-range ones included, goes through select_neighbors
        if neighbor_count != n - 1:
            distances = distance_matrix(points, config.distance_norm, out=work[2])
            neighbors = select_neighbors(distances, neighbor_count, out=work[3])

    value, grad_s, weighted = _loss_core(variant, s, w, gaps, neighbors, work[1:])
    # The selection is the step's one large new array. Freed before the product
    # below allocates, it leaves the heap's top too small for glibc to trim, so
    # the next step reuses its pages instead of faulting in fresh ones.
    del neighbors

    # Chain rule: s = U U^T / tau, then u = z / max(||z||, eps) per row.
    grad_unit = np.add(grad_s, grad_s.T, out=work[0]) @ batch.unit
    grad_unit /= config.temperature
    norms = np.sqrt(np.add.reduce(batch.raw * batch.raw, axis=1, keepdims=True))
    tangent = np.add.reduce(grad_unit * batch.unit, axis=1, keepdims=True) * batch.unit
    if norms.min() <= NORM_EPS:
        # a row at the guard passes grad_unit through, divided by the guard
        tangent[norms[:, 0] <= NORM_EPS] = 0.0
        norms = np.maximum(norms, NORM_EPS)
    grad_raw = np.divide(np.subtract(grad_unit, tangent, out=grad_unit), norms, out=grad_unit)

    if config.reduction is Reduction.MEAN:
        value /= n
        grad_raw /= n

    if not (math.isfinite(value) and np.isfinite(grad_raw).all()):
        raise NumericalError(f"{variant.value} loss produced non-finite output")
    return LossOutput(value=value, grad_raw=grad_raw, weighted=weighted)
