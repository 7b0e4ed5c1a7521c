"""Independent reference implementations used to check the library.

Everything here is written as plain Python loops over scalars, direct
exp/log with no shared code, no masking tricks and no log-sum-exp, so
agreement with the vectorized implementations is meaningful. These
functions take raw matrices (similarities s, kernel weights w, labels y)
rather than the library's wrapper types.
"""

import math

import numpy as np

from dynlocrep import InputError


def dynlocrep_loss(s, w, neighbor_lists):
    """Localized repulsion: denominator over the anchor's neighbor set."""
    n = len(s)
    total = 0.0
    for i in range(n):
        weight_sum = sum(w[i][t] for t in range(n) if t != i)
        if weight_sum < 1e-12:
            continue
        denom = sum(math.exp(s[i][t] * (1.0 - w[i][t])) for t in neighbor_lists[i])
        for k in range(n):
            if k == i:
                continue
            total -= (w[i][k] / weight_sum) * math.log(math.exp(s[i][k]) / denom)
    return total


def yaware_loss(s, w):
    """Global loss with plain similarities in the denominator (t not in {i, k})."""
    n = len(s)
    total = 0.0
    for i in range(n):
        weight_sum = sum(w[i][t] for t in range(n) if t != i)
        if weight_sum < 1e-12:
            continue
        for k in range(n):
            if k == i:
                continue
            terms = [math.exp(s[i][t]) for t in range(n) if t != i and t != k]
            if not terms:
                continue
            total -= (w[i][k] / weight_sum) * math.log(math.exp(s[i][k]) / sum(terms))
    return total


def exponential_loss(s, w):
    """Global loss with (1 - w)-scaled similarities in the denominator."""
    n = len(s)
    total = 0.0
    for i in range(n):
        weight_sum = sum(w[i][t] for t in range(n) if t != i)
        if weight_sum < 1e-12:
            continue
        for k in range(n):
            if k == i:
                continue
            terms = [
                math.exp(s[i][t] * (1.0 - w[i][t]))
                for t in range(n)
                if t != i and t != k
            ]
            if not terms:
                continue
            total -= (w[i][k] / weight_sum) * math.log(math.exp(s[i][k]) / sum(terms))
    return total


def exponential_full_denominator_loss(s, w):
    """Like exponential_loss but the denominator runs over every t != i.

    This is the global limit the localized loss degenerates to when the
    neighbor sets cover the whole batch.
    """
    n = len(s)
    total = 0.0
    for i in range(n):
        weight_sum = sum(w[i][t] for t in range(n) if t != i)
        if weight_sum < 1e-12:
            continue
        denom = sum(
            math.exp(s[i][t] * (1.0 - w[i][t])) for t in range(n) if t != i
        )
        for k in range(n):
            if k == i:
                continue
            total -= (w[i][k] / weight_sum) * math.log(math.exp(s[i][k]) / denom)
    return total


def threshold_loss(s, w):
    """Both the weight normalization and the denominator are restricted to
    candidates strictly less positive than the partner. A pair skips when
    its candidate set is empty or carries weight mass below 1e-12 (the
    same guard the other weight normalizations use)."""
    n = len(s)
    total = 0.0
    for i in range(n):
        for k in range(n):
            if k == i:
                continue
            candidates = [t for t in range(n) if t != i and w[i][t] < w[i][k]]
            if not candidates:
                continue
            weight_sum = sum(w[i][t] for t in candidates)
            if weight_sum < 1e-12:
                continue
            denom = sum(math.exp(s[i][t]) for t in candidates if t != k)
            total -= (w[i][k] / weight_sum) * math.log(math.exp(s[i][k]) / denom)
    return total


def rank_n_contrast_loss(s, y):
    """Ranking loss: denominator over samples at least as label-distant as k."""
    n = len(s)
    total = 0.0
    for i in range(n):
        for k in range(n):
            if k == i:
                continue
            denom = sum(
                math.exp(s[i][t])
                for t in range(n)
                if t != i and abs(y[i] - y[t]) >= abs(y[i] - y[k])
            )
            total -= math.log(math.exp(s[i][k]) / denom)
    return total


def kernel_value(delta, spec):
    """Evaluate the positiveness kernel on a single label difference.

    The gaussian kernel returns exp(-delta^2 / (2 * bandwidth^2)), which
    lies in (0, 1], peaks at delta = 0 and is even in delta (computed via
    delta^2, so the symmetry is exact in floating point).
    """
    if not math.isfinite(delta):
        raise InputError(f"label difference must be finite, got {delta}")
    return math.exp(-(delta * delta) / (2.0 * spec.bandwidth * spec.bandwidth))


def ridge_augmented_inverse(x, y, lam):
    """Ridge with an unpenalized intercept via an explicit matrix inverse.

    Solves the normal equations of [X, 1] directly; returns (coef, intercept).
    """
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    design = np.hstack([x, np.ones((n, 1))])
    penalty = lam * np.diag([1.0] * d + [0.0])
    solution = np.linalg.inv(design.T @ design + penalty) @ design.T @ np.asarray(y)
    return solution[:d], float(solution[d])


def schedule_trajectory(batch_size, nn_final, step_size, max_epochs):
    """Per-epoch neighbor counts, computed with plain scalar arithmetic."""
    total_steps = max_epochs // step_size
    counts = []
    for epoch in range(max_epochs):
        steps_completed = epoch // step_size
        decrement = (batch_size - nn_final) / (total_steps - 1)
        value = batch_size - decrement * steps_completed
        counts.append(max(min(math.floor(value), batch_size - 1), nn_final))
    return counts
