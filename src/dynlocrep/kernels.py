"""Label-similarity kernels and the pairwise positiveness matrix.

In contrastive regression the hard positive/negative split of the
classification setting is replaced by a continuous degree of positiveness
between 0 and 1, obtained by evaluating a kernel on the difference of the
two samples' labels. Samples close in label space get weights near 1 and
are pulled together; distant samples get weights near 0 and are repulsed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian kernel bandwidth, in label units (years for age).

    The default bandwidth of 6 keeps pairs up to roughly a decade apart
    inside the attraction window, which the default benchmark needs for
    within-mode ordering; narrower kernels only supervise near-duplicate
    labels.
    """

    bandwidth: float = 6.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ConfigError(f"kernel bandwidth must be positive, got {self.bandwidth}")


def kernel_value(delta: float, spec: KernelSpec) -> float:
    """Evaluate the positiveness kernel on a single label difference.

    The gaussian kernel returns exp(-delta^2 / (2 * bandwidth^2)), which
    lies in (0, 1], peaks at delta = 0 and is even in delta (computed via
    delta^2, so the symmetry is exact in floating point).
    """
    if not math.isfinite(delta):
        raise InputError(f"label difference must be finite, got {delta}")
    return math.exp(-(delta * delta) / (2.0 * spec.bandwidth * spec.bandwidth))


def positiveness_matrix(labels: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Build the n x n matrix of kernel weights over all label pairs.

    Entry (i, k) is kernel_value(labels[i] - labels[k], spec). Exact
    symmetry and a unit diagonal follow from the kernel being computed
    on the squared difference.
    """
    labels = np.asarray(labels, dtype=np.float64)
    if labels.ndim != 1:
        raise InputError(f"labels must be a 1-D vector, got shape {labels.shape}")
    if labels.shape[0] < 2:
        raise InputError(f"need at least 2 samples to form pairs, got {labels.shape[0]}")
    if not np.isfinite(labels).all():
        raise InputError("labels contain non-finite values")
    delta = labels[:, None] - labels[None, :]
    # delta squared is bit-identical across the diagonal, so w is exactly
    # symmetric; (delta * delta) rather than delta**2 keeps it elementwise.
    return np.exp(-(delta * delta) / (2.0 * spec.bandwidth * spec.bandwidth))
