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

from .errors import InputError, _check_array, _check_real
from .geometry import _batch_size


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian kernel bandwidth, in label units (years for age).

    The default bandwidth of 6 keeps pairs up to roughly a decade apart
    inside the attraction window, which the default benchmark needs for
    within-mode ordering; narrower kernels only supervise near-duplicate
    labels. A bandwidth must lie in about [1.1e-162, 9.5e153], where the
    kernel's divisor 2 * bandwidth**2 is finite and positive.
    """

    bandwidth: float = 6.0

    def __post_init__(self) -> None:
        _check_real("kernel bandwidth", self.bandwidth, "lie in about [1.1e-162, 9.5e153]",
                    lambda b: b > 0 and 0 < 2.0 * b * b < math.inf)


def positiveness_matrix(
    labels: np.ndarray, spec: KernelSpec, *, _out: np.ndarray | None = None
) -> np.ndarray:
    """Build the n x n matrix of kernel weights over all label pairs.

    Entry (i, k) is exp(-(y_i - y_k)^2 / (2 * bandwidth^2)), which lies in
    [0, 1] and peaks at equal labels. Exact symmetry and a unit diagonal
    follow from the kernel being computed on the squared difference. A pair whose squared
    difference overflows, a gap above about 1.34e154, is computed as
    exp(-(gap / bandwidth)^2 / 2) instead.
    """
    labels = _check_array("labels", labels, ("n",))
    n = _batch_size(len(labels))
    low, high = float(np.minimum.reduce(labels)), float(np.maximum.reduce(labels))
    if not (math.isfinite(low) and math.isfinite(high)):  # NaN propagates to both
        raise InputError("labels contains non-finite values")
    # delta squared is bit-identical across the diagonal, so w is exactly
    # symmetric; (delta * delta) rather than delta**2 keeps it elementwise.
    w = np.empty((n, n)) if _out is None else _out
    # no |delta| exceeds high - low, and Python floats overflow silently
    if (high - low) * (high - low) < math.inf:
        overflowed = None
        np.subtract(labels[:, None], labels, out=w)
        np.multiply(w, w, out=w)
    else:  # pairs whose squared gap overflows are weighed from gap / bandwidth
        with np.errstate(over="ignore"):
            np.subtract(labels[:, None], labels, out=w)
            np.multiply(w, w, out=w)
            rows, cols = np.isinf(w).nonzero()
            scaled = np.abs(labels[rows] - labels[cols]) / spec.bandwidth
            overflowed = np.exp(-0.5 * (scaled * scaled))
    np.divide(w, -(2.0 * spec.bandwidth * spec.bandwidth), out=w)
    np.exp(w, out=w)
    if overflowed is not None:
        w[rows, cols] = overflowed
    return w
