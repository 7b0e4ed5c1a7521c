"""Kernel weights: closed forms, symmetry, and range properties."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dynlocrep import ConfigError, InputError, KernelSpec, positiveness_matrix
from oracles import kernel_value

SIGMA2 = KernelSpec(bandwidth=2.0)

finite_deltas = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def test_peak_at_zero_difference():
    assert kernel_value(0.0, SIGMA2) == 1.0


def test_gaussian_closed_form():
    # exp(-2^2 / (2 * 2^2)) = exp(-1/2)
    assert kernel_value(2.0, SIGMA2) == pytest.approx(math.exp(-0.5), rel=1e-15)


def test_even_symmetry_is_exact():
    assert kernel_value(-2.0, SIGMA2) == kernel_value(2.0, SIGMA2)


def test_non_finite_delta_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InputError):
            kernel_value(bad, SIGMA2)


def test_bandwidth_must_be_positive():
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ConfigError):
            KernelSpec(bandwidth=bad)


# the extremes of the bandwidths for which 2 * bandwidth**2 is finite and positive
SMALLEST_BANDWIDTH = 1.111379374742539e-162
LARGEST_BANDWIDTH = 9.480751908109176e153


@pytest.mark.parametrize(
    "bad",
    [
        math.nextafter(SMALLEST_BANDWIDTH, 0.0),
        1e-170,
        math.nextafter(LARGEST_BANDWIDTH, math.inf),
        1e160,
    ],
)
def test_bandwidth_whose_kernel_divisor_underflows_or_overflows_rejected(bad):
    with pytest.raises(ConfigError, match=r"must lie in about \[1.1e-162, 9.5e153\]"):
        KernelSpec(bandwidth=bad)


def test_the_accepted_extremes_keep_a_unit_diagonal():
    """At the smallest bandwidth tied pairs weigh 1, where a divisor of 0
    would give 0 / 0 = NaN, and untied ones weigh 0."""
    with np.errstate(over="ignore"):  # untied pairs overflow to the correct weight 0
        w = positiveness_matrix(np.array([0.0, 0.0, 1.0]), KernelSpec(SMALLEST_BANDWIDTH))
    assert np.array_equal(w, [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    w = positiveness_matrix(np.array([0.0, 1e150]), KernelSpec(LARGEST_BANDWIDTH))
    assert np.array_equal(np.diag(w), np.ones(2))
    assert 0.0 < w[0, 1] < 1.0


def test_a_squared_gap_that_overflows_is_weighed_from_gap_over_bandwidth():
    """A label gap above about 1.34e154 overflows (y_i - y_k)^2, which gave
    weight 0 and a warning; such pairs weigh exp(-(gap / bandwidth)^2 / 2),
    and every other pair keeps the bits of the squared-difference formula."""
    labels = np.array([0.0, 1e155, 1.0, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = positiveness_matrix(labels, KernelSpec(LARGEST_BANDWIDTH))
        rest = positiveness_matrix(labels[[0, 2, 3]], KernelSpec(LARGEST_BANDWIDTH))
    assert w[0, 1] == 6.943325664886396e-25
    assert w.tobytes() == w.T.copy().tobytes()
    assert np.array_equal(np.diag(w), np.ones(4))
    assert w[np.ix_([0, 2, 3], [0, 2, 3])].tobytes() == rest.tobytes()


@given(delta=finite_deltas, bandwidth=st.floats(min_value=1e-3, max_value=1e3))
def test_kernel_range(delta, bandwidth):
    """Strictly positive below the exp underflow threshold, 1 only near 0.

    float64 rounds exp(-x) to 0 for x beyond ~745 and to 1 for x below
    ~1e-17; the strict versions of both bounds hold everywhere in between.
    """
    exponent = delta * delta / (2.0 * bandwidth * bandwidth)
    value = kernel_value(delta, KernelSpec(bandwidth=bandwidth))
    assert value <= 1.0
    if exponent < 700.0:
        assert value > 0.0
    if delta == 0.0:
        assert value == 1.0
    elif exponent > 1e-15:
        assert value < 1.0


@given(
    d1=st.floats(min_value=0.0, max_value=50.0),
    gap=st.floats(min_value=1e-6, max_value=50.0),
)
def test_kernel_monotone_in_absolute_difference(d1, gap):
    assert kernel_value(d1, SIGMA2) >= kernel_value(d1 + gap, SIGMA2)
    if (d1 + gap) ** 2 / 8.0 < 700.0:  # below the exp underflow threshold
        assert kernel_value(d1, SIGMA2) > kernel_value(d1 + gap, SIGMA2)


def test_identical_labels_give_all_ones():
    w = positiveness_matrix(np.array([30.0, 30.0, 30.0]), SIGMA2)
    assert np.array_equal(w, np.ones((3, 3)))


def test_two_label_off_diagonal():
    w = positiveness_matrix(np.array([20.0, 22.0]), SIGMA2)
    assert w[0, 1] == pytest.approx(math.exp(-0.5), rel=1e-15)
    assert w[1, 0] == pytest.approx(math.exp(-0.5), rel=1e-15)


def test_matrix_entries_match_scalar_kernel():
    labels = np.array([12.0, 40.5, 41.0, 77.7, 25.0])
    w = positiveness_matrix(labels, SIGMA2)
    for i in range(5):
        for k in range(5):
            assert w[i, k] == pytest.approx(
                kernel_value(labels[i] - labels[k], SIGMA2), rel=1e-15
            )


def test_matrix_is_bitwise_symmetric_with_unit_diagonal():
    rng = np.random.default_rng(3)
    labels = rng.uniform(0.0, 90.0, size=17)
    w = positiveness_matrix(labels, SIGMA2)
    assert np.array_equal(w, w.T)
    assert np.array_equal(np.diag(w), np.ones(17))


def test_batch_too_small_rejected():
    with pytest.raises(InputError):
        positiveness_matrix(np.array([30.0]), SIGMA2)


def test_two_dimensional_labels_rejected():
    with pytest.raises(InputError, match=r"^labels must have shape \(n,\), got \(2, 1\)$"):
        positiveness_matrix(np.array([[30.0], [40.0]]), SIGMA2)


def test_non_finite_labels_rejected():
    with pytest.raises(InputError):
        positiveness_matrix(np.array([30.0, math.nan]), SIGMA2)
