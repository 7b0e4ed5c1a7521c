"""Losses: oracle equivalence, closed forms, gradients, and invariances."""

import math
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from dynlocrep import (
    ConfigError,
    DistanceNorm,
    EmbeddingBatch,
    InputError,
    KernelSpec,
    LossConfig,
    LossVariant,
    NeighborSpace,
    NumericalError,
    Reduction,
    baseline_forward,
    distance_matrix,
    dynlocrep_forward,
    loss_with_gradient,
    positiveness_matrix,
    select_neighbors,
    similarity_matrix,
)
from dynlocrep.geometry import NORM_EPS
from dynlocrep.losses import (
    _CORE_WORK,
    _KEPT_BYTES,
    WEIGHT_SUM_EPS,
    _log_cumsum,
    _log_sum_all_but,
    _loss_core,
    _normalized_pair_weights,
)

KERNEL = KernelSpec(bandwidth=2.0)
TAU = 0.1

BASELINES = [
    LossVariant.Y_AWARE,
    LossVariant.THRESHOLD,
    LossVariant.EXPONENTIAL,
    LossVariant.RANK_N_CONTRAST,
]


def random_batch(seed, n=5, d=3, label_range=(20.0, 80.0)):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n, d))
    labels = rng.uniform(*label_range, size=n)
    return EmbeddingBatch.from_raw(raw), labels


def forward_pieces(batch, labels, neighbor_count=None):
    sim = similarity_matrix(batch.unit, TAU)
    weights = positiveness_matrix(labels, KERNEL)
    neighbors = None
    if neighbor_count is not None:
        distances = distance_matrix(batch.unit, DistanceNorm.MANHATTAN)
        neighbors = select_neighbors(distances, neighbor_count)
    return sim, weights, neighbors


def oracle_value(variant, s, w, labels, neighbor_lists=None):
    if variant is LossVariant.DYN_LOC_REP:
        return oracles.dynlocrep_loss(s, w, neighbor_lists)
    if variant is LossVariant.Y_AWARE:
        return oracles.yaware_loss(s, w)
    if variant is LossVariant.EXPONENTIAL:
        return oracles.exponential_loss(s, w)
    if variant is LossVariant.THRESHOLD:
        return oracles.threshold_loss(s, w)
    return oracles.rank_n_contrast_loss(s, labels)


# ---------------------------------------------------------------------------
# forwards vs the loop oracles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("seed", range(6))
def test_dynlocrep_forward_matches_loop_oracle(n, seed):
    batch, labels = random_batch(seed, n=n)
    count = max(1, n - 2)
    sim, weights, neighbors = forward_pieces(batch, labels, neighbor_count=count)
    value = dynlocrep_forward(sim, weights, neighbors)
    expected = oracles.dynlocrep_loss(
        sim, weights, [list(row) for row in neighbors]
    )
    assert math.isclose(value, expected, rel_tol=1e-10, abs_tol=1e-10)


@pytest.mark.parametrize("variant", BASELINES)
@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("seed", range(6))
def test_baseline_forwards_match_loop_oracles(variant, n, seed):
    batch, labels = random_batch(seed, n=n)
    sim, weights, _ = forward_pieces(batch, labels)
    value = baseline_forward(variant, sim, weights=weights, labels=labels)
    expected = oracle_value(variant, sim, weights, labels)
    assert math.isclose(value, expected, rel_tol=1e-10, abs_tol=1e-10)


def test_clustered_labels_against_oracles():
    # near-duplicate labels exercise the threshold indicator and rnc ties
    rng = np.random.default_rng(99)
    labels = np.array([30.0, 30.0, 30.5, 68.0, 68.0])
    batch = EmbeddingBatch.from_raw(rng.normal(size=(5, 4)))
    sim, weights, neighbors = forward_pieces(batch, labels, neighbor_count=2)
    for variant in BASELINES:
        value = baseline_forward(variant, sim, weights=weights, labels=labels)
        expected = oracle_value(variant, sim, weights, labels)
        assert math.isclose(value, expected, rel_tol=1e-10, abs_tol=1e-10)
    value = dynlocrep_forward(sim, weights, neighbors)
    expected = oracles.dynlocrep_loss(
        sim, weights, [list(row) for row in neighbors]
    )
    assert math.isclose(value, expected, rel_tol=1e-10, abs_tol=1e-10)


@pytest.mark.parametrize("n", [32, 33, 64])
def test_forwards_match_oracles_on_larger_tied_batches(n):
    rng = np.random.default_rng(n)
    batch = EmbeddingBatch.from_raw(rng.normal(size=(n, 8)))
    labels = rng.integers(20, 30, size=n).astype(np.float64)
    sim, weights, neighbors = forward_pieces(batch, labels, neighbor_count=n // 3)
    value = dynlocrep_forward(sim, weights, neighbors)
    expected = oracles.dynlocrep_loss(sim, weights, [list(row) for row in neighbors])
    assert math.isclose(value, expected, rel_tol=1e-10, abs_tol=1e-10)
    for variant in BASELINES:
        value = baseline_forward(variant, sim, weights=weights, labels=labels)
        expected = oracle_value(variant, sim, weights, labels)
        assert math.isclose(value, expected, rel_tol=1e-10, abs_tol=1e-10), variant


def test_full_neighborhood_degenerates_to_global_loss():
    """With every other sample as a neighbor, the localized loss equals the
    (1 - w)-scaled global loss whose denominator runs over all t != i."""
    for seed in range(10):
        batch, labels = random_batch(seed, n=6)
        sim, weights, neighbors = forward_pieces(batch, labels, neighbor_count=5)
        value = dynlocrep_forward(sim, weights, neighbors)
        expected = oracles.exponential_full_denominator_loss(sim, weights)
        assert math.isclose(value, expected, rel_tol=1e-10, abs_tol=1e-10)


# ---------------------------------------------------------------------------
# closed forms and degenerate cases
# ---------------------------------------------------------------------------


def test_two_identical_samples_closed_form():
    """Equal unit embeddings and equal labels: each anchor contributes
    -s * w = -(1/tau) * 1, so the total is -20 at tau = 0.1."""
    batch = EmbeddingBatch.from_raw(np.array([[1.0, 0.0], [1.0, 0.0]]))
    labels = np.array([30.0, 30.0])
    sim, weights, neighbors = forward_pieces(batch, labels, neighbor_count=1)
    assert dynlocrep_forward(sim, weights, neighbors) == pytest.approx(-20.0, abs=1e-9)


def test_two_orthogonal_samples_are_zero_loss():
    batch = EmbeddingBatch.from_raw(np.array([[1.0, 0.0], [0.0, 1.0]]))
    for labels in (np.array([30.0, 30.0]), np.array([20.0, 75.0])):
        sim, weights, neighbors = forward_pieces(batch, labels, neighbor_count=1)
        assert abs(dynlocrep_forward(sim, weights, neighbors)) <= 1e-12


def test_yaware_two_samples_is_zero():
    """With n = 2 the denominator candidate set {t not in {i, k}} is empty,
    so both pairs are skipped and the total is 0."""
    batch, labels = random_batch(0, n=2)
    sim, weights, _ = forward_pieces(batch, labels)
    assert baseline_forward(LossVariant.Y_AWARE, sim, weights=weights) == 0.0
    assert baseline_forward(LossVariant.EXPONENTIAL, sim, weights=weights) == 0.0


def test_threshold_with_all_equal_weights_is_zero():
    batch, _ = random_batch(1, n=4)
    labels = np.full(4, 50.0)  # identical labels make every w equal
    sim, weights, _ = forward_pieces(batch, labels)
    assert baseline_forward(LossVariant.THRESHOLD, sim, weights=weights) == 0.0


def test_rnc_with_identical_labels_is_uniform_softmax_loss():
    """All-equal labels make every candidate set the full batch minus the
    anchor, reducing the ranking loss to a uniform contrastive form."""
    batch, _ = random_batch(2, n=3)
    labels = np.full(3, 41.0)
    sim, _, _ = forward_pieces(batch, labels)
    value = baseline_forward(LossVariant.RANK_N_CONTRAST, sim, labels=labels)
    s = sim
    expected = 0.0
    for i in range(3):
        denom = sum(math.exp(s[i][t]) for t in range(3) if t != i)
        for k in range(3):
            if k != i:
                expected -= math.log(math.exp(s[i][k]) / denom)
    assert math.isclose(value, expected, rel_tol=1e-10, abs_tol=1e-10)


def test_pair_weights_sum_to_one_per_anchor():
    """Labels within a 14-year window keep every anchor's off-diagonal
    kernel mass above the 1e-12 guard, so all weight rows normalize."""
    for seed in range(20):
        _, labels = random_batch(seed, n=10, label_range=(30.0, 44.0))
        w = positiveness_matrix(labels, KERNEL)
        sums = _normalized_pair_weights(w, np.empty_like(w)).sum(axis=1)
        assert np.all(np.abs(sums - 1.0) <= 1e-9)


def test_pair_weights_guard_zeroes_isolated_anchors():
    # an anchor ~40 sigma from everyone has off-diagonal mass below 1e-12
    labels = np.array([30.0, 30.5, 31.0, 130.0])
    w = positiveness_matrix(labels, KERNEL)
    sums = _normalized_pair_weights(w, np.empty_like(w)).sum(axis=1)
    assert np.allclose(sums[:3], 1.0, atol=1e-9)
    assert sums[3] == 0.0


def test_threshold_guard_keeps_near_empty_candidate_sets_finite():
    """A close pair whose only less-positive candidates carry vanishing
    kernel mass must skip instead of dividing by ~1e-250; the guarded
    value stays finite, matches the oracle, and so does its gradient."""
    labels = np.array([30.0, 30.1, 90.0])
    rng = np.random.default_rng(21)
    batch = EmbeddingBatch.from_raw(rng.normal(size=(3, 4)))
    sim, weights, _ = forward_pieces(batch, labels)
    value = baseline_forward(LossVariant.THRESHOLD, sim, weights=weights)
    expected = oracles.threshold_loss(sim, weights)
    assert math.isfinite(value)
    assert abs(value) < 1e6
    assert math.isclose(value, expected, rel_tol=1e-10, abs_tol=1e-10)
    out = loss_with_gradient(
        LossConfig(variant=LossVariant.THRESHOLD, kernel=KERNEL, temperature=TAU),
        batch,
        labels,
    )
    assert np.max(np.abs(out.grad_raw)) < 1e6


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("variant", list(LossVariant))
@pytest.mark.parametrize("n", [2, 3, 32, 256])
def test_lowest_temperature_stays_finite_without_warnings(variant, n):
    rng = np.random.default_rng(n)
    batch = EmbeddingBatch.from_raw(rng.normal(size=(n, 4)))
    labels = rng.integers(20, 25, size=n).astype(np.float64)
    config = LossConfig(variant=variant, kernel=KERNEL, temperature=0.001)
    count = max(1, n // 3) if variant is LossVariant.DYN_LOC_REP else None
    out = loss_with_gradient(config, batch, labels, neighbor_count=count)
    assert math.isfinite(out.value)
    assert np.all(np.isfinite(out.grad_raw))


INF = math.inf
LOG_SUM_ROWS = np.array(
    [
        [-1000.0, -750.0, 3.0, 0.0, 1.5, -2.0, -720.0],  # spans more than 708
        [5.0, 5.0, 1.0, -INF, 5.0, -3.0, 0.5],  # tied peaks
        [-INF, 2.0, -INF, -INF, -INF, -INF, -INF],  # one finite entry
        [-INF, -INF, -INF, -INF, -INF, -INF, -INF],
        [-INF, -650.0, 4.0, -INF, 2.5, -INF, -0.3],  # scattered -inf, span 654
        [-1000.0, 1000.0, 999.5, 0.0, 500.0, 1000.0, -999.0],  # |s| at tau 0.001
        [-INF, 0.001, 300.0, -299.0, 17.0, 299.999, -INF],  # sums near 0 beside 300
        [0.3, -1.2, 0.8, 2.2, -0.4, 1.1, -2.9],
    ]
)


def fsum_log_sum_exp(values):
    """log(sum(exp(values))) by math.fsum after shifting by the peak."""
    finite = [v for v in values if v > -INF]
    if not finite:
        return -INF
    peak = max(finite)
    return peak + math.log(math.fsum(math.exp(v - peak) for v in finite))


def assert_log_sums_close(got, expected, rows):
    """-inf exactly where the reference has it, elsewhere within a few ulps
    of the largest magnitude in the row."""
    eps = np.finfo(np.float64).eps
    for i, row in enumerate(rows):
        scale = 1.0 + max((abs(v) for v in row if v > -INF), default=0.0)
        for j, want in enumerate(expected[i]):
            if want == -INF:
                assert got[i, j] == -INF, (i, j)
            else:
                assert abs(got[i, j] - want) <= 16 * eps * scale, (i, j, got[i, j], want)


@pytest.mark.filterwarnings("error")
def test_log_sum_helpers_match_an_fsum_reference():
    rows = [list(row) for row in LOG_SUM_ROWS]
    m = len(rows[0])
    shape, padded = LOG_SUM_ROWS.shape, (len(rows), m + 1)
    all_but = _log_sum_all_but(LOG_SUM_ROWS, np.empty(shape), np.empty(shape))
    prefix = _log_cumsum(LOG_SUM_ROWS, False, np.empty(padded), np.empty(shape))
    suffix = _log_cumsum(LOG_SUM_ROWS, True, np.empty(padded), np.empty(shape))
    assert all_but.shape == LOG_SUM_ROWS.shape
    assert prefix.shape == suffix.shape == (len(rows), m + 1)
    assert_log_sums_close(
        all_but, [[fsum_log_sum_exp(r[:j] + r[j + 1 :]) for j in range(m)] for r in rows], rows
    )
    prefix_sums = [[fsum_log_sum_exp(r[:j]) for j in range(m + 1)] for r in rows]
    assert_log_sums_close(prefix, prefix_sums, rows)
    suffix_sums = [[fsum_log_sum_exp(r[j:]) for j in range(m + 1)] for r in rows]
    assert_log_sums_close(suffix, suffix_sums, rows)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def loss_value(config, raw, labels, neighbor_count, input_features=None):
    batch = EmbeddingBatch.from_raw(raw)
    return loss_with_gradient(
        config, batch, labels, neighbor_count=neighbor_count, input_features=input_features
    ).value


def central_difference_gradient(config, raw, labels, neighbor_count, step=1e-5):
    grad = np.zeros_like(raw)
    for i in range(raw.shape[0]):
        for j in range(raw.shape[1]):
            up = raw.copy()
            up[i, j] += step
            down = raw.copy()
            down[i, j] -= step
            grad[i, j] = (
                loss_value(config, up, labels, neighbor_count)
                - loss_value(config, down, labels, neighbor_count)
            ) / (2.0 * step)
    return grad


def relative_gradient_error(config, raw, labels, neighbor_count):
    batch = EmbeddingBatch.from_raw(raw)
    out = loss_with_gradient(config, batch, labels, neighbor_count=neighbor_count)
    numeric = central_difference_gradient(config, raw, labels, neighbor_count)
    scale = max(np.max(np.abs(numeric)), 1e-12)
    return np.max(np.abs(out.grad_raw - numeric)) / scale


@pytest.mark.parametrize("variant", list(LossVariant))
def test_gradient_matches_finite_differences(variant):
    config = LossConfig(variant=variant, kernel=KERNEL, temperature=TAU)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=(8, 4))
        labels = rng.uniform(20.0, 80.0, size=8)
        count = 3 if variant is LossVariant.DYN_LOC_REP else None
        assert relative_gradient_error(config, raw, labels, count) < 1e-4


def test_gradient_with_input_space_neighbors():
    config = LossConfig(nn_space=NeighborSpace.INPUT)
    rng = np.random.default_rng(7)
    raw = rng.normal(size=(6, 3))
    labels = rng.uniform(20.0, 80.0, size=6)
    features = rng.normal(size=(6, 5))
    batch = EmbeddingBatch.from_raw(raw)
    out = loss_with_gradient(config, batch, labels, neighbor_count=2, input_features=features)
    step = 1e-5
    numeric = np.zeros_like(raw)
    for i in range(6):
        for j in range(3):
            up, down = raw.copy(), raw.copy()
            up[i, j] += step
            down[i, j] -= step
            numeric[i, j] = (
                loss_value(config, up, labels, 2, features)
                - loss_value(config, down, labels, 2, features)
            ) / (2.0 * step)
    assert np.max(np.abs(out.grad_raw - numeric)) / np.max(np.abs(numeric)) < 1e-4


def test_value_agrees_with_forward_apis():
    batch, labels = random_batch(3, n=6)
    sim, weights, neighbors = forward_pieces(batch, labels, neighbor_count=2)
    config = LossConfig(kernel=KERNEL, temperature=TAU)
    out = loss_with_gradient(config, batch, labels, neighbor_count=2)
    assert out.value == pytest.approx(dynlocrep_forward(sim, weights, neighbors), abs=1e-12)
    for variant in BASELINES:
        config = LossConfig(variant=variant, kernel=KERNEL, temperature=TAU)
        out = loss_with_gradient(config, batch, labels)
        assert out.value == pytest.approx(
            baseline_forward(variant, sim, weights=weights, labels=labels), abs=1e-12
        )


def test_near_antipodal_equal_label_pair_is_pulled_together():
    """An equal-label pair contributes -s * w, so descent increases the
    pair's similarity: the gradient at each point has negative inner
    product with the direction toward the other."""
    raw = np.array([[2.0, 0.0], [-2.0, 0.3]])
    batch = EmbeddingBatch.from_raw(raw)
    labels = np.array([40.0, 40.0])
    out = loss_with_gradient(LossConfig(), batch, labels, neighbor_count=1)
    assert float(out.grad_raw[0] @ (raw[1] - raw[0])) < 0.0
    assert float(out.grad_raw[1] @ (raw[0] - raw[1])) < 0.0


def test_exactly_antipodal_pair_sits_at_a_critical_point():
    # cosine similarity has zero tangential derivative at antipodes, and
    # the normalization Jacobian removes the radial component
    raw = np.array([[2.0, 0.0], [-2.0, 0.0]])
    out = loss_with_gradient(
        LossConfig(), EmbeddingBatch.from_raw(raw), np.array([40.0, 40.0]), neighbor_count=1
    )
    assert np.array_equal(out.grad_raw, np.zeros((2, 2)))


def test_scaling_invariance_and_translation_sensitivity():
    config = LossConfig()
    rng = np.random.default_rng(11)
    raw = rng.normal(size=(7, 4))
    labels = rng.uniform(20.0, 80.0, size=7)
    base = loss_value(config, raw, labels, 3)
    for scale in (0.01, 3.0, 250.0):
        assert abs(loss_value(config, raw * scale, labels, 3) - base) < 1e-9
    shifted = loss_value(config, raw + 1.5, labels, 3)
    assert abs(shifted - base) > 1e-6  # translation is not a symmetry


def test_scaling_preserves_neighbor_sets():
    rng = np.random.default_rng(12)
    raw = rng.normal(size=(9, 4))
    unit = EmbeddingBatch.from_raw(raw).unit
    scaled_unit = EmbeddingBatch.from_raw(raw * 17.0).unit
    for norm in DistanceNorm:
        a = select_neighbors(distance_matrix(unit, norm), 3)
        b = select_neighbors(distance_matrix(scaled_unit, norm), 3)
        assert np.array_equal(a, b)


def test_permutation_equivariance():
    config = LossConfig()
    rng = np.random.default_rng(13)
    raw = rng.normal(size=(8, 4))
    labels = rng.uniform(20.0, 80.0, size=8)
    out = loss_with_gradient(config, EmbeddingBatch.from_raw(raw), labels, neighbor_count=3)
    perm = rng.permutation(8)
    out_p = loss_with_gradient(
        config, EmbeddingBatch.from_raw(raw[perm]), labels[perm], neighbor_count=3
    )
    assert abs(out.value - out_p.value) < 1e-9
    assert np.max(np.abs(out.grad_raw[perm] - out_p.grad_raw)) < 1e-9


def test_mean_reduction_divides_by_anchor_count():
    batch, labels = random_batch(4, n=5)
    total = loss_with_gradient(LossConfig(), batch, labels, neighbor_count=2)
    mean = loss_with_gradient(
        LossConfig(reduction=Reduction.MEAN), batch, labels, neighbor_count=2
    )
    assert mean.value == pytest.approx(total.value / 5.0, rel=1e-12)
    assert np.allclose(mean.grad_raw, total.grad_raw / 5.0, atol=1e-15)


# ---------------------------------------------------------------------------
# tie and edge properties: tied integer labels, tau in [0.1, 1], a zero-norm
# row, two-row batches
# ---------------------------------------------------------------------------

MAX_N = 6
tied_labels = st.lists(st.integers(20, 24), min_size=MAX_N, max_size=MAX_N)
edge_temperatures = st.floats(min_value=0.1, max_value=1.0)
zero_rows = st.sampled_from([None, 0, 1])


@settings(deadline=None)
@given(
    n=st.integers(2, MAX_N),
    raw=arrays(np.float64, (MAX_N, 3), elements=st.floats(-10, 10, allow_nan=False)),
    labels=tied_labels,
    tau=edge_temperatures,
    zero_row=zero_rows,
    count=st.integers(1, MAX_N - 1),
)
@example(
    n=2, raw=np.ones((MAX_N, 3)), labels=[20] * MAX_N, tau=0.1, zero_row=0, count=1
)
@example(
    n=5,
    raw=np.arange(3.0 * MAX_N).reshape(MAX_N, 3),
    labels=[20, 20, 21, 21, 23, 24],
    tau=0.1,
    zero_row=1,
    count=2,
)
def test_forwards_match_oracles_on_ties_and_edges(n, raw, labels, tau, zero_row, count):
    raw = raw[:n].copy()
    if zero_row is not None:
        raw[zero_row] = 0.0
    labels = np.array(labels[:n], dtype=np.float64)
    batch = EmbeddingBatch.from_raw(raw)
    sim = similarity_matrix(batch.unit, tau)
    weights = positiveness_matrix(labels, KERNEL)
    neighbors = select_neighbors(
        distance_matrix(batch.unit, DistanceNorm.MANHATTAN), min(count, n - 1)
    )
    value = dynlocrep_forward(sim, weights, neighbors)
    expected = oracles.dynlocrep_loss(
        sim, weights, [list(row) for row in neighbors]
    )
    assert math.isclose(value, expected, rel_tol=1e-10, abs_tol=1e-10)
    for variant in BASELINES:
        value = baseline_forward(variant, sim, weights=weights, labels=labels)
        expected = oracle_value(variant, sim, weights, labels)
        assert math.isclose(value, expected, rel_tol=1e-10, abs_tol=1e-10), variant


@settings(deadline=None, derandomize=True, max_examples=30)
@given(
    n=st.integers(2, 4),
    seed=st.integers(0, 2**16),
    labels=tied_labels,
    tau=edge_temperatures,
    zero_row=zero_rows,
)
@example(n=2, seed=0, labels=[20] * MAX_N, tau=0.1, zero_row=None)
@example(n=3, seed=1, labels=[20, 20, 21, 24, 24, 24], tau=0.1, zero_row=0)
def test_gradients_match_finite_differences_on_ties_and_edges(n, seed, labels, tau, zero_row):
    """The zero-norm row itself is left out of the comparison: the
    normalization jumps there, so its central differences are undefined."""
    raw = np.random.default_rng(seed).normal(size=(n, 3))
    if zero_row is not None:
        raw[zero_row] = 0.0
    labels = np.array(labels[:n], dtype=np.float64)
    rows = [i for i in range(n) if i != zero_row]
    step = 1e-5
    for variant in LossVariant:
        config = LossConfig(variant=variant, kernel=KERNEL, temperature=tau)
        count = max(1, n - 2) if variant is LossVariant.DYN_LOC_REP else None
        analytic = loss_with_gradient(
            config, EmbeddingBatch.from_raw(raw), labels, neighbor_count=count
        ).grad_raw[rows]
        numeric = np.zeros_like(analytic)
        for r, i in enumerate(rows):
            for j in range(3):
                up, down = raw.copy(), raw.copy()
                up[i, j] += step
                down[i, j] -= step
                numeric[r, j] = (
                    loss_value(config, up, labels, count)
                    - loss_value(config, down, labels, count)
                ) / (2.0 * step)
        # a gradient that vanishes identically (yaware at n = 3 with equal
        # labels) comes out as rounding noise, so the scale has a floor
        scale = max(np.max(np.abs(numeric)), 1e-8)
        assert np.max(np.abs(analytic - numeric)) / scale < 1e-4, variant


def test_calls_alternating_batch_size_and_neighbor_count_match_oracles():
    """Revisiting a batch size with another neighbor count, or a count with
    another size, gives the same values as a fresh call would."""
    for step, (n, count) in enumerate([(6, 1), (6, 4), (4, 1), (6, 1), (5, 4), (4, 3), (6, 4)]):
        batch, labels = random_batch(step, n=n)
        sim, weights, neighbors = forward_pieces(batch, labels, neighbor_count=count)
        value = dynlocrep_forward(sim, weights, neighbors)
        expected = oracles.dynlocrep_loss(sim, weights, [list(row) for row in neighbors])
        assert math.isclose(value, expected, rel_tol=1e-10, abs_tol=1e-10), (n, count)
        for variant in BASELINES:
            value = baseline_forward(variant, sim, weights=weights, labels=labels)
            expected = oracle_value(variant, sim, weights, labels)
            assert math.isclose(value, expected, rel_tol=1e-10, abs_tol=1e-10), (variant, n)


def test_weighted_is_false_exactly_when_the_guards_drop_every_pair():
    """A fully dropped loss is +0.0, not -0.0, through every entry point."""
    batch, labels = random_batch(3, n=5, label_range=(20.0, 30.0))
    spread_out = labels * 1e6
    for variant in LossVariant:
        config = LossConfig(variant=variant, kernel=KernelSpec(6.0), temperature=TAU)
        count = 2 if variant is LossVariant.DYN_LOC_REP else None
        assert loss_with_gradient(config, batch, labels, neighbor_count=count).weighted
        out = loss_with_gradient(config, batch, spread_out, neighbor_count=count)
        assert out.weighted is (variant is LossVariant.RANK_N_CONTRAST)
        if not out.weighted:
            assert not np.any(out.grad_raw)
            sim, weights, neighbors = forward_pieces(batch, spread_out, neighbor_count=count)
            if count:
                forward = dynlocrep_forward(sim, weights, neighbors)
            else:
                forward = baseline_forward(variant, sim, weights=weights)
            for value in (out.value, forward):
                assert value == 0.0 and math.copysign(1.0, value) == 1.0, variant


# ---------------------------------------------------------------------------
# contracts
# ---------------------------------------------------------------------------


def test_dynlocrep_requires_neighbor_count():
    batch, labels = random_batch(5, n=4)
    with pytest.raises(ConfigError):
        loss_with_gradient(LossConfig(), batch, labels)


def test_neighbor_count_out_of_range_rejected():
    batch, labels = random_batch(5, n=4)
    with pytest.raises(ConfigError):
        loss_with_gradient(LossConfig(), batch, labels, neighbor_count=4)


def test_input_space_requires_features():
    batch, labels = random_batch(5, n=4)
    with pytest.raises(ConfigError):
        loss_with_gradient(
            LossConfig(nn_space=NeighborSpace.INPUT), batch, labels, neighbor_count=2
        )


ENUM_FIELDS = {
    "variant": LossVariant,
    "distance_norm": DistanceNorm,
    "nn_space": NeighborSpace,
    "reduction": Reduction,
}


@pytest.mark.parametrize(
    ("name", "member"),
    [(name, member) for name, kind in ENUM_FIELDS.items() for member in kind],
)
def test_a_string_setting_evaluates_like_its_enum_member(name, member):
    """The loss dispatch compares members by identity; a plain string must
    still reach the member's branch, bit for bit."""
    by_string = LossConfig(kernel=KERNEL, temperature=TAU, **{name: member.value})
    by_member = LossConfig(kernel=KERNEL, temperature=TAU, **{name: member})
    assert getattr(by_string, name) is member
    assert by_string == by_member
    batch, labels = random_batch(13, n=10, d=4)
    features = np.random.default_rng(14).normal(size=(10, 5))
    string_out, member_out = (
        loss_with_gradient(config, batch, labels, neighbor_count=3, input_features=features)
        for config in (by_string, by_member)
    )
    assert string_out.value.hex() == member_out.value.hex()
    assert string_out.grad_raw.tobytes() == member_out.grad_raw.tobytes()


@pytest.mark.parametrize("name", list(ENUM_FIELDS))
def test_an_unknown_setting_is_rejected_naming_its_field(name):
    allowed = ", ".join(member.value for member in ENUM_FIELDS[name])
    with pytest.raises(ConfigError, match=f"^{name} must be one of {allowed}, got 'bogus'$"):
        LossConfig(**{name: "bogus"})


@pytest.mark.parametrize("kernel", [6.0, "gaussian", None])
def test_a_kernel_that_is_not_a_kernel_spec_is_rejected(kernel):
    with pytest.raises(ConfigError, match="kernel must be a KernelSpec"):
        LossConfig(kernel=kernel)


def test_dimension_mismatch_rejected():
    batch, labels = random_batch(6, n=4)
    sim, weights, _ = forward_pieces(batch, labels)
    short = positiveness_matrix(labels[:3], KERNEL)
    with pytest.raises(InputError):
        baseline_forward(LossVariant.Y_AWARE, sim, weights=short)
    with pytest.raises(InputError):
        loss_with_gradient(LossConfig(variant=LossVariant.Y_AWARE), batch, labels[:3])


def test_baseline_forward_rejects_localized_variant():
    batch, labels = random_batch(6, n=4)
    sim, weights, _ = forward_pieces(batch, labels)
    with pytest.raises(ConfigError):
        baseline_forward(LossVariant.DYN_LOC_REP, sim, weights=weights)


def test_baseline_forward_takes_a_variant_or_its_string_value():
    # a string used to fall through to the exponential branch: on this batch
    # "yaware" and "threshold" both gave exponential's 15.5338
    rng = np.random.default_rng(0)
    batch = EmbeddingBatch.from_raw(rng.normal(size=(8, 4)))
    labels = rng.uniform(20.0, 70.0, size=8)
    sim = similarity_matrix(batch.unit, 0.5)
    weights = positiveness_matrix(labels, KernelSpec(bandwidth=6.0))
    for variant in BASELINES:
        by_member = baseline_forward(variant, sim, weights=weights, labels=labels)
        by_string = baseline_forward(variant.value, sim, weights=weights, labels=labels)
        assert by_string.hex() == by_member.hex(), variant
    assert baseline_forward("rnc", sim, labels=labels) == baseline_forward(
        LossVariant.RANK_N_CONTRAST, sim, labels=labels
    )
    with pytest.raises(ConfigError, match="use dynlocrep_forward"):
        baseline_forward("dynlocrep", sim, weights=weights)
    with pytest.raises(ConfigError, match=r"variant must be one of .*rnc, got 'bogus'"):
        baseline_forward("bogus", sim, weights=weights)


def test_single_sample_batch_rejected():
    batch = EmbeddingBatch.from_raw(np.array([[1.0, 2.0]]))
    with pytest.raises(InputError):
        loss_with_gradient(LossConfig(), batch, np.array([30.0]), neighbor_count=1)


@pytest.mark.parametrize(
    "row, column, index",
    [(0, 0, 5), (1, 0, -1), (0, 0, 0), (2, 1, None)],
    ids=["beyond-n", "negative", "anchor", "repeated"],
)
def test_dynlocrep_forward_rejects_invalid_neighbor_indices(row, column, index):
    batch, labels = random_batch(8, n=5)
    sim, weights, neighbors = forward_pieces(batch, labels, neighbor_count=2)
    neighbors = neighbors.copy()
    neighbors[row, column] = neighbors[row, 1 - column] if index is None else index
    with pytest.raises(InputError):
        dynlocrep_forward(sim, weights, neighbors)


@pytest.mark.parametrize(
    ("reshape", "shape"),
    [
        (lambda nb: nb[:4], "(4, 2)"),
        (lambda nb: nb.ravel(), "(10,)"),
        (lambda nb: nb[:, :0], "(5, 0)"),
    ],
    ids=["too-few-rows", "flat", "no-columns"],
)
def test_dynlocrep_forward_rejects_misshapen_neighbor_sets(reshape, shape):
    batch, labels = random_batch(8, n=5)
    sim, weights, neighbors = forward_pieces(batch, labels, neighbor_count=2)
    message = f"neighbor sets must have shape (5, count >= 1), got {shape}"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        dynlocrep_forward(sim, weights, reshape(neighbors))


def test_dynlocrep_forward_rejects_ragged_neighbor_sets():
    batch, labels = random_batch(8, n=3)
    sim, weights, _ = forward_pieces(batch, labels, neighbor_count=1)
    message = "neighbor sets must have shape (3, count >= 1), got rows of unequal length"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        dynlocrep_forward(sim, weights, [[1], [0, 2], [0]])


@pytest.mark.parametrize("variant", BASELINES)
def test_a_baseline_without_its_supervision_is_rejected(variant):
    batch, labels = random_batch(11, n=5)
    sim, _, _ = forward_pieces(batch, labels)
    rnc = variant is LossVariant.RANK_N_CONTRAST
    message = "rank-n-contrast needs labels" if rnc else f"{variant.value} needs a positiveness"
    with pytest.raises(InputError, match=message):
        baseline_forward(variant, sim)


def test_input_features_must_match_the_batch():
    batch, labels = random_batch(12, n=5)
    config = LossConfig(nn_space=NeighborSpace.INPUT)
    message = "^input features must have shape \\(5, m\\), got \\(4, 3\\)$"
    with pytest.raises(InputError, match=message):
        loss_with_gradient(config, batch, labels, neighbor_count=2, input_features=np.ones((4, 3)))


@pytest.mark.parametrize("variant", list(LossVariant))
def test_a_non_finite_loss_is_surfaced(variant):
    """A temperature of 1e-310 overflows the similarities to inf."""
    batch, labels = random_batch(13, n=6)
    config = LossConfig(variant=variant, temperature=1e-310)
    with np.errstate(all="ignore"), pytest.raises(NumericalError, match="non-finite output"):
        loss_with_gradient(config, batch, labels, neighbor_count=2)


def test_forwards_reject_a_non_square_similarity_matrix():
    batch, labels = random_batch(9, n=5)
    sim, weights, neighbors = forward_pieces(batch, labels, neighbor_count=2)
    with pytest.raises(InputError):
        dynlocrep_forward(sim[:, :4], weights, neighbors)
    for variant in BASELINES:
        with pytest.raises(InputError):
            baseline_forward(variant, sim[:, :4], weights=weights, labels=labels)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_rnc_rejects_non_finite_labels(bad):
    batch, labels = random_batch(10, n=5)
    sim, _, _ = forward_pieces(batch, labels)
    labels[2] = bad
    with pytest.raises(InputError):
        baseline_forward(LossVariant.RANK_N_CONTRAST, sim, labels=labels)
    with pytest.raises(InputError):
        loss_with_gradient(LossConfig(variant=LossVariant.RANK_N_CONTRAST), batch, labels)


def forward(variant, sim, weights, labels, neighbors):
    if variant is LossVariant.DYN_LOC_REP:
        return dynlocrep_forward(sim, weights, neighbors)
    return baseline_forward(variant, sim, weights=weights, labels=labels)


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("variant", list(LossVariant))
def test_forwards_reject_a_batch_under_two_rows(variant, n):
    """At n = 1 yaware and exponential returned -0.0, and at n = 0 every
    variant raised a raw ValueError."""
    sim, weights = np.zeros((n, n)), np.ones((n, n))
    with pytest.raises(InputError, match=f"^need a batch of at least 2 samples, got {n}$"):
        forward(variant, sim, weights, np.zeros(n), np.zeros((n, 1), dtype=np.intp))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    ("variant", "target"),
    [(variant, "similarity matrix") for variant in LossVariant]
    + [(variant, "positiveness matrix") for variant in [LossVariant.DYN_LOC_REP, *BASELINES[:3]]],
)
def test_forwards_reject_non_finite_entries(variant, target, bad):
    """A NaN entry gave a loss of nan for every variant."""
    batch, labels = random_batch(16, n=5)
    sim, weights, neighbors = forward_pieces(batch, labels, neighbor_count=2)
    (sim if target == "similarity matrix" else weights)[1, 3] = bad
    with pytest.raises(InputError, match=f"^{target} contains non-finite values$"):
        forward(variant, sim, weights, labels, neighbors)


@pytest.mark.parametrize(("n", "count"), [(32, 31.0), (32, 30.0), (2, True)], ids=repr)
def test_loss_with_gradient_takes_only_an_integer_neighbor_count(n, count):
    """31.0 at n = 32 and True at n = 2 reached the everyone-but-the-anchor
    shortcut and trained, while 30.0 raised."""
    batch, labels = random_batch(17, n=n)
    with pytest.raises(ConfigError, match=f"^neighbor count must be an integer, got {count!r}$"):
        loss_with_gradient(LossConfig(), batch, labels, neighbor_count=count)
    by_numpy = loss_with_gradient(LossConfig(), batch, labels, neighbor_count=np.int64(n - 1))
    by_int = loss_with_gradient(LossConfig(), batch, labels, neighbor_count=n - 1)
    assert by_numpy.value.hex() == by_int.value.hex()
    assert by_numpy.grad_raw.tobytes() == by_int.grad_raw.tobytes()


# ---------------------------------------------------------------------------
# Bit-for-bit references for the passes the step skips when nothing is
# dropped: the earlier masked formulas, kept verbatim.
# ---------------------------------------------------------------------------


def reference_pair_weights(w):
    n = w.shape[0]
    off = w * (1.0 - np.eye(n))
    row_sums = off.sum(axis=1, keepdims=True)
    safe = np.where(row_sums < WEIGHT_SUM_EPS, 1.0, row_sums)
    return np.where(row_sums < WEIGHT_SUM_EPS, 0.0, off / safe)


def reference_dynlocrep_core(s, w, neighbors):
    """dynlocrep's loss, dL/ds and weighted flag through eye/where= masks."""
    n = s.shape[0]
    a = reference_pair_weights(w)
    b = 1.0 - w
    x = b * s
    if neighbors is None:
        in_set = ~np.eye(n, dtype=bool)
    else:
        in_set = np.zeros((n, n), dtype=bool)
        in_set[np.arange(n)[:, None], neighbors] = True
    peak = np.max(x, axis=1, keepdims=True, initial=-np.inf, where=in_set)
    terms = np.exp(x - peak, out=np.zeros((n, n)), where=in_set)
    mass = terms.sum(axis=1, keepdims=True)
    total = 0.0 - float(np.sum(a * (s - (peak + np.log(mass)))))  # +0.0 when all dropped
    grad_s = -a + b * terms * (a.sum(axis=1, keepdims=True) / mass)
    return total, grad_s, bool((a > 0.0).any())


def reference_chain_rule(grad_s, batch, temperature):
    grad_unit = (grad_s + grad_s.T) @ batch.unit / temperature
    norms = np.sqrt(np.sum(batch.raw * batch.raw, axis=1, keepdims=True))
    radial = (grad_unit * batch.unit).sum(axis=1, keepdims=True)
    return np.where(
        norms > NORM_EPS, grad_unit - radial * batch.unit, grad_unit
    ) / np.maximum(norms, NORM_EPS)


def guard_cases():
    """(name, raw, labels): each reaches one slow branch of the step."""
    rng = np.random.default_rng(31)
    raw = rng.normal(size=(9, 4))
    labels = rng.uniform(20.0, 80.0, size=9)
    zero_row = raw.copy()
    zero_row[3] = 0.0
    tiny_row = raw.copy()
    tiny_row[5] *= 1e-13 / np.linalg.norm(tiny_row[5])
    light = labels.copy()
    light[0] = 1e4  # anchor 0's kernel weights underflow: mass < WEIGHT_SUM_EPS
    return [
        ("plain", raw, labels),
        ("zero row", zero_row, labels),
        ("norm 1e-13 row", tiny_row, labels),
        ("light anchor", raw, light),
        ("n = 2", raw[:2], labels[:2]),
        ("n = 2 light", raw[:2], np.array([20.0, 2e4])),
    ]


@pytest.mark.parametrize("case", guard_cases(), ids=lambda case: case[0])
def test_pair_weights_match_the_masked_reference_bit_for_bit(case):
    _, _, labels = case
    w = positiveness_matrix(labels, KERNEL)
    assert _normalized_pair_weights(w, np.empty_like(w)).tobytes() == reference_pair_weights(w).tobytes()


@pytest.mark.parametrize("count", ["all", 1, 2])
@pytest.mark.parametrize("case", guard_cases(), ids=lambda case: case[0])
def test_dynlocrep_step_matches_the_masked_reference_bit_for_bit(case, count):
    """The core against eye/where= masks, then loss_with_gradient against
    the core's output pushed through the masked chain rule."""
    _, raw, labels = case
    n = len(labels)
    count = n - 1 if count == "all" else min(count, n - 1)
    batch = EmbeddingBatch.from_raw(raw)
    config = LossConfig(kernel=KERNEL, temperature=TAU)
    s, w = similarity_matrix(batch.unit, TAU), positiveness_matrix(labels, KERNEL)
    neighbors = None
    if count != n - 1:
        neighbors = select_neighbors(distance_matrix(batch.unit, DistanceNorm.MANHATTAN), count)
    work = list(np.empty((_CORE_WORK, n, n)))
    value, grad_s, weighted = _loss_core(LossVariant.DYN_LOC_REP, s, w, None, neighbors, work)
    ref_value, ref_grad_s, ref_weighted = reference_dynlocrep_core(s, w, neighbors)
    assert (value, weighted) == (ref_value, ref_weighted)
    assert grad_s.tobytes() == ref_grad_s.tobytes()
    out = loss_with_gradient(config, batch, labels, neighbor_count=count)
    assert float(out.value).hex() == float(ref_value).hex()
    assert out.grad_raw.tobytes() == reference_chain_rule(ref_grad_s, batch, TAU).tobytes()


@pytest.mark.parametrize("variant", BASELINES)
@pytest.mark.parametrize("case", guard_cases(), ids=lambda case: case[0])
def test_chain_rule_matches_the_masked_reference_bit_for_bit(case, variant):
    _, raw, labels = case
    batch = EmbeddingBatch.from_raw(raw)
    config = LossConfig(variant=variant, kernel=KERNEL, temperature=TAU)
    s, w = similarity_matrix(batch.unit, TAU), positiveness_matrix(labels, KERNEL)
    gaps = np.abs(labels[:, None] - labels[None, :])
    work = list(np.empty((_CORE_WORK, len(labels), len(labels))))
    value, grad_s, _ = _loss_core(variant, s, w, gaps, None, work)
    out = loss_with_gradient(config, batch, labels)
    assert float(out.value).hex() == float(value).hex()
    assert out.grad_raw.tobytes() == reference_chain_rule(grad_s, batch, TAU).tobytes()


@pytest.mark.parametrize("variant", list(LossVariant))
def test_forwards_do_not_depend_on_the_memory_layout(variant):
    """Column-major and strided inputs give the values of C-ordered ones."""
    batch, labels = random_batch(12, n=7)
    sim, weights, neighbors = forward_pieces(batch, labels, neighbor_count=3)
    layouts = [np.asfortranarray, lambda m: np.repeat(m, 2, axis=1)[:, ::2]]
    for layout in layouts:
        if variant is LossVariant.DYN_LOC_REP:
            got = dynlocrep_forward(layout(sim), layout(weights), neighbors)
            expected = dynlocrep_forward(sim, weights, neighbors)
        else:
            got = baseline_forward(variant, layout(sim), weights=layout(weights), labels=labels)
            expected = baseline_forward(variant, sim, weights=weights, labels=labels)
        assert float(got).hex() == float(expected).hex()


def test_a_thread_keeps_one_work_buffer_of_at_most_the_kept_bytes():
    """After steps at n = 700 and then n = 720, a new thread holds one buffer
    for the larger batch (31.6 MiB), not one set of work arrays per batch
    size (61.5 MiB together)."""
    rng = np.random.default_rng(23)
    batches = [
        (EmbeddingBatch.from_raw(rng.normal(size=(n, 4))), np.arange(n, dtype=float))
        for n in (700, 720)
    ]
    config = LossConfig(variant=LossVariant.Y_AWARE)
    held = []

    def steps():
        before = tracemalloc.get_traced_memory()[0]
        for batch, labels in batches:
            loss_with_gradient(config, batch, labels)
        held.append(tracemalloc.get_traced_memory()[0] - before)

    tracemalloc.start()
    try:
        thread = threading.Thread(target=steps)
        thread.start()
        thread.join()
    finally:
        tracemalloc.stop()
    assert (1 + _CORE_WORK) * 720 * 720 * 8 <= held[0] <= _KEPT_BYTES
