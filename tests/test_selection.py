"""Neighbor sets and sort orders the loss core reads.

The selection rule against a stable-argsort reference on heavily tied
distances, the whole-batch neighbor set that skips selection, non-finite
distances and embeddings, and threshold and rank-n-contrast on tied labels.
"""

import math

import numpy as np
import pytest

import oracles
from dynlocrep import (
    DistanceNorm,
    EmbeddingBatch,
    InputError,
    KernelSpec,
    LossConfig,
    LossVariant,
    NeighborSpace,
    NumericalError,
    baseline_forward,
    distance_matrix,
    dynlocrep_forward,
    loss_with_gradient,
    positiveness_matrix,
    select_neighbors,
    similarity_matrix,
)
from dynlocrep import losses as losses_module

SORTED_VARIANTS = [LossVariant.THRESHOLD, LossVariant.RANK_N_CONTRAST]


def stable_argsort_neighbors(distances, count):
    """The first ``count`` columns of a stable sort on (distance, index)."""
    masked = np.array(distances, dtype=np.float64)
    np.fill_diagonal(masked, np.inf)
    return np.argsort(masked, axis=1, kind="stable")[:, :count]


def tied_distances(n, kind):
    rng = np.random.default_rng(n)
    if kind == "duplicate rows":
        # a handful of distinct points, each repeated many times
        points = rng.normal(size=(max(1, n // 8), 3))[rng.integers(0, max(1, n // 8), n)]
        return distance_matrix(points, DistanceNorm.EUCLIDEAN)
    lattice = rng.integers(0, 4, size=(n, 3)).astype(np.float64)
    return distance_matrix(lattice, DistanceNorm(kind))


@pytest.mark.parametrize("kind", ["duplicate rows", "manhattan", "chebyshev"])
@pytest.mark.parametrize("n", [2, 3, 32, 256])
def test_neighbor_sets_match_a_stable_argsort_reference(n, kind):
    distances = tied_distances(n, kind)
    for count in sorted({1, 2, n // 2, n - 2, n - 1}):
        if not 1 <= count <= n - 1:
            continue
        sets = select_neighbors(distances, count)
        expected = np.sort(stable_argsort_neighbors(distances, count), axis=1)
        assert sets.shape == (n, count)
        assert np.array_equal(sets, expected), count
        assert np.all(np.diff(sets, axis=1) > 0), "rows must run in ascending index order"


def test_neighbor_sets_ignore_the_diagonal():
    distances = tied_distances(8, "manhattan")
    np.fill_diagonal(distances, np.nan)
    assert np.array_equal(select_neighbors(distances, 3), np.sort(
        stable_argsort_neighbors(distances, 3), axis=1))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_distances_rejected(bad):
    rng = np.random.default_rng(0)
    distances = distance_matrix(rng.normal(size=(5, 3)), DistanceNorm.MANHATTAN)
    distances[0, 2] = bad
    with pytest.raises(InputError, match="non-finite"):
        select_neighbors(distances, 4)


@pytest.mark.parametrize("space", list(NeighborSpace))
@pytest.mark.parametrize("n", [2, 7, 32])
def test_whole_batch_neighbor_set_skips_selection(monkeypatch, n, space):
    """At count n - 1 no distance is computed, and the loss equals the
    forward with explicit everyone-but-the-anchor sets, bit for bit."""

    def must_not_run(*args, **kwargs):
        raise AssertionError("neighbor selection ran for the whole-batch set")

    monkeypatch.setattr(losses_module, "distance_matrix", must_not_run)
    monkeypatch.setattr(losses_module, "select_neighbors", must_not_run)
    rng = np.random.default_rng(n)
    batch = EmbeddingBatch.from_raw(rng.normal(size=(n, 5)))
    labels = rng.integers(0, 5, size=n).astype(np.float64)
    kernel = KernelSpec(bandwidth=2.0)
    config = LossConfig(kernel=kernel, temperature=0.1, nn_space=space)
    out = loss_with_gradient(
        config, batch, labels, neighbor_count=n - 1, input_features=rng.normal(size=(n, 4))
    )
    everyone_else = np.array([[t for t in range(n) if t != i] for i in range(n)])
    expected = dynlocrep_forward(
        similarity_matrix(batch.unit, 0.1), positiveness_matrix(labels, kernel), everyone_else
    )
    assert out.value == expected


@pytest.mark.parametrize("count", [1, 5, 7])
@pytest.mark.parametrize("space", list(NeighborSpace))
@pytest.mark.parametrize("variant", list(LossVariant))
def test_non_finite_embeddings_raise_numerical_error(variant, space, count):
    raw = np.random.default_rng(1).normal(size=(8, 3))
    raw[2, 1] = np.nan
    config = LossConfig(variant=variant, nn_space=space)
    labels = np.arange(8.0)
    with pytest.raises(NumericalError, match="non-finite"):
        loss_with_gradient(
            config, EmbeddingBatch.from_raw(raw), labels, neighbor_count=count,
            input_features=np.ones((8, 2)),
        )


def five_valued_labels(n, seed):
    return np.random.default_rng(seed).integers(0, 5, size=n).astype(np.float64)


@pytest.mark.parametrize("variant", SORTED_VARIANTS)
def test_sorted_losses_match_oracles_on_five_valued_labels(variant):
    n, tau = 48, 0.1
    rng = np.random.default_rng(48)
    unit = EmbeddingBatch.from_raw(rng.normal(size=(n, 6))).unit
    labels = five_valued_labels(n, 48)
    sim = similarity_matrix(unit, tau)
    if variant is LossVariant.THRESHOLD:
        weights = positiveness_matrix(labels, KernelSpec(bandwidth=2.0))
        value = baseline_forward(variant, sim, weights=weights)
        expected = oracles.threshold_loss(sim, weights)
    else:
        value = baseline_forward(variant, sim, labels=labels)
        expected = oracles.rank_n_contrast_loss(sim, labels)
    assert math.isclose(value, expected, rel_tol=1e-10, abs_tol=1e-10)


@pytest.mark.parametrize("variant", SORTED_VARIANTS)
def test_sorted_losses_are_permutation_equivariant_on_five_valued_labels(variant):
    n = 256
    rng = np.random.default_rng(256)
    raw = rng.normal(size=(n, 8))
    labels = five_valued_labels(n, 256)
    config = LossConfig(variant=variant, kernel=KernelSpec(bandwidth=2.0), temperature=0.1)
    out = loss_with_gradient(config, EmbeddingBatch.from_raw(raw), labels)
    scale = np.abs(out.grad_raw).max()
    for _ in range(3):
        perm = rng.permutation(n)
        out_p = loss_with_gradient(config, EmbeddingBatch.from_raw(raw[perm]), labels[perm])
        assert math.isclose(out.value, out_p.value, rel_tol=1e-12)
        assert np.abs(out.grad_raw[perm] - out_p.grad_raw).max() <= 1e-12 * scale
